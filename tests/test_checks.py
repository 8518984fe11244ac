"""One input rule at every public entry point: a number is an int or a float, not a bool."""

import math

import numpy as np
import pytest

from threshold_lab import (
    BetaPrior,
    BinomialModel,
    BinomialOutcome,
    SweepGrid,
    ZTestDesign,
    achieved_power,
    diagnosticity_gain,
    evidence_at_threshold,
    find_crossing,
    log_marginal_h1,
    log_pmf,
    min_attainable_p,
    normal_cdf,
    normal_quantile,
    p_rep,
    p_value,
    posterior_h0,
    required_n,
    select_barely_significant,
)

DESIGN = ZTestDesign(0.0, 0.5, 1.0, 0.05, 0.2)

# (entry point and argument, the name its ValueError gives, a call that puts x in that argument)
ENTRY_POINTS = [
    ("select_barely_significant n", "trial count n", lambda x: select_barely_significant(x, 0.05)),
    ("select_barely_significant alpha", "alpha", lambda x: select_barely_significant(100, x)),
    ("p_value tail", "tail", lambda x: p_value(BinomialOutcome(100, 60), x)),
    ("min_attainable_p n", "trial count n", lambda x: min_attainable_p(x)),
    ("BinomialOutcome n", "trial count n", lambda x: BinomialOutcome(x, 0)),
    ("BinomialOutcome s", "success count s", lambda x: BinomialOutcome(10, x)),
    ("BinomialModel theta", "theta", lambda x: BinomialModel(x)),
    ("BetaPrior a", "prior shape a", lambda x: BetaPrior(x, 1.0)),
    ("BetaPrior b", "prior shape b", lambda x: BetaPrior(1.0, x)),
    ("posterior_h0 prior_prob_h0", "prior_prob_h0",
     lambda x: posterior_h0(BinomialOutcome(100, 60), prior_prob_h0=x)),
    ("evidence_at_threshold alpha", "alpha", lambda x: evidence_at_threshold(100, x)),
    ("SweepGrid n_values", "n_values entries", lambda x: SweepGrid(n_values=(x,))),
    ("SweepGrid alphas", "alphas entries", lambda x: SweepGrid(alphas=(x,))),
    ("find_crossing alpha", "alpha", lambda x: find_crossing(x, 0.5)),
    ("find_crossing level", "level", lambda x: find_crossing(0.05, x)),
    ("find_crossing n_max", "n_max", lambda x: find_crossing(0.05, 0.5, n_max=x)),
    ("ZTestDesign mu0", "mu0", lambda x: ZTestDesign(x, 0.5, 1.0, 0.05, 0.2)),
    ("ZTestDesign mu_alt", "mu_alt", lambda x: ZTestDesign(0.0, x, 1.0, 0.05, 0.2)),
    ("ZTestDesign sigma", "sigma", lambda x: ZTestDesign(0.0, 0.5, x, 0.05, 0.2)),
    ("ZTestDesign alpha", "alpha", lambda x: ZTestDesign(0.0, 0.5, 1.0, x, 0.2)),
    ("ZTestDesign beta", "beta", lambda x: ZTestDesign(0.0, 0.5, 1.0, 0.05, x)),
    ("achieved_power n", "sample size n", lambda x: achieved_power(x, DESIGN)),
    ("p_rep p", "p must", lambda x: p_rep(x)),
    ("normal_cdf z", "z must", lambda x: normal_cdf(x)),
    ("normal_quantile q", "quantile input", lambda x: normal_quantile(x)),
    ("diagnosticity_gain point_a alpha", "alpha", lambda x: diagnosticity_gain((x, 100), (0.01, 100))),
    ("diagnosticity_gain point_b n", "trial count n", lambda x: diagnosticity_gain((0.05, 100), (0.01, x))),
]


@pytest.mark.parametrize("bad", ["0.05", None, True, math.nan], ids=["str", "None", "bool", "nan"])
@pytest.mark.parametrize("name,call", [(e[1], e[2]) for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS])
def test_non_numbers_are_a_value_error_naming_the_argument(name, call, bad):
    # a str alpha or level was a raw TypeError, and SweepGrid converted one silently
    with pytest.raises(ValueError, match=name):
        call(bad)


def test_numpy_float64_passes_and_float32_does_not():
    assert select_barely_significant(100, np.float64(0.05)) == select_barely_significant(100, 0.05)
    assert SweepGrid(alphas=(np.float64(0.05),)).alphas == (0.05,)
    assert type(SweepGrid(alphas=(np.float64(0.05),)).alphas[0]) is float
    with pytest.raises(ValueError, match="alpha"):
        select_barely_significant(100, np.float32(0.05))


def test_an_int_too_large_for_a_float_is_a_value_error():
    # was an OverflowError from math.isfinite
    with pytest.raises(ValueError, match="z must"):
        normal_cdf(10**400)
    with pytest.raises(ValueError, match="mu0"):
        ZTestDesign(10**400, 0.5, 1.0, 0.05, 0.2)


def test_a_huge_n_is_a_value_error():
    # were OverflowErrors from lgamma(n + 1) and from sqrt(n); the bounds themselves are accepted
    with pytest.raises(ValueError, match="at most 1e\\+305"):
        posterior_h0(BinomialOutcome(2**1030, 5))
    with pytest.raises(ValueError, match="sample size n must be at most"):
        achieved_power(10**400, DESIGN)
    assert posterior_h0(BinomialOutcome(int(1e305), 5)).posterior_h0 == 0.0
    assert achieved_power(int(1.7976931348623157e308), DESIGN) == 1.0


@pytest.mark.parametrize("name,digits,call", [
    ("trial count n", 5001, lambda: BinomialOutcome(10**5000, 5)),
    ("success count s", 5001, lambda: BinomialOutcome(10, 10**5000)),
    ("trial count n", 5001, lambda: select_barely_significant(10**5000, 0.05)),
    ("alpha", 5001, lambda: select_barely_significant(100, 10**5000)),
    ("p must", 5001, lambda: p_rep(10**5000)),
    ("sample size n", 5001, lambda: achieved_power(10**5000, DESIGN)),
    ("trial count n", 401, lambda: BinomialOutcome(10**400, 5)),
    ("trial count n", 31, lambda: select_barely_significant(-(10**30), 0.05)),
    ("outcome", 5001, lambda: p_value(10**5000)),
    ("mode", 5001, lambda: find_crossing(0.05, 0.5, 10**5000)),
    ("prior", 5001, lambda: posterior_h0(BinomialOutcome(5, 2), 10**5000)),
    ("point_a", 5001, lambda: diagnosticity_gain(10**5000, (0.05, 100))),
], ids=["outcome n", "outcome s", "select n", "select alpha", "p_rep p", "power n", "outcome n 1e400", "negative n",
        "p_value outcome", "crossing mode", "posterior prior", "diagnosticity point_a"])
def test_a_huge_int_is_shown_by_its_digit_count(name, digits, call):
    # past 4300 digits the message raised Python's own "Exceeds the limit" error; 10**400 was printed whole
    with pytest.raises(ValueError, match=name) as err:
        call()
    assert f"{digits}-digit integer" in str(err.value) and len(str(err.value)) < 200


def test_a_long_string_is_shown_by_its_length():
    with pytest.raises(ValueError, match="alpha") as err:
        select_barely_significant(100, "5" * 5000)
    assert str(err.value).endswith("got a 5000-character value") and len(str(err.value)) < 200
    with pytest.raises(ValueError, match=f"got '{'5' * 30}'$"):  # 30 characters are still shown whole
        select_barely_significant(100, "5" * 30)


# (entry point and argument, the name its ValueError gives, the call with an object that is not the expected one)
OBJECT_ARGUMENTS = [
    ("p_value outcome", "outcome", lambda: p_value(None)),
    ("p_value outcome tuple", "outcome", lambda: p_value((100, 60))),
    ("log_pmf outcome", "outcome", lambda: log_pmf((5, 2), BinomialModel(0.5))),
    ("log_pmf model", "model", lambda: log_pmf(BinomialOutcome(5, 2), 0.5)),
    ("posterior_h0 outcome", "outcome", lambda: posterior_h0(None)),
    ("log_marginal_h1 outcome", "outcome", lambda: log_marginal_h1((100, 60))),
    ("achieved_power design", "design", lambda: achieved_power(10, None)),
    ("required_n design", "design", lambda: required_n(None)),
    ("diagnosticity_gain point_a", "point_a", lambda: diagnosticity_gain(None, (0.05, 100))),
    ("diagnosticity_gain point_b", "point_b", lambda: diagnosticity_gain((0.05, 100), (0.05, 100, 1))),
]


@pytest.mark.parametrize("name,call", [(e[1], e[2]) for e in OBJECT_ARGUMENTS], ids=[e[0] for e in OBJECT_ARGUMENTS])
def test_wrong_objects_are_a_value_error_naming_the_argument(name, call):
    # each was a raw AttributeError or TypeError
    with pytest.raises(ValueError, match=name):
        call()
