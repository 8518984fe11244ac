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
    min_attainable_p,
    normal_cdf,
    normal_quantile,
    p_rep,
    p_value,
    posterior_h0,
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
