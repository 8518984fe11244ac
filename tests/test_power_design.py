import math
from fractions import Fraction

import pytest
from scipy.stats import norm

from threshold_lab import (
    BetaPrior,
    DiagnosticityGain,
    InfeasibleError,
    SelectionMode,
    ZTestDesign,
    achieved_power,
    diagnosticity_gain,
    evidence_at_threshold,
    required_n,
)

import reference


def exact_odds_h1(alpha, n):
    """l1/l0 at the barely-significant s, in exact rational arithmetic."""
    return float(reference.evidence(n, reference.select(n, alpha, False, True))["odds_h1"])


def reference_power(n, design):
    shift = design.effect * math.sqrt(n) / design.sigma
    return float(norm.cdf(shift - norm.ppf(1.0 - design.alpha)))


class TestZTestDesign:
    def test_effect_is_absolute_shift(self):
        d = ZTestDesign(mu0=0.0, mu_alt=-0.4, sigma=2.0, alpha=0.05, beta=0.2)
        assert d.effect == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZTestDesign(mu0=0.0, mu_alt=0.0, sigma=1.0, alpha=0.05, beta=0.2)
        with pytest.raises(ValueError):
            ZTestDesign(mu0=0.0, mu_alt=0.5, sigma=0.0, alpha=0.05, beta=0.2)
        with pytest.raises(ValueError):
            ZTestDesign(mu0=0.0, mu_alt=0.5, sigma=1.0, alpha=0.0, beta=0.2)
        with pytest.raises(ValueError):
            ZTestDesign(mu0=0.0, mu_alt=0.5, sigma=1.0, alpha=0.05, beta=1.0)


class TestRequiredN:
    def test_lenient_threshold_lab_example(self):
        d = ZTestDesign(mu0=40.0, mu_alt=43.0, sigma=8.0, alpha=0.05, beta=0.02)
        assert required_n(d) == 98

    def test_strict_threshold_same_effect(self):
        d = ZTestDesign(mu0=40.0, mu_alt=43.0, sigma=8.0, alpha=0.01, beta=0.02)
        assert required_n(d) == 137

    def test_small_effect_80_percent_power(self):
        d = ZTestDesign(mu0=0.0, mu_alt=0.25, sigma=1.0, alpha=0.05, beta=0.2)
        assert required_n(d) == 99

    def test_strong_effect_needs_few_samples(self):
        d = ZTestDesign(mu0=0.0, mu_alt=2.0, sigma=1.0, alpha=0.05, beta=0.2)
        assert required_n(d) == 2

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001])
    @pytest.mark.parametrize("beta", [0.2, 0.1, 0.02])
    def test_minimality(self, delta, alpha, beta):
        d = ZTestDesign(mu0=0.0, mu_alt=delta, sigma=1.0, alpha=alpha, beta=beta)
        n = required_n(d)
        assert achieved_power(n, d) >= 1.0 - beta
        if n > 1:
            assert achieved_power(n - 1, d) < 1.0 - beta

    @pytest.mark.parametrize("mu_alt", [1e-11, 1e-13, 1e-15])
    def test_minimal_far_above_2_to_53(self, mu_alt):
        # here a unit step in n cannot move the float power, so stepping would never end
        d = ZTestDesign(mu0=0.0, mu_alt=mu_alt, sigma=1.0, alpha=0.05, beta=0.2)
        n = required_n(d)
        assert n > 2**53
        assert achieved_power(n, d) >= 0.8 > achieved_power(n - 1, d)

    def test_closed_form_above_the_minimum_gallops_down(self):
        # the closed form gives 3,013,236, where power has already reached 1 - beta three steps lower
        d = ZTestDesign(mu0=0.0, mu_alt=0.005, sigma=1.0, alpha=0.05, beta=1e-12)
        assert required_n(d) == 3_013_233
        assert achieved_power(3_013_233, d) >= 1.0 - 1e-12 > achieved_power(3_013_232, d)

    @pytest.mark.parametrize("mu_alt, sigma", [(1e-200, 1e200), (1e-150, 1e150)])
    def test_overflowing_closed_form_names_the_ratio(self, mu_alt, sigma):
        # the first overflows to inf before squaring, the second in the square
        d = ZTestDesign(mu0=0.0, mu_alt=mu_alt, sigma=sigma, alpha=0.05, beta=0.2)
        with pytest.raises(ValueError, match="effect/sigma ratio"):
            required_n(d)

    def test_monotone_in_alpha_and_effect(self):
        base = dict(mu0=0.0, sigma=1.0, beta=0.1)
        stricter = [required_n(ZTestDesign(mu_alt=0.3, alpha=a, **base)) for a in (0.05, 0.01, 0.001)]
        assert stricter[0] <= stricter[1] <= stricter[2]
        smaller_effects = [required_n(ZTestDesign(mu_alt=d, alpha=0.05, **base)) for d in (0.5, 0.3, 0.1)]
        assert smaller_effects[0] <= smaller_effects[1] <= smaller_effects[2]


class TestAchievedPower:
    def test_matches_reference_formula(self):
        d = ZTestDesign(mu0=40.0, mu_alt=43.0, sigma=8.0, alpha=0.05, beta=0.02)
        for n in (1, 10, 98, 137, 500):
            assert achieved_power(n, d) == pytest.approx(reference_power(n, d), abs=1e-12)

    def test_target_bracketing_at_the_returned_n(self):
        d = ZTestDesign(mu0=40.0, mu_alt=43.0, sigma=8.0, alpha=0.05, beta=0.02)
        assert achieved_power(98, d) >= 0.98
        assert achieved_power(97, d) < 0.98

    def test_strictly_increasing_in_n(self):
        d = ZTestDesign(mu0=0.0, mu_alt=0.2, sigma=1.0, alpha=0.05, beta=0.2)
        vals = [achieved_power(n, d) for n in range(1, 300)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n, design", [(10**300, ZTestDesign(0.0, 1.0, 1e-200, 0.05, 0.2)),
                                           (1, ZTestDesign(0.0, 1e308, 1e-308, 0.05, 0.2))], ids=["n", "effect"])
    def test_an_overflowing_shift_has_power_one(self, n, design):
        # effect sqrt(n) / sigma overflows to inf: Phi(inf) = 1, where normal_cdf's check named its argument z
        assert achieved_power(n, design) == 1.0
        assert required_n(design) == 1

    def test_rejects_bad_n(self):
        d = ZTestDesign(mu0=0.0, mu_alt=0.2, sigma=1.0, alpha=0.05, beta=0.2)
        with pytest.raises(ValueError):
            achieved_power(0, d)


class TestDiagnosticityGain:
    def test_identical_operating_points_give_unit_ratio(self):
        gain = diagnosticity_gain((0.05, 100), (0.05, 100))
        assert gain.ratio == 1.0
        assert gain.odds_a == gain.odds_b

    def test_stricter_alpha_multiplies_the_odds(self):
        gain = diagnosticity_gain((0.05, 100), (0.0001, 100))
        assert gain.odds_a == pytest.approx(exact_odds_h1(0.05, 100), rel=1e-12)
        assert gain.odds_b == pytest.approx(exact_odds_h1(0.0001, 100), rel=1e-12)
        assert gain.ratio == pytest.approx(gain.odds_b / gain.odds_a, rel=1e-15)
        assert gain.ratio > 3.0

    def test_is_a_named_tuple_with_three_fields(self):
        gain = diagnosticity_gain((0.05, 100), (0.01, 100))
        assert isinstance(gain, DiagnosticityGain)
        assert gain._fields == ("odds_a", "odds_b", "ratio")

    def test_larger_n_at_fixed_alpha_reduces_odds(self):
        gain = diagnosticity_gain((0.05, 100), (0.05, 10000))
        assert gain.ratio < 1.0

    def test_overflowed_bayes_factors_take_the_ratio_from_their_logs(self):
        # ln BF01 is 760.7 at a and 1066.8 at b: both bf01 overflow and both odds are 0.0
        prior = BetaPrior(1e6, 0.001)
        gain = diagnosticity_gain((0.05, 200), (0.01, 300), prior=prior)
        a = evidence_at_threshold(200, 0.05, prior=prior).report
        b = evidence_at_threshold(300, 0.01, prior=prior).report
        assert gain.odds_a == gain.odds_b == 0.0
        assert gain.ratio == math.exp((a.log_l0 - a.log_l1) - (b.log_l0 - b.log_l1))
        assert gain.ratio == pytest.approx(1.05e-133, rel=1e-2)
        assert diagnosticity_gain((0.05, 2000), (0.05, 200), prior=prior).ratio == math.inf
        assert diagnosticity_gain((0.05, 200), (0.05, 2000), prior=prior).ratio == 0.0
        # a subnormal alpha at n = 1e6 and 2e6: ln BF01 is -733.5 and -733.2, so both odds overflow to inf
        # and odds_b / odds_a would be inf / inf = nan.  The walk decides on p times 2**512, so the picks are
        # the exact nearest ones: 519,241, the strict s (exact p .987 alpha, the next s down 1.066 alpha), and
        # 1,027,212, one below the strict s (1.0063 alpha against .953 alpha).  When the walk compared float p,
        # rounded to a multiple of 5e-324, it picked 519,236 and 1,027,205, with exact p 1.451 and 1.473 alpha
        gain = diagnosticity_gain((5e-324, 10**6), (5e-324, 2 * 10**6))
        assert gain.odds_a == gain.odds_b == math.inf
        assert gain.ratio == pytest.approx(0.686011993042, rel=1e-11)
        s_a, s_b = (evidence_at_threshold(n, 5e-324).s for n in (10**6, 2 * 10**6))
        assert (s_a, s_b) == (519_241, 1_027_212)
        alpha = Fraction(5e-324)
        for n, s in ((10**6, s_a), (2 * 10**6, s_b)):  # reference.select cannot take a two-sided 5e-324
            p = {k: Fraction(2 * reference.upper_tail(n, k)) for k in (s - 1, s, s + 1)}
            strict = s if p[s] <= alpha else s + 1
            assert p[strict] <= alpha < p[strict - 1], n
            assert abs(p[s] - alpha) < abs(p[s - 1 if s == strict else strict] - alpha), n
        exact = reference.evidence(2 * 10**6, s_b)["odds_h1"] / reference.evidence(10**6, s_a)["odds_h1"]
        assert gain.ratio == pytest.approx(float(exact), rel=1e-8)  # the pmf's relative error at n = 1e6 is 2e-9

    def test_strict_infeasibility_propagates(self):
        with pytest.raises(InfeasibleError):
            diagnosticity_gain((0.05, 4), (0.05, 100), mode=SelectionMode.STRICT_AT_MOST_ALPHA)

    def test_nearest_infeasibility_propagates(self):
        # odds_a used to be 49,932, scored at s = n = 20 with p = 1.9e-6 far above 1e-10
        with pytest.raises(InfeasibleError, match="n=20"):
            diagnosticity_gain((1e-10, 20), (0.05, 100))
