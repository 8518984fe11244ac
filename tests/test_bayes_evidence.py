import math
import random

import pytest
from hypothesis import given, strategies as st

from threshold_lab import (
    BetaPrior,
    BinomialModel,
    BinomialOutcome,
    InfeasibleError,
    SelectionMode,
    TailConvention,
    evidence_at_threshold,
    log_marginal_h1,
    log_pmf,
    posterior_h0,
    select_barely_significant,
)

from threshold_lab._checks import MAX_SHAPE
from threshold_lab.bayes_evidence import _ln_bf_floor, _prior_or_uniform, _scorer
from threshold_lab.binomial_kernel import _log_term

import oracles
import reference


class TestBetaPrior:
    def test_uniform_helper(self):
        prior = BetaPrior.uniform()
        assert prior.a == 1.0 and prior.b == 1.0

    def test_default_prior_is_one_shared_uniform(self):
        # None is one module-level Beta(1, 1), not a new validated object per call; the values stay put
        assert _prior_or_uniform(None) is _prior_or_uniform(None) == BetaPrior(1.0, 1.0)
        for n, s in [(1, 0), (20, 15), (100, 60), (2000, 0), (10**6, 501000)]:
            outcome = BinomialOutcome(n, s)
            assert posterior_h0(outcome) == posterior_h0(outcome, BetaPrior(1.0, 1.0))
            assert log_marginal_h1(outcome) == log_marginal_h1(outcome, BetaPrior(1.0, 1.0))
        assert evidence_at_threshold(100, 0.05) == evidence_at_threshold(100, 0.05, prior=BetaPrior(1.0, 1.0))

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            BetaPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaPrior(1.0, -2.0)
        with pytest.raises(ValueError):
            BetaPrior(float("inf"), 1.0)

    def test_rejects_shapes_above_the_limit(self):
        # at a = b = 1e300 the lgamma differences kept no digit: posterior .0107 where .5 is right
        for bad in (math.nextafter(MAX_SHAPE, math.inf), 1e13, 1e300):
            with pytest.raises(ValueError, match="at most 1e\\+06"):
                BetaPrior(bad, 1.0)
            with pytest.raises(ValueError, match="prior shape b"):
                BetaPrior(1.0, bad)

    @pytest.mark.parametrize("n,s", [(1, 1), (20, 15), (100, 60), (100, 0), (1000, 530), (10000, 5100)])
    @pytest.mark.parametrize("a,b", [(MAX_SHAPE, MAX_SHAPE), (MAX_SHAPE, 1.0), (0.5, MAX_SHAPE), (MAX_SHAPE, 3.7)])
    def test_marginal_at_the_shape_limit_matches_the_exact_product(self, n, s, a, b):
        # the largest error seen at the limit is 5.4e-9; it grows to 0.19 at 1e13 and 5.5 at 1e15
        got = log_marginal_h1(BinomialOutcome(n, s), BetaPrior(a, b))
        assert got == pytest.approx(oracles.product_log_marginal(n, s, a, b), abs=1e-8)


class TestMarginalLikelihood:
    def test_uniform_prior_closed_form_is_exact(self):
        # under Beta(1,1) the marginal of any s out of n is exactly 1/(n+1)
        for n, s in [(1, 0), (20, 20), (100, 60), (4000, 123), (10000, 9999)]:
            assert log_marginal_h1(BinomialOutcome(n, s)) == -math.log(n + 1.0)

    def test_uniform_prior_closed_form_randomized(self):
        rng = random.Random(417)
        for _ in range(300):
            n = rng.randrange(1, 10001)
            s = rng.randrange(0, n + 1)
            assert log_marginal_h1(BinomialOutcome(n, s)) == -math.log(n + 1.0)

    @pytest.mark.parametrize(
        "n,s,a,b",
        [(10, 7, 2.0, 3.0), (10, 7, 1.0, 1.0), (25, 20, 5.0, 1.0), (60, 30, 3.5, 3.5), (200, 120, 1.0, 4.0)],
    )
    def test_matches_quadrature(self, n, s, a, b):
        got = log_marginal_h1(BinomialOutcome(n, s), BetaPrior(a, b))
        assert got == pytest.approx(oracles.quadrature_log_marginal(n, s, a, b), rel=1e-9)

    @given(
        st.integers(1, 2000),
        st.data(),
        st.floats(0.25, 20.0),
        st.floats(0.25, 20.0),
    )
    def test_is_a_probability(self, n, data, a, b):
        s = data.draw(st.integers(0, n))
        assert log_marginal_h1(BinomialOutcome(n, s), BetaPrior(a, b)) <= 1e-12


class TestPosterior:
    def test_point_null_example_nearest(self):
        report = posterior_h0(BinomialOutcome(100, 60))
        assert report.posterior_h0 == pytest.approx(0.52, abs=0.01)
        assert report.posterior_h0 == pytest.approx(reference.evidence(100, 60)["posterior_h0"], rel=1e-12)

    def test_point_null_example_one_percent_threshold(self):
        # s=63 is the barely-significant count at alpha=.01 for n=100
        report = posterior_h0(BinomialOutcome(100, 63))
        assert report.posterior_h0 == pytest.approx(0.22, abs=0.01)
        assert report.posterior_h0 == pytest.approx(reference.evidence(100, 63)["posterior_h0"], rel=1e-12)

    def test_single_coin_flip_is_even_money(self):
        report = posterior_h0(BinomialOutcome(1, 1))
        assert report.bf01 == 1.0
        assert report.posterior_h0 == 0.5
        assert report.posterior_odds_h1 == 1.0

    def test_two_flips_one_head(self):
        # bf01 = (1/2) / (1/3) = 3/2, posterior = 1.5/2.5
        report = posterior_h0(BinomialOutcome(2, 1))
        assert report.bf01 == pytest.approx(1.5, rel=1e-12)
        assert report.posterior_h0 == pytest.approx(0.6, rel=1e-12)

    @given(st.integers(1, 3000), st.data())
    def test_equal_odds_identities(self, n, data):
        s = data.draw(st.integers(0, n))
        report = posterior_h0(BinomialOutcome(n, s))
        if math.isfinite(report.bf01):
            assert report.posterior_h0 == pytest.approx(report.bf01 / (1.0 + report.bf01), abs=1e-12)
        if report.bf01 > 0:
            assert report.posterior_odds_h1 == pytest.approx(1.0 / report.bf01, rel=1e-12)
        assert report.bf01 == pytest.approx(math.exp(report.log_l0 - report.log_l1), rel=1e-12)

    @given(st.floats(0.01, 0.99))
    def test_prior_probability_mixes_by_bayes_rule(self, pi0):
        report = posterior_h0(BinomialOutcome(100, 60), prior_prob_h0=pi0)
        bf = posterior_h0(BinomialOutcome(100, 60)).bf01
        want = pi0 * bf / (pi0 * bf + (1.0 - pi0))
        assert report.posterior_h0 == pytest.approx(want, abs=1e-12)

    def test_prior_probability_bounds_enforced(self):
        for bad in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                posterior_h0(BinomialOutcome(10, 5), prior_prob_h0=bad)

    def test_rejects_a_prior_that_is_not_a_beta_prior(self):
        # a (1, 1) tuple used to raise a raw AttributeError
        with pytest.raises(ValueError, match="BetaPrior"):
            posterior_h0(BinomialOutcome(100, 60), prior=(1, 1))
        with pytest.raises(ValueError, match="BetaPrior"):
            log_marginal_h1(BinomialOutcome(100, 60), (1, 1))

    def test_posterior_increases_with_bf(self):
        reports = [posterior_h0(BinomialOutcome(100, s)) for s in (80, 70, 60, 50)]
        assert all(a.bf01 < b.bf01 for a, b in zip(reports, reports[1:]))
        assert all(a.posterior_h0 < b.posterior_h0 for a, b in zip(reports, reports[1:]))

    def test_log_likelihoods_are_the_advertised_quantities(self):
        outcome = BinomialOutcome(100, 60)
        report = posterior_h0(outcome)
        assert report.log_l0 == log_pmf(outcome, BinomialModel(0.5))
        assert report.log_l1 == log_marginal_h1(outcome)

    def test_extreme_outcome_stays_finite(self):
        report = posterior_h0(BinomialOutcome(5000, 5000))
        assert report.bf01 == 0.0
        assert report.posterior_h0 == 0.0
        assert report.posterior_odds_h1 == math.inf


class TestEvidenceAtThreshold:
    def test_composition_matches_manual_pipeline(self):
        got = evidence_at_threshold(100, 0.05)
        s, p = select_barely_significant(100, 0.05)
        assert got.s == s
        assert got.p_achieved == p
        assert got.report == posterior_h0(BinomialOutcome(100, s))

    def test_small_grid_value(self):
        got = evidence_at_threshold(20, 0.05)
        assert got.s == 15
        assert got.report.posterior_h0 == pytest.approx(reference.evidence(20, 15)["posterior_h0"], rel=1e-12)

    def test_posterior_rises_with_n_at_fixed_alpha(self):
        low = evidence_at_threshold(100, 0.05).report.posterior_h0
        high = evidence_at_threshold(10000, 0.05).report.posterior_h0
        assert high > low

    def test_stricter_alpha_lowers_posterior_at_fixed_n(self):
        values = [evidence_at_threshold(100, a).report.posterior_h0 for a in (0.05, 0.01, 0.001)]
        assert values[0] > values[1] > values[2]

    def test_strict_infeasibility_propagates(self):
        with pytest.raises(InfeasibleError):
            evidence_at_threshold(4, 0.05, SelectionMode.STRICT_AT_MOST_ALPHA)

    def test_nearest_infeasibility_propagates(self):
        # no s scores at n = 20, alpha = 1e-10 (the smallest p is 2**-19); s = n used to be scored
        with pytest.raises(InfeasibleError, match="n=20"):
            evidence_at_threshold(20, 1e-10)

    def test_one_sided_tail_threads_through(self):
        got = evidence_at_threshold(100, 0.05, tail=TailConvention.ONE_SIDED_UPPER)
        s, p = select_barely_significant(100, 0.05, tail=TailConvention.ONE_SIDED_UPPER)
        assert (got.s, got.p_achieved) == (s, p)


def _full_bracket_score(n, s, a, b, pi0):
    # log_marginal_h1's arithmetic with the bracket always evaluated, the flat prior's included
    def betaln(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    log_l0 = _log_term(n, s)
    log_l1 = -math.log(n + 1.0) + (betaln(s + a, n - s + b) - betaln(s + 1.0, n - s + 1.0)) - betaln(a, b)
    d = (math.log1p(-pi0) - math.log(pi0)) - (log_l0 - log_l1)
    return log_l1, (math.exp(-d) / (1.0 + math.exp(-d)) if d >= 0.0 else 1.0 / (1.0 + math.exp(d)))


class TestSharedScorer:
    def test_scorer_is_posterior_h0_bit_for_bit(self):
        # find_crossing scores through one _scorer per search, with the scan's ln L0
        rng = random.Random(2000)
        shapes = [0.5, 1.0, 2.0, 3.0, 0.1, 17.5, MAX_SHAPE]
        flat = 0
        for i in range(2000):
            n = int(math.exp(rng.uniform(0.0, math.log(10**6))))
            s = rng.randint(0, n)
            prior = BetaPrior(1, 1) if i % 4 == 0 else BetaPrior(rng.choice(shapes), rng.choice(shapes))
            pi0 = rng.choice([0.5, 0.1, 0.9, 1e-6, rng.uniform(0.01, 0.99)])
            log_l0 = _log_term(n, s)
            flat += (prior.a, prior.b) == (1, 1)
            report = posterior_h0(BinomialOutcome(n, s), prior, pi0)
            got = _scorer(prior, pi0)(n, s, log_l0)
            assert (log_l0, *got) == (report.log_l0, report.log_l1, report.posterior_h0), (n, s, prior, pi0)
            assert got == _full_bracket_score(n, s, float(prior.a), float(prior.b), pi0), (n, s, prior, pi0)
        assert flat >= 500

    def test_crossing_floor_lies_under_every_score_that_reaches_the_level(self):
        # find_crossing skips n whose ln(L0 (n + 1)) lies below _ln_bf_floor, so no posterior that rounds to
        # the level or above may lie below it: here from subnormal posteriors (ln BF01 near -745) to 1 - 2**-53
        # (near +37), at levels equal to the posterior and one float below.  The float log(n + 1) errs by an
        # ulp, far inside the floor's margin; without the margin, 1,249 of these 9,621 levels fail.
        rng = random.Random(30)
        for i in range(5000):
            n, pi0 = rng.randrange(1, 10**7), 0.5 if i % 2 else rng.uniform(0.01, 0.99)
            ln_bf = rng.uniform(*rng.choice([(-746.0, 38.0), (-746.0, -700.0), (30.0, 38.0)]))
            log_l0 = ln_bf - math.log(n + 1)
            post = _scorer(None, pi0)(n, n, log_l0)[1]
            for level in {math.nextafter(post, 0.0), post} - {0.0, 1.0}:
                floor = _ln_bf_floor(BetaPrior(1, 1), pi0, level)
                assert math.fsum([log_l0, math.log(n + 1)]) >= floor, (n, pi0, level)

    def test_crossing_floor_is_off_where_it_bounds_nothing(self):
        # a prior that is not flat has an lgamma bracket the floor does not bound; level = ulp(0) is reached
        # by any posterior that rounds above 0
        assert _ln_bf_floor(BetaPrior(2, 3), 0.5, 0.5) == _ln_bf_floor(BetaPrior(1, 0.5), 0.5, 0.5) == -math.inf
        assert _ln_bf_floor(None, 0.5, 5e-324) == -math.inf < _ln_bf_floor(None, 0.5, 1e-323)
        assert -1e-12 < _ln_bf_floor(None, 0.5, 0.5) == _ln_bf_floor(BetaPrior(1, 1), 0.5, 0.5) < 0.0
