import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from threshold_lab import (
    DEFAULT_ALPHAS,
    DEFAULT_N_VALUES,
    BinomialModel,
    BinomialOutcome,
    InfeasibleError,
    SelectionMode,
    SweepGrid,
    TailConvention,
    find_crossing,
    log_pmf,
    min_attainable_p,
    p_value,
    posterior_h0,
    run_sweep,
    select_barely_significant,
)
from threshold_lab import binomial_kernel
from threshold_lab.binomial_kernel import (
    MAX_N,
    _log_term,
    _log_terms,
    _march,
    _select_walk,
    _tail_start,
)

import oracles
import reference

TWO = TailConvention.TWO_SIDED_SYMMETRIC
ONE = TailConvention.ONE_SIDED_UPPER
HALF = BinomialModel(0.5)
NINE_ALPHAS = (0.9, 0.5, 0.25, 0.05, 1e-3, 1e-10, 1e-300, 1e-310, 5e-324)  # strictly decreasing, for one pass


def _logsumexp(values):
    m = max(values)
    if m == -math.inf:
        return m
    return m + math.log(sum(math.exp(v - m) for v in values))


class TestDomainTypes:
    def test_outcome_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            BinomialOutcome(0, 0)
        with pytest.raises(ValueError):
            BinomialOutcome(5, 6)
        with pytest.raises(ValueError):
            BinomialOutcome(5, -1)
        with pytest.raises(ValueError):
            BinomialOutcome(5.0, 2)

    def test_model_bounds(self):
        BinomialModel(0.0)
        BinomialModel(1.0)
        with pytest.raises(ValueError):
            BinomialModel(-0.001)
        with pytest.raises(ValueError):
            BinomialModel(1.001)
        with pytest.raises(ValueError):
            BinomialModel(float("nan"))


class TestLogPmf:
    def test_two_trials_one_success(self):
        got = log_pmf(BinomialOutcome(2, 1), HALF)
        assert got == pytest.approx(math.log(0.5), rel=1e-15)

    def test_central_term_at_n100(self):
        got = log_pmf(BinomialOutcome(100, 50), HALF)
        assert got == pytest.approx(math.log(0.0796), rel=1e-4)
        assert math.exp(got) == pytest.approx(float(reference.pmf(100, 50)), rel=1e-13)

    def test_degenerate_theta(self):
        assert log_pmf(BinomialOutcome(10, 0), BinomialModel(0.0)) == 0.0
        assert log_pmf(BinomialOutcome(10, 3), BinomialModel(0.0)) == -math.inf
        assert log_pmf(BinomialOutcome(10, 10), BinomialModel(1.0)) == 0.0
        assert log_pmf(BinomialOutcome(10, 9), BinomialModel(1.0)) == -math.inf

    @given(st.integers(1, 5000), st.data())
    def test_half_symmetry_is_bit_exact(self, n, data):
        s = data.draw(st.integers(0, n))
        assert log_pmf(BinomialOutcome(n, s), HALF) == log_pmf(BinomialOutcome(n, n - s), HALF)

    @given(st.integers(1, 200), st.data())
    def test_matches_exact_rationals(self, n, data):
        s = data.draw(st.integers(0, n))
        theta = data.draw(st.sampled_from([0.5, 0.25, 0.125]))
        exact = math.comb(n, s) * theta ** s * (1 - theta) ** (n - s)
        if exact > 0:
            assert math.exp(log_pmf(BinomialOutcome(n, s), BinomialModel(theta))) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 50, 100, 317, 1000, 2500, 10000])
    def test_normalization(self, n):
        total = _logsumexp([log_pmf(BinomialOutcome(n, s), HALF) for s in range(n + 1)])
        assert abs(math.exp(total) - 1.0) < 1e-10


class TestPValue:
    def test_two_of_two(self):
        # P(X>=2) + P(X<=0) = 0.25 + 0.25
        assert p_value(BinomialOutcome(2, 2), TWO) == 0.5

    @pytest.mark.parametrize("s,approx", [(61, 0.0352), (60, 0.0569)])
    def test_n100_examples(self, s, approx):
        got = p_value(BinomialOutcome(100, s), TWO)
        assert got == pytest.approx(approx, abs=5e-5)
        assert got == pytest.approx(float(reference.p_value(100, s, True)), rel=1e-12)

    def test_reflected_success_count_gives_same_two_sided_p(self):
        assert p_value(BinomialOutcome(100, 40), TWO) == p_value(BinomialOutcome(100, 60), TWO)

    def test_even_n_midpoint_clamps_to_one(self):
        # both tails overlap at s = n/2: the raw sum is 1 + pmf(n/2)
        assert p_value(BinomialOutcome(10, 5), TWO) == 1.0

    @given(st.integers(1, 120), st.data())
    def test_one_sided_matches_exact_tail(self, n, data):
        s = data.draw(st.integers(0, n))
        got = p_value(BinomialOutcome(n, s), ONE)
        assert got == pytest.approx(float(reference.upper_tail(n, s)), rel=1e-12)

    @pytest.mark.parametrize("n", [13, 24, 100])
    def test_two_sided_nonincreasing_in_distance_from_center(self, n):
        by_distance = sorted(range(n + 1), key=lambda s: abs(s - n / 2))
        ps = [p_value(BinomialOutcome(n, s), TWO) for s in by_distance]
        for earlier, later in zip(ps, ps[1:]):
            assert later <= earlier + 1e-15

    def test_rejects_a_tail_that_is_not_the_enum(self):
        # "one" used to give the two-sided 0.1332
        with pytest.raises(ValueError, match="TailConvention"):
            p_value(BinomialOutcome(100, 58), "one")
        with pytest.raises(ValueError, match="TailConvention"):
            min_attainable_p(100, "one")

    @given(st.integers(1, 300), st.data())
    def test_range(self, n, data):
        s = data.draw(st.integers(0, n))
        tail = data.draw(st.sampled_from([TWO, ONE]))
        p = p_value(BinomialOutcome(n, s), tail)
        assert 0.0 < p <= 1.0


class TestMinAttainableP:
    @pytest.mark.parametrize("n", [1, 4, 10, 33])
    def test_closed_forms(self, n):
        assert min_attainable_p(n, ONE) == pytest.approx(0.5 ** n, rel=1e-12)
        assert min_attainable_p(n, TWO) == pytest.approx(min(1.0, 2.0 * 0.5 ** n), rel=1e-12)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            min_attainable_p(0)

    def test_is_c_two_to_the_minus_n_exactly(self):
        # p(n) = c 2**-n is a float, or underflows to 0.0; p_value's float fold of the one term k = n, exp(ln c - n
        # ln 2), may round above it, as it did at (3, one) before the exact route: 0.12500000000000003
        for n in [*range(1, 2001), MAX_N]:
            for tail, c in ((ONE, 1), (TWO, 2)):
                assert min_attainable_p(n, tail) == math.ldexp(c, -n), (n, tail)
                assert n > 1073 or Fraction(min_attainable_p(n, tail)) == Fraction(c, 2 ** n), (n, tail)


class TestSelection:
    def test_n100_nearest_at_05(self):
        s, p = select_barely_significant(100, 0.05)
        assert s == 60
        assert p == pytest.approx(0.0569, abs=5e-5)

    def test_n100_strict_at_05(self):
        s, p = select_barely_significant(100, 0.05, SelectionMode.STRICT_AT_MOST_ALPHA)
        assert s == 61
        assert p == pytest.approx(0.0352, abs=5e-5)

    def test_n100_nearest_at_01(self):
        s, p = select_barely_significant(100, 0.01)
        assert s == 63
        assert p == pytest.approx(float(reference.p_value(100, 63, True)), rel=1e-12)
        assert p == pytest.approx(0.012, abs=1e-4)

    def test_strict_infeasible_at_tiny_n(self):
        with pytest.raises(InfeasibleError):
            select_barely_significant(4, 0.05, SelectionMode.STRICT_AT_MOST_ALPHA)

    def test_nearest_infeasible_at_tiny_n(self):
        # s = 4 has p = .125 > .05: no count is significant, so nearest mode has nothing to score either
        with pytest.raises(InfeasibleError, match=r"p <= 0\.05 at n=4 \(most extreme p is 0\.125\)"):
            select_barely_significant(4, 0.05)

    def test_p_achieved_rederives_bit_equal(self):
        # p_achieved is folded from the walk's own terms; it must equal a fresh p_value bit for bit
        rng = random.Random(1018)
        alphas = [math.exp(rng.uniform(math.log(1e-12), math.log(0.9))) for _ in range(2700)]
        checked = 0
        for alpha in alphas + [1e-300] * 100 + [5e-324] * 100:
            n = int(math.exp(rng.uniform(0.0, math.log(10**6))))
            mode = rng.choice(list(SelectionMode))
            tail = rng.choice([ONE, TWO])
            try:
                s, p = select_barely_significant(n, alpha, mode, tail)
            except InfeasibleError:
                continue
            assert p == p_value(BinomialOutcome(n, s), tail), (n, alpha, mode, tail)
            checked += 1
        assert checked >= 2000

    def test_walk_p_is_p_value_bit_for_bit(self):
        # sweep cells print this p and the crossing scan's walks take T from it; with a smaller alpha after
        # it, which is walked first, over the same list of terms: the same (s, p)
        rng = random.Random(14)
        checked = 0
        for _ in range(700):
            n = int(math.exp(rng.uniform(0.0, math.log(10**6))))
            alpha = math.exp(rng.uniform(math.log(1e-12), math.log(0.9)))
            mode = rng.choice(list(SelectionMode))
            tail = rng.choice([ONE, TWO])
            [pick] = _select_walk(n, (alpha,), mode, tail)
            if pick is None:
                continue
            s, p, log_tail = pick
            assert p == p_value(BinomialOutcome(n, s), tail), (n, alpha, mode, tail)
            assert log_tail == binomial_kernel._log_upper_tail(n, s), (n, alpha, mode, tail)
            # the smaller alpha may find no s, and leaves the list to this one
            assert _select_walk(n, (alpha, alpha * 1e-3), mode, tail)[0] == pick, (n, alpha, mode, tail)
            checked += 1
        assert checked >= 500

    def test_walk_terms_are_log_pmf_bit_for_bit(self, monkeypatch):
        # the list a float walk (n >= 400) reads, for one alpha or a pass, holds log_pmf's terms: its runs tile one
        # range above n/2, each run grown below the list or above it, and that range holds the pick's own tail
        runs = []

        def recorded(n, start, stop):  # a copy of each run: the walk grows the first in place
            runs.append((start, stop, _log_terms(n, start, stop)))
            return list(runs[-1][2])

        monkeypatch.setattr(binomial_kernel, "_log_terms", recorded)
        rng = random.Random(20261018)
        for _ in range(60):
            n = int(math.exp(rng.uniform(math.log(binomial_kernel._EXACT_N), math.log(10**6))))
            alpha = math.exp(rng.uniform(math.log(1e-12), math.log(0.9)))
            tail = rng.choice([ONE, TWO])
            for alphas in ((alpha,), (alpha, alpha * 1e-3)):
                runs.clear()
                pick = _select_walk(n, alphas, SelectionMode.NEAREST_TO_ALPHA, tail)[0]
                if pick is None:  # no alpha is attained
                    continue
                (hi, lo), terms = runs[0][:2], list(runs[0][2])
                for start, stop, run in runs[1:]:
                    assert start == lo or stop == hi, (n, alphas, runs)
                    terms = terms + run if start == lo else run + terms
                    hi, lo = max(hi, start), min(lo, stop)
                assert lo >= n // 2 and hi - lo == len(terms)
                assert lo < pick[0] and _tail_start(n, pick[0]) <= hi, (n, alphas, pick[0], hi, lo)
                for i in sorted({0, len(terms) - 1, *(rng.randrange(len(terms)) for _ in range(20))}):
                    assert terms[i] == log_pmf(BinomialOutcome(n, hi - i), HALF), (n, hi - i)

    def test_log_terms_are_log_term_bit_for_bit(self):
        # ranges from the lowest stop the domain allows, (n - 1) // 2, and above it, out to k = n
        for n in (1, 2, 7, 20, 101, 1000, 4097):
            low, half = (n - 1) // 2, n // 2
            for start, stop in {(n, low), (n, half), (n, n - 1), (min(n, half + 40), low), (min(n, half + 3), low),
                                (min(n, half + 3), half), (n, max(low, n - 40)), (min(n, half + 40), half + 1)}:
                if start > stop:
                    assert _log_terms(n, start, stop) == [_log_term(n, k) for k in range(start, stop, -1)], (
                        n, start, stop)

    @pytest.mark.parametrize("tail", [ONE, TWO], ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_walk_matches_the_per_term_reference(self, mode, tail):
        # every float-walk n from 400 to 560 at nine alphas, in one-alpha calls and in one pass for all nine, against
        # the reference that decides every k on its own fold; no n here attains the three smallest, whose subnormal p
        # both compare times 2**512 (the large-n test below reaches them).  Below 400 the walk is exact (TestExactWalk)
        for n in range(400, 561):
            want = [oracles.reference_walk(n, alpha, mode.value, tail is TWO) for alpha in NINE_ALPHAS]
            assert [pick and pick[:2] for pick in _select_walk(n, NINE_ALPHAS, mode, tail)] == want, n
            assert [pick and pick[:2] for alpha in NINE_ALPHAS for pick in _select_walk(n, (alpha,), mode, tail)] == (
                want), n

    @pytest.mark.parametrize("tail", [ONE, TWO], ids=lambda t: t.value)
    def test_walk_matches_the_per_term_reference_at_thin_margins(self, tail):
        # alpha at each s's own p, c exp(ln P(X >= s) + 512 ln 2) divided by 2**512, exactly, and at its two float
        # neighbours, for every n from 400 to 430 in both modes: p(s) = alpha and margins of one ulp either way, which a
        # decision on a fold from any other cut-off than s's, or s - 1's, may round to the other side.  One pass per n
        # takes every such alpha, and one-alpha calls take those at every 10th n
        c, ln_scale = (2.0 if tail is TWO else 1.0), binomial_kernel._LN_SCALE
        for n in range(400, 431):
            ties = {c * math.exp(oracles.own_log_tail(n, s) + ln_scale) / 2.0 ** 512 for s in range(n // 2 + 1, n + 1)}
            alphas = sorted({a for v in ties for a in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0)) if a < 1.0},
                            reverse=True)
            for mode in SelectionMode:
                want = [oracles.reference_walk(n, alpha, mode.value, tail is TWO) for alpha in alphas]
                assert [pick and pick[:2] for pick in _select_walk(n, tuple(alphas), mode, tail)] == want, (n, mode)
                if n % 10 == 0:
                    picks = [pick for alpha in alphas for pick in _select_walk(n, (alpha,), mode, tail)]
                    assert [pick and pick[:2] for pick in picks] == want, (n, mode)

    def test_walk_matches_a_bisection_on_own_folds_at_large_n(self):
        # 500 seeded cases from n = 400, where the float walk starts, up to 1e6; three in ten have alpha 1e-300 or
        # below, where above n = 1,400 or so p is subnormal, and at 1e-310 and 5e-324 a plateau of equal floats,
        # distinct times 2**512
        rng = random.Random(15)
        for _ in range(500):
            n = int(math.exp(rng.uniform(math.log(binomial_kernel._EXACT_N), math.log(10**6))))
            alpha = rng.choice([math.exp(rng.uniform(math.log(1e-12), math.log(0.9))),
                                rng.choice((0.9, 0.5, 1e-300, 1e-310, 5e-324))])
            mode, tail = rng.choice(list(SelectionMode)), rng.choice([ONE, TWO])
            [pick] = _select_walk(n, (alpha,), mode, tail)
            assert pick == _select_by_own_folds(n, alpha, mode, tail), (n, alpha, mode, tail)

    def test_a_guess_anywhere_leaves_every_pick_as_it_was(self, monkeypatch):
        # the guess only saves work: at a quantile of 1e6, z = -1e6, Cornish-Fisher's term, about z^3/(12 n), outweighs
        # z at every n here and puts the guess at Hoeffding's bound; at -1e6 it puts it at n/2 + 1, below every strict
        # s, and a seeded jitter of up to 4 either way moves it off the strict s; every one-alpha call and every pass
        # picks what it picked.  Passes at n = 400, 401 and 1000 take alpha at each s's own p and at its two float
        # neighbours, so that the search crosses every zero margin from below (up from n/2 + 1) and from above (down
        # from Hoeffding's bound)
        cases = [(n, alphas, mode, tail) for n in (400, 1000, 9091, 20000)
                 for alphas in ((0.3,), (0.05,), (1e-3,), (1e-8,), (0.3, 0.05, 1e-3, 1e-8))
                 for mode in SelectionMode for tail in (ONE, TWO)]
        for n in (400, 401, 1000):
            for tail in (ONE, TWO):
                ties = {_own_p(n, s, tail) / binomial_kernel._SCALE for s in range(n // 2 + 1, n + 1)}
                alphas = {a for v in ties for a in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0)) if a < 1.0}
                cases += [(n, tuple(sorted(alphas, reverse=True)), mode, tail) for mode in SelectionMode]
        want = [_select_walk(*case) for case in cases]
        rng, quantile = random.Random(39), binomial_kernel._inv_cdf
        for guessed in (lambda q: 1e6, lambda q: -1e6, lambda q: quantile(q) + rng.uniform(-4.0, 4.0)):
            monkeypatch.setattr(binomial_kernel, "_inv_cdf", guessed)
            assert [_select_walk(*case) for case in cases] == want

    @pytest.mark.parametrize("tail", [ONE, TWO], ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_one_pass_picks_what_one_alpha_calls_pick(self, monkeypatch, mode, tail):
        # every subset of the default alphas at every default n: one pass gives each one-alpha call's (s, p)
        one = {(n, a): _select_walk(n, (a,), mode, tail)[0] for n in DEFAULT_N_VALUES for a in DEFAULT_ALPHAS}
        for n in DEFAULT_N_VALUES:
            for size in range(1, len(DEFAULT_ALPHAS) + 1):
                for alphas in itertools.combinations(DEFAULT_ALPHAS, size):
                    assert _select_walk(n, alphas, mode, tail) == [one[n, a] for a in alphas], (n, alphas)
        # thin margins: a larger alpha set to the strict s's own p, or the p of s - 1, leaves alpha - p(s) at 0, and
        # halfway between the two leaves nearest mode's two margins equal; a pass once handed such an alpha over to
        # a one-alpha walk, within _tol of p(s) (0.9 _tol above it) and not beyond (1.1 _tol).  The pass picks what
        # the one-alpha call picks at every margin, with no nested walk.  p is c exp(ln tail + 512 ln 2) on each s's
        # own fold (_own_p), and alpha its exact quotient by _SCALE
        nested = []

        def spy(n, alphas, *args):
            nested.append(alphas)
            return _select_walk(n, alphas, *args)

        monkeypatch.setattr(binomial_kernel, "_select_walk", spy)
        small, scale = DEFAULT_ALPHAS[-1], binomial_kernel._SCALE

        def check(n, alphas):
            assert _select_walk(n, alphas, mode, tail) == [_select_walk(n, (a,), mode, tail)[0] for a in alphas], (
                n, alphas)
            assert nested == [], (n, alphas)

        for n in DEFAULT_N_VALUES:
            for big in DEFAULT_ALPHAS[:-1]:
                s = _select_walk(n, (big,), SelectionMode.STRICT_AT_MOST_ALPHA, tail)[0][0]
                above, below = _own_p(n, s - 1, tail), _own_p(n, s, tail)
                tol = binomial_kernel._tol(below / scale, _tail_start(n, s) - n // 2, 28.0)
                for alpha in (above / scale, below / scale, (below + above) / 2 / scale, (below + 0.9 * tol) / scale,
                              (below + 1.1 * tol) / scale):
                    check(n, (alpha, small))
        # subnormal alphas, where eps alpha underflows: times _SCALE it stays normal.  A larger alpha at 0.9 and 1.1
        # _tol above the last p(s) below 2**-1022
        for n in (1400, 1500, 1800):
            s = next(k for k in range(n // 2 + 1, n + 1) if _own_p(n, k, tail) <= 1.1e-308 * scale)  # 1.6e-309 or more
            below = _own_p(n, s, tail)
            tol = binomial_kernel._tol(below / scale, _tail_start(n, s) - n // 2, 28.0)
            for share in (0.9, 1.1):
                alpha = (below + share * tol) / scale  # subnormal, so alpha - p(s) is share * tol to an ulp(0) _SCALE
                assert alpha < 2.0 ** -1022
                check(n, (alpha, 1e-312))

    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_a_guess_too_low_steps_up_to_the_strict_s(self, mode, monkeypatch):
        # (9091, .3, two-sided), where a guess without the kurtosis term fell one below the strict s, and a seeded sweep
        # of alpha in [.2, .9] x n from 400, where the float walk starts, up to 1e5, each pick against the bisection on
        # its own folds: first with the guess as it is, which lay below no strict s in 23,000 seeded walks; then with
        # every guess at n/2 + 1, below the strict s wherever p(n/2 + 1) exceeds alpha, so that the search must step up
        # to it
        rng = random.Random(9091)
        cases = [(9091, 0.3, TWO)] + [(int(math.exp(rng.uniform(math.log(400), math.log(1e5)))), rng.uniform(0.2, 0.9),
                                       rng.choice([ONE, TWO])) for _ in range(300)]
        want = [_select_by_own_folds(n, alpha, mode, tail) for n, alpha, tail in cases]
        assert [_select_walk(n, (alpha,), mode, tail)[0] for n, alpha, tail in cases] == want
        monkeypatch.setattr(binomial_kernel, "_inv_cdf", lambda q: 50.0)
        assert sum(_own_p(n, n // 2 + 1, tail) > alpha * binomial_kernel._SCALE for n, alpha, tail in cases) >= 200
        assert [_select_walk(n, (alpha,), mode, tail)[0] for n, alpha, tail in cases] == want

    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_an_alpha_whose_half_rounds_to_zero_starts_from_hoeffdings_bound(self, mode):
        # two-sided 5e-324: alpha/2 rounds to 0, where no quantile exists, so the walk starts from Hoeffding's bound;
        # every n from the first feasible one, 1075, to 1,300, and a seeded sample up to 1e5
        assert 5e-324 / 2.0 == 0.0
        rng = random.Random(324)
        for n in (*range(1070, 1301), *sorted(rng.sample(range(1301, 10**5), 40))):
            [pick] = _select_walk(n, (5e-324,), mode, TWO)
            assert pick == _select_by_own_folds(n, 5e-324, mode, TWO), n
            assert (pick is None) == (n < 1075), n

    def test_tol_covers_what_its_derivation_needs(self):
        # _tol's docstring, times _SCALE: per unit, m's eps alpha (1 - ln alpha) term needs 36 (a scan step) and lg's
        # eps alpha term 37 (a walk's pm1 error, twice); compared exactly, and for subnormal alpha too, where eps alpha
        # alone underflows.  Every call has m >= 1, whose spare unit covers _tol's own roundings.  No term is left for
        # ulp(0): nothing compared is subnormal
        eps, scale = Fraction(math.ulp(1.0)), Fraction(binomial_kernel._SCALE)
        for alpha in (0.9, 0.05, 1e-10, 1e-300, 1.1e-308, 1e-309, 1e-312, 1e-320, 5e-324):
            for m, lg in ((1.0, 0.0), (60.0, 28.0), (2000.0, 28.0), (2000.0, 6000.0), (1200.0, 3e6), (1.0, 28.0)):
                need = scale * eps * Fraction(alpha) * (36 * Fraction(m) * Fraction(1.0 - math.log(alpha))
                                                        + 37 * Fraction(lg))
                assert Fraction(binomial_kernel._tol(alpha, m, lg)) >= need, (alpha, m, lg)

    def test_tie_breaks_to_larger_s(self):
        # alpha exactly midway between p(10,9) = 22/1024 and p(10,8) = 112/1024;
        # all quantities dyadic, so the midpoint is a true float-level tie too
        alpha = (112 / 1024 + 22 / 1024) / 2
        assert reference.select(10, alpha, False, True) == 9
        assert select_barely_significant(10, alpha).s == 9

    def test_reference_search_matches_an_exhaustive_scan(self):
        # the reference gallops and bisects; here every s in (n/2, n] is scored, dyadic alpha and the tie included
        for alpha in (0.5, 0.25, 0.125, 0.0625, 2.0 ** -10, 0.05, 0.01, 0.001, (112 / 1024 + 22 / 1024) / 2):
            target = Fraction(alpha)
            for two_sided in (True, False):
                for n in range(1, 81):
                    ps = [(s, reference.p_value(n, s, two_sided)) for s in range(n // 2 + 1, n + 1)]
                    strict = next((s for s, p in ps if p <= target), None)
                    nearest = min(ps, key=lambda sp: (abs(sp[1] - target), -sp[0]))[0]
                    assert reference.select(n, alpha, True, two_sided) == strict, (n, alpha, two_sided)
                    assert reference.select(n, alpha, False, two_sided) == nearest, (n, alpha, two_sided)

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001])
    @pytest.mark.parametrize("mode", ["nearest", "strict"])
    @pytest.mark.parametrize("two_sided", [True, False])
    def test_matches_exhaustive_exact_scan(self, alpha, mode, two_sided):
        # every n <= 900 against the reference; dyadic alpha waits for exact decisions at ties.  Either mode
        # is infeasible where the reference's strict mode finds no s (its nearest mode returns n there)
        tail = TWO if two_sided else ONE
        sel_mode = SelectionMode.NEAREST_TO_ALPHA if mode == "nearest" else SelectionMode.STRICT_AT_MOST_ALPHA
        for n in range(1, 901):
            want = reference.select(n, alpha, mode == "strict", two_sided)
            if reference.select(n, alpha, True, two_sided) is None:
                with pytest.raises(InfeasibleError):
                    select_barely_significant(n, alpha, sel_mode, tail)
            else:
                assert select_barely_significant(n, alpha, sel_mode, tail).s == want

    @given(st.integers(2, 300), st.floats(1e-4, 0.99))
    def test_nearest_lands_within_one_mass_step(self, n, alpha):
        try:
            s, p = select_barely_significant(n, alpha)
        except InfeasibleError:
            assert reference.select(n, alpha, True, True) is None
            return
        step = math.exp(log_pmf(BinomialOutcome(n, s), HALF))
        if s > 0:
            step += math.exp(log_pmf(BinomialOutcome(n, s - 1), HALF))
        assert abs(p - alpha) <= step + 1e-12

    def test_rejects_a_tail_that_is_not_the_enum(self):
        # "two" used to be walked as one-sided, giving (59, 0.0886) instead of (60, 0.0569)
        with pytest.raises(ValueError, match="TailConvention"):
            select_barely_significant(100, 0.05, tail="two")

    def test_rejects_a_mode_that_is_not_the_enum(self):
        # "strict" used to count as nearest, returning (60, 0.0569) with p > alpha
        with pytest.raises(ValueError, match="SelectionMode"):
            select_barely_significant(100, 0.05, mode="strict")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            select_barely_significant(0, 0.05)
        with pytest.raises(ValueError):
            select_barely_significant(10, 0.0)
        with pytest.raises(ValueError):
            select_barely_significant(10, 1.0)


def _full_log_tail(n, s):
    """ln P(X >= s) summed over every k = n, n-1, ..., s with the public log_pmf."""
    acc = -math.inf
    for k in range(n, s - 1, -1):
        term = log_pmf(BinomialOutcome(n, k), HALF)
        hi, lo = max(acc, term), min(acc, term)
        acc = hi if lo == -math.inf else hi + math.log1p(math.exp(lo - hi))
    return acc


class TestTailCutoff:
    @pytest.mark.parametrize("n", [20, 100, 999, 1000, 10**4, 10**5])
    def test_skipped_mass_is_below_2_to_minus_60_of_kept(self, n):
        root = math.isqrt(n)
        for s in sorted({n // 2, n // 2 + 1, n // 2 + root, n // 2 + 3 * root, n // 2 + 6 * root, n - 1, n}):
            if not n // 2 <= s <= n:
                continue
            c = _tail_start(n, s)
            if c == n:
                continue  # nothing skipped
            top = math.comb(n, c)
            kept, term = 0, top
            for k in range(c, s - 1, -1):  # exact C(n, k) downward by the integer ratio k/(n-k+1)
                kept += term
                term = term * k // (n - k + 1)
            first_skipped = top * (n - c) // (c + 1)
            # for k > c the ratio C(n, k+1)/C(n, k) is at most r = (n-c-1)/(c+2), so the
            # skipped mass is at most first_skipped / (1 - r) = first_skipped (c+2) / (2c+3-n)
            assert first_skipped * (c + 2) * 2**60 < kept * (2 * c + 3 - n), (n, s, c)

    def test_skipped_mass_is_below_2_to_minus_60_of_kept_at_every_s_for_small_n(self):
        # the exact skipped and kept masses, from suffix sums of C(n, k), at every s in [ceil(n/2), n]
        for n in range(1, 601):
            above = [0] * (n + 2)  # above[k] = sum of C(n, j) over j >= k
            for k in range(n, -1, -1):
                above[k] = above[k + 1] + math.comb(n, k)
            for s in range((n + 1) // 2, n + 1):
                c = _tail_start(n, s)
                assert above[c + 1] * 2**60 < above[s] - above[c + 1], (n, s, c)

    def test_cutoff_never_falls_as_s_grows_nor_passes_the_fixed_width_one(self):
        # a walk's list of terms, built down from its highest cut-off, holds every tail it folds only while the
        # cut-off never falls as s grows, and _march's tolerance counts at most 7 sqrt(n) + 10 walk steps: the
        # fixed-width cut-off s + ceil(6 sqrt(n)) + 10 that this one replaced bounds it
        for n in sorted({*range(1, 200), *(round(10 ** (x / 20)) for x in range(46, 141)), MAX_N}):
            lo, width = (n + 1) // 2, math.ceil(6.0 * math.sqrt(n)) + 10
            steps = {round(math.exp(x / 8)) for x in range(0, math.ceil(8 * math.log(n + 1)))}
            ss = sorted({s for s in (*range(lo, lo + 300), *(lo + d for d in steps), n) if lo <= s <= n})
            starts = [_tail_start(n, s) for s in ss]
            assert starts == sorted(starts), n
            for s, start in zip(ss, starts):
                assert s < start <= min(n, s + width) or start == s == n, (n, s, start)

    def test_p_value_bit_equal_to_full_sum(self):
        # a tail at or above n/2 is the full sum to the last bit; a one-sided tail below n/2 is the complement of
        # the tail above n - s, whose fold of every term from n down would lose up to 1e-10 where p is near 1
        rng = random.Random(20261018)
        for _ in range(200):
            n = rng.randint(1, 30000)
            tail = rng.choice([ONE, TWO])
            s = rng.randint(0, n)
            if tail is ONE and 2 * s < n:
                assert p_value(BinomialOutcome(n, s), tail) == pytest.approx(float(reference.upper_tail(n, s)),
                                                                              rel=1e-10, abs=0), (n, s)
                continue
            if tail is ONE:
                want = min(1.0, math.exp(_full_log_tail(n, s)))
            else:
                want = min(1.0, math.exp(math.log(2.0) + _full_log_tail(n, max(s, n - s))))
            assert p_value(BinomialOutcome(n, s), tail) == want, (n, s, tail)

    @pytest.mark.parametrize("s", [0, 499_000])
    def test_one_sided_p_value_far_below_half_sums_order_sqrt_n_terms(self, lgamma_calls, s):
        # the complement of the tail above n - s: 1 call at s = 0, where that tail is empty, and 7,765 at
        # s = 499,000 (12,023 with the fixed-width cut-off s + ceil(6 sqrt(n)) + 10).  Summing up to s = 0 made
        # 1,012,023; the mirror-index sum of the terms below n/2 made 12,023 at either s and read
        # 0.9999999994167044 at s = 0, and 5.8e-10 off the reference at 499,000
        got = p_value(BinomialOutcome(10**6, s), ONE)
        assert 0 < lgamma_calls() <= 8_000
        if s == 0:
            assert got == 1.0
        else:
            want = float(reference.upper_tail(10**6, s))
            assert abs(got - want) <= 2e-11 * want and got == pytest.approx(0.97730383206, abs=1e-11)

    def test_large_n_selection_sums_order_sqrt_n_terms(self, lgamma_calls):
        select_barely_significant(10**6, 0.001)
        # 6,821 calls: one list of terms from the guessed pick's cut-off down to the s below it, whose folds decide
        # the pick and give p_achieved; a walk that folded from Hoeffding's bound made 7,427, the fixed-width cut-off
        # 13,025, an O(n) loop would make ~2e6, and a second pass re-deriving p_achieved ~7,000 more
        assert 0 < lgamma_calls() <= 8_000

    def test_a_tiny_alpha_folds_the_tails_of_its_pick_and_the_s_below_it(self, log1p_calls):
        # 1,222 calls, one per term folded and one per cut-off: at 1e-300 the cut-off steps at nearly every k, so
        # s and s - 1 fold from their own (the walk that folded a certified prefix made 1,283); the fixed-width
        # cut-off made 12,085, and a walk that decided per term from its start wherever the first p was subnormal
        # 18,097
        select_barely_significant(10**6, 1e-300)
        assert 0 < log1p_calls() <= 1_500

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    @pytest.mark.parametrize("alpha", [0.05, 1e-4])
    def test_a_walk_folds_its_tail_about_once(self, log1p_calls, n, alpha):
        # the search reads p at the guess, here the strict s, and at the s below it, whose read goes on from the
        # guess's where the two share a cut-off, as here: 1.001 to 1.013 times the pick's tail terms, one log1p per
        # term and one per cut-off taken.  A walk that folded from Hoeffding's bound and again for p_achieved made
        # 2.02 to 2.04 times; a guess two steps above the strict s refolds most picks
        s, _ = select_barely_significant(n, alpha)
        calls = log1p_calls()
        assert calls <= 1.3 * (_tail_start(n, s) - s + 1), (n, alpha, calls)

    @pytest.mark.parametrize("n", [400, 1000, 10**5])
    @pytest.mark.parametrize("tail", [ONE, TWO])
    def test_a_walk_takes_each_cut_off_once(self, monkeypatch, n, tail):
        # one call gives the guess's cut-off, and one that of the s below it; the walk that also asked whether every
        # tail folds from n (true only at n <= 95) made 3, and the one that took the guess's cut-off again 4
        calls = []
        monkeypatch.setattr(binomial_kernel, "_tail_start", lambda n, s: calls.append(s) or _tail_start(n, s))
        _select_walk(n, (0.05,), SelectionMode.NEAREST_TO_ALPHA, tail)
        assert len(calls) == 2, (n, calls)

    def test_a_small_walk_builds_no_term_below_the_s_under_its_pick(self, monkeypatch):
        # (400, .001) picks 234: the float walk builds from its cut-off down to 233, and (20, .001), an exact walk,
        # builds no term at all (the float walk built k = 20 down to 17, and one that grew its list in chunks of
        # sqrt(n)/2 + 2 past Hoeffding's bound down to 16)
        stops = []

        def recorded(n, start, stop):
            stops.append(stop)
            return _log_terms(n, start, stop)

        monkeypatch.setattr(binomial_kernel, "_log_terms", recorded)
        assert select_barely_significant(400, 0.001, SelectionMode.STRICT_AT_MOST_ALPHA).s == 234
        assert min(stops) + 1 == 233
        stops.clear()
        assert select_barely_significant(20, 0.001).s == 18 and stops == []

    def test_default_sweep_computes_each_term_once_per_n(self, lgamma_calls):
        # 4,319 calls, none in the walks of the six n below 400, which decide in integers (4,681 when they walked in
        # floats): one list of terms per n serves all four alphas (4,929 from Hoeffding's bound); the fixed-width
        # cut-off made 8,075, and scoring each cell on its own 27,270
        run_sweep(SweepGrid())
        assert 0 < lgamma_calls() <= 5_500

    def test_default_sweep_folds_each_term_once_per_n(self, log1p_calls):
        # 8,046 calls (8,488 when the n below 400 walked in floats): each alpha reads p(s) and p(s - 1) on their own
        # folds, and a read goes on from the deepest read of its cut-off, which the alphas of one n, smallest first, and
        # the s below each pick mostly share.  One pass per n down to the largest alpha's break, and each pick's own
        # fold of p_achieved, made 9,614; a prefix fold and a walk for each alpha 14,953
        run_sweep(SweepGrid())
        assert 0 < log1p_calls() <= 10_000


def _own_p(n, k, tail):
    """c P(X >= k) times 2**512 as the walk decides it: from _log_upper_tail, p_value's own ln tail, but c 2**511 at
    k = (n+1)/2, n odd, exactly."""
    c = 2.0 if tail is TWO else 1.0
    if 2 * k == n + 1:
        return c * 2.0 ** 511
    return c * math.exp(binomial_kernel._log_upper_tail(n, k) + binomial_kernel._LN_SCALE)


def _select_by_own_folds(n, alpha, mode, tail):
    """_select_walk's (s, p, ln P(X >= s)), or None, by bisection on _own_p: the strict s has p(s) <= alpha < p(s-1),
    where p(n) <= alpha holds exactly, and nearest picks s or s - 1, whichever p lies nearer alpha, ties to s."""
    c = 2.0 if tail is TWO else 1.0
    if math.ldexp(c, -n) > alpha:
        return None
    a, lo, hi = alpha * binomial_kernel._SCALE, n // 2, n  # p(hi) <= alpha; lo is n/2 or has p above alpha
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _own_p(n, mid, tail) <= a else (mid, hi)
    s = hi - (mode is SelectionMode.NEAREST_TO_ALPHA and hi - 1 > n // 2
              and _own_p(n, hi - 1, tail) - a < a - _own_p(n, hi, tail))
    log_tail = binomial_kernel._log_upper_tail(n, s)
    return s, min(1.0, math.exp(math.log(c) + log_tail)), log_tail


def _select_by_bisection(n, alpha, mode, tail):
    """The selection contract on p_value alone: s* is the smallest s in (n/2, n]
    with p <= alpha, found by bisection, or None in either mode where there is none;
    nearest picks s* or s* - 1, ties to s*."""
    def p(s):
        return p_value(BinomialOutcome(n, s), tail)

    lo, hi = n // 2, n  # p(hi) <= alpha is the invariant, once checked
    if p(n) > alpha:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if p(mid) <= alpha:
            hi = mid
        else:
            lo = mid
    if mode is SelectionMode.NEAREST_TO_ALPHA and hi - 1 > n // 2:
        if abs(p(hi - 1) - alpha) < abs(p(hi) - alpha):
            return hi - 1
    return hi


class TestSelectionContract:
    def test_walk_matches_bisection_on_p_value(self):
        rng = random.Random(7)
        for _ in range(500):
            n = int(math.exp(rng.uniform(0.0, math.log(10**6))))
            alpha = math.exp(rng.uniform(math.log(1e-10), math.log(0.2)))
            mode = rng.choice(list(SelectionMode))
            tail = rng.choice([ONE, TWO])
            want = _select_by_bisection(n, alpha, mode, tail)
            if want is None:
                with pytest.raises(InfeasibleError):
                    select_barely_significant(n, alpha, mode, tail)
            else:
                assert select_barely_significant(n, alpha, mode, tail).s == want, (n, alpha, mode, tail)

    def test_nearest_is_the_strict_s_or_the_one_below(self):
        # the walk stops at the first p above alpha and picks one of its two neighbours, as _march and
        # reference.select do; a running best |p - alpha| kept its own start on a plateau of equal p
        for alpha in (0.5, 0.05, 1e-3, 1e-300, 1e-320, 1e-322, 1e-323, 5e-324):
            for tail in (ONE, TWO):
                for n in range(1, 1201):
                    strict = _select_walk(n, (alpha,), SelectionMode.STRICT_AT_MOST_ALPHA, tail)[0]
                    nearest = _select_walk(n, (alpha,), SelectionMode.NEAREST_TO_ALPHA, tail)[0]
                    assert (nearest is None) == (strict is None), (n, alpha, tail)
                    assert strict is None or strict[0] - nearest[0] in (0, 1), (n, alpha, tail, strict, nearest)

    def test_nearest_on_a_subnormal_plateau_matches_the_exact_reference(self):
        # p is 0.0 as a float from s = 2239 up (exactly .294 alpha there) and 1e-323 at 2238 (1.773 alpha):
        # the strict s is nearer alpha; the running-best walk returned its start, 2608.  The walk compares
        # each p times 2**512, where no two of them are equal
        s = select_barely_significant(2610, 5e-324, SelectionMode.NEAREST_TO_ALPHA, ONE).s
        assert s == reference.select(2610, 5e-324, False, False) == 2239

    @pytest.mark.parametrize("alpha, tail", [(1e-322, ONE), (1e-323, ONE), (5e-324, ONE), (1e-322, TWO), (1e-323, TWO)],
                             ids=lambda x: x.value if isinstance(x, TailConvention) else repr(x))
    def test_picks_at_the_smallest_alphas_match_the_exact_reference(self, alpha, tail):
        # every n from just below the first feasible one (2**-n <= alpha, n = 1070 to 1074) to 60 above it, and a
        # seeded sample up to 2000.  When the walk compared float p, which rounds to a multiple of 5e-324 here, 7,
        # 73 and 124 strict picks one-sided (5, 76 two-sided) of the 930 or so feasible n <= 2000 differed.  Nearest
        # picks are checked where the reference's strict pick exists (its nearest mode returns n where none does)
        first = next(n for n in range(1, 2000) if reference.select(n, alpha, True, tail is TWO) is not None)
        rng = random.Random(f"{alpha}/{tail.value}")
        for n in sorted({*range(first - 5, first + 61), *rng.sample(range(first + 61, 2001), 120)}):
            strict = reference.select(n, alpha, True, tail is TWO)
            [pick] = _select_walk(n, (alpha,), SelectionMode.STRICT_AT_MOST_ALPHA, tail)
            assert (pick and pick[0]) == strict, (n, alpha, tail)
            if strict is not None:
                [pick] = _select_walk(n, (alpha,), SelectionMode.NEAREST_TO_ALPHA, tail)
                assert pick[0] == reference.select(n, alpha, False, tail is TWO), (n, alpha, tail)

    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_a_tie_at_s_equal_n_is_feasible(self, mode):
        # p(n) = c 2**-n = alpha exactly: min_attainable_p returns it, and the walk, which tests p(n) <= alpha exactly,
        # picks n, and calls n - 1 infeasible.  p_achieved is p_value's c 2**-n, exact below n = 400 (p_value's float
        # fold of the one term, exp(ln c - n ln 2), rounded above alpha here)
        for n, alpha, tail in ((3, 0.25, TWO), (4, 0.125, TWO), (3, 0.125, ONE)):
            assert min_attainable_p(n, tail) == alpha < min_attainable_p(n - 1, tail)
            assert reference.select(n, alpha, True, tail is TWO) == n
            s, p = select_barely_significant(n, alpha, mode, tail)
            assert (s, p) == (n, alpha) and p == p_value(BinomialOutcome(n, n), tail), (n, alpha, tail)
            with pytest.raises(InfeasibleError):
                select_barely_significant(n - 1, alpha, mode, tail)

    def test_a_tie_at_one_half_picks_n_plus_one_over_two_at_every_odd_n(self):
        # P(X >= (n+1)/2) = 1/2 exactly at odd n, by symmetry, so the strict one-sided pick at alpha = .5 is (n+1)/2:
        # in the one-alpha walk, in the multi-alpha pass, and in the scan.  A folded half lands on either side of 1/2
        strict = SelectionMode.STRICT_AT_MOST_ALPHA
        want = {n: (n + 1) // 2 for n in range(1, 2002, 2)}
        assert {n: _select_walk(n, (0.5,), strict, ONE)[0][0] for n in want} == want
        assert {n: _select_walk(n, (0.5, 0.05), strict, ONE)[0][0] for n in want} == want
        assert {n: s for n, s, _ in _march(0.5, strict, ONE, 2001) if n % 2} == want

    def test_the_dyadic_grid_matches_the_exact_reference_in_strict_mode(self):
        # every strict pick at the dyadic alphas 2**-e, both tails, n < 600, where exact p lands on alpha at the ties,
        # against the exact strict s: the smallest s > n/2 with c sum(C(n, k), k >= s) <= 2**(n-e), in integers, as
        # reference.select decides it for n <= 2000 (its Fraction bisections take three times as long as this test).
        # One pass per n and tail picks for every alpha
        exps = (1, 2, 3, 4, 10)
        for n in range(1, 600):
            tails, term = [], 1  # sum(C(n, k), k >= s) for s = n, n-1, ..., n//2 + 1, and C(n, s)
            for s in range(n, n // 2, -1):
                tails.append(term + (tails[-1] if tails else 0))
                term = term * s // (n - s + 1)
            for tail, log_c in ((ONE, 0), (TWO, 1)):
                picks = _select_walk(n, tuple(2.0 ** -e for e in exps), SelectionMode.STRICT_AT_MOST_ALPHA, tail)
                for e, pick in zip(exps, picks):
                    i = bisect.bisect_right(tails, (1 << n) >> (e + log_c))  # how many s attain alpha
                    assert (pick and pick[0]) == (n + 1 - i if i else None), (n, e, tail)

    def test_a_tie_at_one_half_picks_the_exact_strict_s(self):
        # P(X >= 2) = 4/8 = .5 at n = 3: the strict s is 2, and p_achieved is exactly .5 (the float fold that p_value
        # took before the exact route read 0.5000000000000004)
        assert reference.select(3, 0.5, True, False) == 2
        s, p = select_barely_significant(3, 0.5, SelectionMode.STRICT_AT_MOST_ALPHA, ONE)
        assert (s, p) == (2, 0.5) and p == p_value(BinomialOutcome(3, 2), ONE)


def _exact_tails(n):
    """{k: sum of C(n, j) over j >= k} for every k in [0, n + 1], from suffix sums."""
    tails = {n + 1: 0}
    for k in range(n, -1, -1):
        tails[k] = tails[k + 1] + math.comb(n, k)
    return tails


class TestExactWalk:
    """Below n = 400 every pick, p and ln tail is exact: integer tails T, decided against alpha's own ratio."""

    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_every_exact_tail_p_picks_its_own_s(self, mode):
        # the 1,796 cells, n <= 60 and both tails, whose alpha is an exact tail p, c T(k) / 2**n for n/2 < k <= n,
        # and a float below 1: p(k) = alpha, so the strict s is k, and nearest mode keeps it (its margin is 0).  The
        # float walk missed the exact s in 592 of them, as at (10, .0546875, one): 9 for 8.  One pass per n and one
        # call per alpha
        cells = 0
        for n in range(1, 61):
            tails = _exact_tails(n)
            for tail, c in ((ONE, 1), (TWO, 2)):
                ks = [k for k in range(n // 2 + 1, n + 1)
                      if Fraction(c * tails[k], 2 ** n) < 1 and Fraction(float(Fraction(c * tails[k], 2 ** n)))
                      == Fraction(c * tails[k], 2 ** n)]
                alphas = tuple(c * tails[k] / 2 ** n for k in ks)
                want = [(k, alpha, math.log(tails[k] / 2 ** n)) for k, alpha in zip(ks, alphas)]
                assert _select_walk(n, alphas, mode, tail) == want, (n, tail)
                assert [pick for alpha in alphas for pick in _select_walk(n, (alpha,), mode, tail)] == want, (n, tail)
                cells += len(ks)
        assert cells == 1796
        assert select_barely_significant(10, 0.0546875, SelectionMode.STRICT_AT_MOST_ALPHA, ONE) == (8, 0.0546875)

    @pytest.mark.parametrize("first", [1, 2], ids=["odd-n", "even-n"])
    @pytest.mark.parametrize("tail", [ONE, TWO], ids=lambda t: t.value)
    def test_p_value_is_exactly_rounded_below_400(self, tail, first):
        # every (n, s) with n < 400, odd and even n apart: c T(s) / 2**n rounded once, clamped to 1 where the two
        # tails overlap
        c = 2 if tail is TWO else 1
        for n in range(first, 400, 2):
            tails = _exact_tails(n)
            hi = (lambda s: s) if tail is ONE else (lambda s: max(s, n - s))
            want = [min(1.0, c * tails[hi(s)] / 2 ** n) for s in range(n + 1)]
            assert [p_value(BinomialOutcome(n, s), tail) for s in range(n + 1)] == want, n

    @pytest.mark.parametrize("tail", [ONE, TWO], ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_walk_matches_exact_tails_below_400(self, mode, tail):
        # every n < 400, in one pass each, at the nine alphas and 1e-30 and at every float below 1 that is or borders a
        # lattice point: each p(k), k > n/2, and each midpoint (p(k-1) + p(k))/2, rounded, with its two float
        # neighbours.  Where the rounding is exact, p(k) = alpha is a strict tie and the midpoint a nearest tie, ties to
        # the strict s; elsewhere the margins are one ulp thin.  The rule, in exact integer margins (alpha = num/den,
        # times den 2**n): the strict s is the smallest k > n/2 with p(k) <= alpha, and nearest takes s - 1 > n/2 where
        # p(s-1) - alpha < alpha - p(s)
        c, nearest = (2 if tail is TWO else 1), mode is SelectionMode.NEAREST_TO_ALPHA
        for n in range(1, 400):
            tails, half, unit = _exact_tails(n), n // 2, 1 << n
            lattice = {c * tails[k] / unit for k in range(half + 1, n + 1)}
            lattice |= {c * (tails[k - 1] + tails[k]) / (2 * unit) for k in range(half + 1, n + 1)}
            lattice |= {math.nextafter(a, d) for a in lattice for d in (0.0, 1.0)}
            alphas = tuple(sorted({*NINE_ALPHAS, 1e-30, *(a for a in lattice if 0.0 < a < 1.0)}, reverse=True))
            want, s = [], half + 1
            for alpha in alphas:  # decreasing, so the strict s never falls
                num, den = alpha.as_integer_ratio()
                scaled = num << n  # alpha den 2**n, against p(k) den 2**n = c T(k) den
                while s <= n and c * tails[s] * den > scaled:
                    s += 1
                if s > n:
                    want.append(None)
                    continue
                near = nearest and s - 1 > half and c * tails[s - 1] * den - scaled < scaled - c * tails[s] * den
                pick = s - 1 if near else s
                want.append((pick, c * tails[pick] / unit, math.log(tails[pick] / unit)))
            assert _select_walk(n, alphas, mode, tail) == want, n
        if tail is ONE:  # p(2) - .3125 = .3125 - p(3) = .1875 at n = 3: the nearest tie goes to the strict s
            assert _select_walk(3, (0.3125,), mode, tail) == [(3, 0.125, math.log(0.125))]

    def test_the_exact_route_ends_below_400(self, monkeypatch):
        # at n = 400 an exactly rounded p would change the default sweep's (.05, 400) print, 0.0510402231292, which the
        # benchmark's frozen CSV holds, to ...291: a cut-over past 400 fails here.  n = 399 builds no log term,
        # n = 400 does
        built = []

        def recorded(n, start, stop):
            built.append(n)
            return _log_terms(n, start, stop)

        monkeypatch.setattr(binomial_kernel, "_log_terms", recorded)
        [(s, p, _)] = _select_walk(400, (0.05,), SelectionMode.NEAREST_TO_ALPHA, TWO)
        exact = 2 * _exact_tails(400)[s] / 2 ** 400
        assert (s, f"{p:.12g}", f"{exact:.12g}") == (220, "0.0510402231292", "0.0510402231291")
        assert p == p_value(BinomialOutcome(400, s), TWO) != exact
        _select_walk(399, (0.05,), SelectionMode.NEAREST_TO_ALPHA, TWO)
        assert set(built) == {400}


class TestTrialCountLimit:
    def test_tail_routines_reject_n_above_limit(self):
        for call in (lambda n: p_value(BinomialOutcome(n, n)),
                     lambda n: min_attainable_p(n),
                     lambda n: select_barely_significant(n, 0.05)):
            with pytest.raises(ValueError, match=f"at most {MAX_N}"):
                call(MAX_N + 1)
        assert min_attainable_p(MAX_N, ONE) == 0.0  # 2**-1e7 underflows; the limit itself is accepted

    def test_posterior_takes_any_n(self):
        report = posterior_h0(BinomialOutcome(10**12, 5 * 10**11))
        assert 0.0 < report.posterior_h0 < 1.0

    def test_sweep_and_crossing_check_n_before_scoring(self):
        with pytest.raises(ValueError, match=f"at most {MAX_N}"):
            SweepGrid(n_values=(20, MAX_N + 1))
        # without the up-front check the forward scan would find the
        # crossing at n = 82 and return, never reaching n_max
        with pytest.raises(ValueError, match=f"at most {MAX_N}"):
            find_crossing(0.05, 0.5, n_max=MAX_N + 1)
