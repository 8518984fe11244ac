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
    _shift,
    _tail_start,
    _walk_start,
)

import oracles
import reference

TWO = TailConvention.TWO_SIDED_SYMMETRIC
ONE = TailConvention.ONE_SIDED_UPPER
HALF = BinomialModel(0.5)


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
        # p(n) = c 2**-n is a float, or underflows to 0.0; p_value's fold of the one term k = n, exp(ln c - n ln 2),
        # may round above it, as at (3, one): 0.12500000000000003
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
        # it, the walk reads one list filled from that alpha's higher start: the same (s, p)
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
            # the smaller alpha may find no s: its walk still fills the list, from k = n down
            assert _select_walk(n, (alpha, alpha * 1e-3), mode, tail)[0] == pick, (n, alpha, mode, tail)
            checked += 1
        assert checked >= 500

    def test_walk_terms_are_log_pmf_bit_for_bit(self, monkeypatch):
        # the list the walk reads, for one alpha or from a smaller alpha's higher top, holds log_pmf's terms
        runs = []

        def recorded(n, start, stop):
            runs.append((start, stop, _log_terms(n, start, stop)))
            return runs[-1][2]

        monkeypatch.setattr(binomial_kernel, "_log_terms", recorded)
        rng = random.Random(20261018)
        for _ in range(60):
            n = int(math.exp(rng.uniform(0.0, math.log(10**6))))
            alpha = math.exp(rng.uniform(math.log(1e-12), math.log(0.9)))
            tail = rng.choice([ONE, TWO])
            for alphas in ((alpha,), (alpha, alpha * 1e-3)):
                runs.clear()
                top = _walk_start(n, alphas[-1], _shift(tail))[1]
                pick = _select_walk(n, alphas, SelectionMode.NEAREST_TO_ALPHA, tail)[0]
                s = n if pick is None else pick[0]  # the walk read the term k = n before it gave up
                # the runs tile the list from top down, one after the other
                assert runs and runs[0][0] == top and all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
                terms = [t for _, _, run in runs for t in run]
                assert top - len(terms) + 1 <= s
                for i in sorted({0, len(terms) - 1, *(rng.randrange(len(terms)) for _ in range(20))}):
                    assert top - i > n / 2
                    assert terms[i] == log_pmf(BinomialOutcome(n, top - i), HALF), (n, top - i)

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
        # every n <= 400, with and without a certified prefix: none where c reaches n (small n,
        # tiny alpha); the large-n test below reaches subnormal p, which both walks compare times 2**512
        for alpha in (0.9, 0.5, 0.25, 0.05, 1e-3, 1e-10, 1e-300, 1e-310, 5e-324):
            for n in range(1, 401):
                self._check_against_reference(n, alpha, mode, tail)

    def test_walk_matches_the_per_term_reference_at_large_n(self):
        # three cases in ten have alpha 1e-300 or below; above n = 1,400 or so their walks start at a
        # subnormal p, and at 1e-310 and 5e-324 they decide where float p is a plateau of equal subnormals,
        # distinct times 2**512
        rng = random.Random(15)
        for _ in range(500):
            n = int(math.exp(rng.uniform(0.0, math.log(10**6))))
            alpha = rng.choice([math.exp(rng.uniform(math.log(1e-12), math.log(0.9))),
                                rng.choice((0.9, 0.5, 1e-300, 1e-310, 5e-324))])
            self._check_against_reference(n, alpha, rng.choice(list(SelectionMode)), rng.choice([ONE, TWO]))

    def test_a_start_below_the_answer_is_not_folded_as_certified(self, monkeypatch):
        # Hoeffding's c keeps p(c) near alpha/2 or below, so only a start that is no bound reaches the
        # p(c) <= alpha check: here c = n/2 + 1, where p(c) is near 1, and the walk must decide per term;
        # its picks lie above c, so their tails pass the list's top and come from _log_upper_tail
        cases = [(n, (alpha,), mode, tail) for n in (200, 1000, 20000) for alpha in (0.05, 1e-3, 1e-8)
                 for mode in SelectionMode for tail in (ONE, TWO)]
        want = [_select_walk(*case) for case in cases]

        def low_start(n, alpha, shift):
            return n // 2 + 1, _tail_start(n, n // 2 + 1)

        monkeypatch.setattr(binomial_kernel, "_walk_start", low_start)
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
        # thin margins: a larger alpha set to the pass's own p at its break, or at the index before it, leaves
        # alpha - p(s) at 0, and halfway between the two leaves nearest mode's two margins equal; there the
        # pass must hand that alpha over to a one-alpha call, and nowhere else.  p is the pass's scaled fold,
        # c exp(ln tail + 512 ln 2), and alpha its exact quotient by _SCALE
        handed = []

        def spy(n, alphas, *args):
            handed.append(alphas)
            return _select_walk(n, alphas, *args)

        monkeypatch.setattr(binomial_kernel, "_select_walk", spy)
        small, shift, scale = DEFAULT_ALPHAS[-1], _shift(tail), binomial_kernel._SCALE
        c = 2.0 if tail is TWO else 1.0

        def scaled_ps(n):
            top = _walk_start(n, small, shift)[1]
            return top, [c * math.exp(acc + binomial_kernel._LN_SCALE)
                         for acc in itertools.accumulate(_log_terms(n, top, n // 2), _fold)]

        for n in DEFAULT_N_VALUES:
            top, ps = scaled_ps(n)
            for big in DEFAULT_ALPHAS[:-1]:
                i = next(i for i, p in enumerate(ps) if p > big * scale)
                # at 0.9 _tol above p(s) the pass hands over, at 1.1 _tol it does not: the bound's 28 for the
                # shifted exps is 26% to 41% of it at n = 20, so a pass without that share would keep both there
                tol = binomial_kernel._tol(ps[i - 1] / scale, top - n // 2, 28.0)
                for alpha, thin in ((ps[i] / scale, True), (ps[i - 1] / scale, True),
                                    ((ps[i - 1] + ps[i]) / 2 / scale, mode is SelectionMode.NEAREST_TO_ALPHA),
                                    ((ps[i - 1] + 0.9 * tol) / scale, True), ((ps[i - 1] + 1.1 * tol) / scale, False)):
                    want = [_select_walk(n, (alpha,), mode, tail)[0], one[n, small]]
                    handed.clear()
                    assert _select_walk(n, (alpha, small), mode, tail) == want, (n, alpha)
                    assert handed == ([(alpha,)] if thin else []), (n, alpha)
        # subnormal alphas, where eps alpha underflows: times _SCALE it stays normal.  A larger alpha at 0.9 _tol
        # above the pass's p(s) must hand over, one at 1.1 _tol must not
        small = 1e-312
        for n in (1400, 1500, 1800):
            top, ps = scaled_ps(n)
            i = max(i for i, p in enumerate(ps) if p <= 1.1e-308 * scale)  # the last p below 2**-1022: 1.6e-309 or more
            tol = binomial_kernel._tol(ps[i] / scale, top - n // 2, 28.0)
            for share, thin in ((0.9, True), (1.1, False)):
                alpha = (ps[i] + share * tol) / scale  # subnormal, so alpha - p(s) is share * tol to an ulp(0) _SCALE
                assert alpha < 2.0 ** -1022
                want = [_select_walk(n, (alpha,), mode, tail)[0], _select_walk(n, (small,), mode, tail)[0]]
                handed.clear()
                assert _select_walk(n, (alpha, small), mode, tail) == want, (n, alpha)
                assert handed == ([(alpha,)] if thin else []), (n, alpha)

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

    @staticmethod
    def _check_against_reference(n, alpha, mode, tail):
        want = oracles.reference_walk(n, alpha, mode.value, tail is TWO)  # None where no s attains alpha
        [pick] = _select_walk(n, (alpha,), mode, tail)
        assert (pick and pick[:2]) == want, (n, alpha, mode, tail)

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


def _fold(acc, term):
    """One step of the kernel's tail fold, as _log_sum and the selection walk take it."""
    return term + math.log1p(math.exp(acc - term)) if term > acc else acc + math.log1p(math.exp(term - acc))


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
        # _select_walk's fallback to _log_upper_tail stays unreachable only while the cut-off never falls as s
        # grows, and _march's tolerance counts at most 7 sqrt(n) + 10 walk steps: the fixed-width cut-off
        # s + ceil(6 sqrt(n)) + 10 that this one replaced bounds it
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
        # 7,427 calls: the walk from the cut-off above its Chernoff bound, whose
        # terms (grown in chunks past the pick) also give p_achieved; the fixed-width
        # cut-off made 13,025, an O(n) loop would make ~2e6, and a second pass
        # re-deriving p_achieved ~7,000 more
        assert 0 < lgamma_calls() <= 8_000

    def test_a_tiny_alpha_folds_its_certified_prefix_in_one_pass(self, log1p_calls):
        # 1,283 calls, one per term folded and one per cut-off (6,930 at alpha .001); the fixed-width cut-off
        # made 12,085, and a walk that decided per term from its start wherever the first p was subnormal 18,097
        select_barely_significant(10**6, 1e-300)
        assert 0 < log1p_calls() <= 1_500

    def test_default_sweep_computes_each_term_once_per_n(self, lgamma_calls):
        # 4,929 calls: one list of terms per n serves all four alphas; the fixed-width cut-off
        # made 8,075, and scoring each cell on its own 27,270
        run_sweep(SweepGrid())
        assert 0 < lgamma_calls() <= 5_500

    def test_default_sweep_folds_each_term_once_per_n(self, log1p_calls):
        # 9,614 calls: one pass per n folds the terms down to the largest alpha's break, and each pick
        # folds its own p_achieved; a prefix fold and a walk for each alpha made 14,953
        run_sweep(SweepGrid())
        assert 0 < log1p_calls() <= 10_000


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
        # picks n, and calls n - 1 infeasible.  p_achieved is p_value's fold of the one term, exp(ln c - n ln 2),
        # which rounds above alpha here
        for n, alpha, tail in ((3, 0.25, TWO), (4, 0.125, TWO), (3, 0.125, ONE)):
            assert min_attainable_p(n, tail) == alpha < min_attainable_p(n - 1, tail)
            assert reference.select(n, alpha, True, tail is TWO) == n
            s, p = select_barely_significant(n, alpha, mode, tail)
            assert (s, p) == (n, p_value(BinomialOutcome(n, n), tail)), (n, alpha, tail)
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
        # One pass per n and tail picks for every alpha; the larger ones' thin margins hand over to one-alpha walks
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
        # P(X >= 2) = 4/8 = .5 at n = 3: the strict s is 2.  The walk holds that tail at .5 times 2**512 exactly, so
        # it picks 2, while p_achieved, p_value's own fold, rounds above .5: at an exact tie a strict pick's float p
        # may exceed alpha
        assert reference.select(3, 0.5, True, False) == 2
        s, p = select_barely_significant(3, 0.5, SelectionMode.STRICT_AT_MOST_ALPHA, ONE)
        assert (s, p) == (2, 0.5000000000000004) and p == p_value(BinomialOutcome(3, 2), ONE)


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
