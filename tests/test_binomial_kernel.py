import math
import random

import pytest
from hypothesis import given, strategies as st

from threshold_lab import (
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
    select_barely_significant,
)
from threshold_lab.binomial_kernel import MAX_N, _select_walk, _tail_start, _walk_start

import oracles

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
        assert math.exp(got) == pytest.approx(float(oracles.exact_pmf(100, 50)), rel=1e-13)

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
        assert got == pytest.approx(float(oracles.exact_p_value(100, s)), rel=1e-12)

    def test_reflected_success_count_gives_same_two_sided_p(self):
        assert p_value(BinomialOutcome(100, 40), TWO) == p_value(BinomialOutcome(100, 60), TWO)

    def test_even_n_midpoint_clamps_to_one(self):
        # both tails overlap at s = n/2: the raw sum is 1 + pmf(n/2)
        assert p_value(BinomialOutcome(10, 5), TWO) == 1.0

    @given(st.integers(1, 120), st.data())
    def test_one_sided_matches_exact_tail(self, n, data):
        s = data.draw(st.integers(0, n))
        got = p_value(BinomialOutcome(n, s), ONE)
        assert got == pytest.approx(float(oracles.exact_upper_tail(n, s)), rel=1e-12)

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
        assert p == pytest.approx(float(oracles.exact_p_value(100, 63)), rel=1e-12)
        assert p == pytest.approx(0.012, abs=1e-4)

    def test_strict_infeasible_at_tiny_n(self):
        with pytest.raises(InfeasibleError):
            select_barely_significant(4, 0.05, SelectionMode.STRICT_AT_MOST_ALPHA)

    def test_nearest_never_infeasible(self):
        s, p = select_barely_significant(4, 0.05)
        assert s == 4 and p == pytest.approx(0.125, rel=1e-12)

    def test_p_achieved_rederives_bit_equal(self):
        # p_achieved is folded from the walk's own terms; it must equal a fresh p_value bit for bit
        rng = random.Random(1018)
        alphas = [math.exp(rng.uniform(math.log(1e-12), math.log(0.9))) for _ in range(2100)]
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

    def test_walk_terms_are_log_pmf_bit_for_bit(self):
        rng = random.Random(20261018)
        for _ in range(60):
            n = int(math.exp(rng.uniform(0.0, math.log(10**6))))
            alpha = math.exp(rng.uniform(math.log(1e-12), math.log(0.9)))
            tail = rng.choice([ONE, TWO])
            terms = []
            s = _select_walk(n, alpha, SelectionMode.NEAREST_TO_ALPHA, tail, terms)
            top = _walk_start(n, alpha, tail)
            assert terms and top - len(terms) + 1 <= s
            for i in sorted({0, len(terms) - 1, *(rng.randrange(len(terms)) for _ in range(20))}):
                assert top - i > n / 2
                assert terms[i] == log_pmf(BinomialOutcome(n, top - i), HALF), (n, top - i)

    def test_tie_breaks_to_larger_s(self):
        # alpha exactly midway between p(10,9) = 22/1024 and p(10,8) = 112/1024;
        # all quantities dyadic, so the midpoint is a true float-level tie too
        alpha = (112 / 1024 + 22 / 1024) / 2
        assert oracles.exact_select(10, alpha, "nearest") == 9
        assert select_barely_significant(10, alpha).s == 9

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.001])
    @pytest.mark.parametrize("mode", ["nearest", "strict"])
    @pytest.mark.parametrize("two_sided", [True, False])
    def test_matches_exhaustive_exact_scan(self, alpha, mode, two_sided):
        tail = TWO if two_sided else ONE
        sel_mode = SelectionMode.NEAREST_TO_ALPHA if mode == "nearest" else SelectionMode.STRICT_AT_MOST_ALPHA
        for n in (1, 2, 5, 9, 14, 19, 23, 27, 30):
            want = oracles.exact_select(n, alpha, mode, two_sided)
            if want is None:
                with pytest.raises(InfeasibleError):
                    select_barely_significant(n, alpha, sel_mode, tail)
            else:
                assert select_barely_significant(n, alpha, sel_mode, tail).s == want

    @given(st.integers(2, 300), st.floats(1e-4, 0.99))
    def test_nearest_lands_within_one_mass_step(self, n, alpha):
        s, p = select_barely_significant(n, alpha)
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

    def test_p_value_bit_equal_to_full_sum(self):
        rng = random.Random(20261018)
        for _ in range(200):
            n = rng.randint(1, 30000)
            tail = rng.choice([ONE, TWO])
            s = rng.randint(0, n)
            if tail is ONE:
                want = min(1.0, math.exp(_full_log_tail(n, s)))
            else:
                want = min(1.0, math.exp(math.log(2.0) + _full_log_tail(n, max(s, n - s))))
            assert p_value(BinomialOutcome(n, s), tail) == want, (n, s, tail)

    def test_large_n_selection_sums_order_sqrt_n_terms(self, monkeypatch):
        calls = 0
        lgamma = math.lgamma

        def counted(x):
            nonlocal calls
            calls += 1
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", counted)
        select_barely_significant(10**6, 0.001)
        # 12,634 calls: the walk from the cut-off above its Chernoff bound, whose
        # terms also give p_achieved; an O(n) loop would make ~2e6, and a second
        # pass re-deriving p_achieved through p_value another ~12,000
        assert 0 < calls <= 14_000


def _select_by_bisection(n, alpha, mode, tail):
    """The selection contract on p_value alone: s* is the smallest s in (n/2, n]
    with p <= alpha, found by bisection; nearest picks s* or s* - 1, ties to s*."""
    def p(s):
        return p_value(BinomialOutcome(n, s), tail)

    lo, hi = n // 2, n  # p(hi) <= alpha is the invariant, once checked
    if p(n) > alpha:
        if mode is SelectionMode.STRICT_AT_MOST_ALPHA:
            return None
        return n
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
