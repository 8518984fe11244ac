import collections
import io
import json
import math
import random
import time
import tracemalloc

import pytest

from threshold_lab import (
    DEFAULT_ALPHAS,
    DEFAULT_N_VALUES,
    BetaPrior,
    BinomialOutcome,
    InfeasibleError,
    JitterViolation,
    SelectionMode,
    SweepGrid,
    SweepRow,
    TailConvention,
    emit,
    evidence_at_threshold,
    find_crossing,
    jitter_report,
    min_attainable_p,
    p_value,
    parse_csv,
    parse_json,
    run_sweep,
)

from threshold_lab import binomial_kernel, sweep_report
from threshold_lab.bayes_evidence import _scorer
from threshold_lab.binomial_kernel import _log_term, _march, _select_walk

import reference
from check import EXPECTED_DIR, check
from workloads import CROSSING_ALPHAS, CROSSING_LEVELS


def feasible(n, alpha, tail):
    """The walk's one feasibility rule: p(n) = c 2**-n <= alpha, c = 2 two-sided, min_attainable_p's exact value."""
    return min_attainable_p(n, tail) <= alpha

# Brute-force forward-scan answers (every n, exact reference) for the 18
# (alpha, level) pairs: the benchmark's expected crossings.
CROSSINGS = json.loads((EXPECTED_DIR / "crossings.json").read_text())["crossings"]


def test_expected_crossings_cover_every_workload_pair():
    # test_matches_brute_force_oracle runs one case per entry: a lost entry would drop its case unseen
    pairs = sorted((c["alpha"], c["level"]) for c in CROSSINGS)
    assert pairs == sorted((a, lv) for a in CROSSING_ALPHAS for lv in CROSSING_LEVELS)
    for c in CROSSINGS:
        assert isinstance(c["n"], int)
        assert c["min_gap"] > 0  # no answer rests on a float tie


def test_expected_sweep_passes_the_reference_check(expected):
    # the CLI tests compare bytes with this file, so it must itself be right row by row
    assert check(["sweep", "--mode", "nearest"], 0, expected("default_sweep.csv")) is None


def csv_text(rows):
    buf = io.StringIO()
    emit(rows, "csv", buf)
    return buf.getvalue()


def json_row(**fields):
    """A one-row sweep JSON text: a valid row with `fields` replaced."""
    row = {"alpha": 0.05, "n": 20, "s_selected": 15, "p_achieved": 0.04, "log_bf01": -1.1,
           "posterior_h0": 0.2, "mode": "nearest", "tail": "two"}
    return json.dumps([{**row, **fields}])


def make_row(alpha, n, posterior):
    return SweepRow(alpha, n, 1, 0.05, 0.0, posterior, "nearest", "two")


class TestSweepGrid:
    def test_defaults(self):
        grid = SweepGrid()
        assert grid.n_values == DEFAULT_N_VALUES
        assert len(grid.n_values) == 15
        assert grid.n_values[0] == 20 and grid.n_values[-1] == 10000
        assert grid.alphas == (0.05, 0.01, 0.001, 0.0001)

    def test_accepts_lists_and_freezes_them(self):
        grid = SweepGrid(n_values=[10, 20], alphas=[0.1, 0.05])
        assert grid.n_values == (10, 20)
        assert grid.alphas == (0.1, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(n_values=())
        with pytest.raises(ValueError):
            SweepGrid(n_values=(20, 20))
        with pytest.raises(ValueError):
            SweepGrid(n_values=(40, 20))
        with pytest.raises(ValueError):
            SweepGrid(alphas=(0.01, 0.05))
        with pytest.raises(ValueError):
            SweepGrid(alphas=(0.05, 0.0))
        with pytest.raises(ValueError):
            SweepGrid(mode="nearest")
        with pytest.raises(ValueError):
            SweepGrid(prior=(1.0, 1.0))

    def test_rejects_empty_alphas(self):
        with pytest.raises(ValueError, match="alphas must be non-empty"):
            SweepGrid(alphas=())


class TestRunSweep:
    def test_row_count_and_order(self, default_rows):
        assert len(default_rows) == 60
        expected = [(a, n) for a in DEFAULT_ALPHAS for n in DEFAULT_N_VALUES]
        assert [(r.alpha, r.n) for r in default_rows] == expected

    def test_every_default_cell_is_feasible(self, default_rows):
        assert all(r.feasible for r in default_rows)

    def test_p_achieved_rederives_bit_equal(self, default_rows):
        for r in default_rows:
            assert r.p_achieved == p_value(
                BinomialOutcome(r.n, r.s_selected), TailConvention(r.tail)
            )

    def test_cells_match_independent_pipeline(self, default_rows):
        # every default cell against the reference: exact rationals to n = 2000, 60 digits above
        for r in default_rows:
            s = reference.select(r.n, r.alpha, False, True)
            assert r.s_selected == s
            want = reference.evidence(r.n, s)["posterior_h0"]
            assert r.posterior_h0 == pytest.approx(float(want), rel=1e-9)

    def test_rows_equal_per_cell_scoring_bit_for_bit(self):
        # one term list per n serves every alpha; each row must still be the cell scored on its own
        rng = random.Random(1515)
        pool = (0.5, 0.2, 0.05, 0.01, 0.001, 1e-4, 1e-6, 1e-10)
        combos = [(m, t, prior) for m in SelectionMode for t in TailConvention
                  for prior in (BetaPrior(1.0, 1.0), BetaPrior(2.0, 3.0))]
        for i in range(48):
            mode, tail, prior = combos[i % len(combos)]
            ns = sorted({int(math.exp(rng.uniform(0.0, math.log(1e5)))) for _ in range(rng.randint(3, 7))})
            alphas = {1e-10, *rng.sample(pool, rng.randint(1, 4))}
            if i % 3 == 0:
                alphas.add(math.exp(rng.uniform(math.log(1e-8), math.log(0.3))))
            grid = SweepGrid(tuple(ns), tuple(sorted(alphas, reverse=True)), mode, tail, prior)
            want = []
            for alpha in grid.alphas:
                for n in grid.n_values:
                    if not feasible(n, alpha, tail):
                        with pytest.raises(InfeasibleError):
                            evidence_at_threshold(n, alpha, mode, tail, prior)
                        want.append(SweepRow(alpha, n, None, None, None, None, mode.value, tail.value))
                        continue
                    s, p, report = evidence_at_threshold(n, alpha, mode, tail, prior)
                    want.append(SweepRow(alpha, n, s, p, report.log_l0 - report.log_l1, report.posterior_h0,
                                         mode.value, tail.value))
            assert [repr(r) for r in run_sweep(grid)] == [repr(r) for r in want], grid

    def test_single_cell_grid_composes(self):
        rows = run_sweep(SweepGrid(n_values=(20,), alphas=(0.05,)))
        got = evidence_at_threshold(20, 0.05)
        assert len(rows) == 1
        assert rows[0].s_selected == got.s
        assert rows[0].p_achieved == got.p_achieved
        assert rows[0].posterior_h0 == got.report.posterior_h0

    def test_cell_agrees_with_evidence_at_threshold(self, default_rows):
        row = next(r for r in default_rows if r.alpha == 0.05 and r.n == 100)
        got = evidence_at_threshold(100, 0.05)
        assert row.s_selected == got.s == 60
        assert row.p_achieved == got.p_achieved
        assert row.posterior_h0 == got.report.posterior_h0
        assert row.log_bf01 == got.report.log_l0 - got.report.log_l1

    def test_infeasible_cells_keep_their_place_marked(self):
        rows = run_sweep(SweepGrid(n_values=(4, 6, 10, 20), alphas=(0.0001,)))
        assert [r.n for r in rows] == [4, 6, 10, 20]
        assert [r.feasible for r in rows] == [False, False, False, True]
        for r in rows[:3]:
            assert (r.s_selected, r.p_achieved, r.log_bf01, r.posterior_h0) == (None,) * 4
            assert r.mode == "nearest" and r.tail == "two"

    def test_feasibility_is_left_to_the_walk(self, monkeypatch):
        # an empty row is the walk's InfeasibleError; the sweep takes no min_attainable_p of its own
        calls = []

        def spy(*args):
            calls.append(args)
            return min_attainable_p(*args)

        monkeypatch.setattr(binomial_kernel, "min_attainable_p", spy)
        monkeypatch.setattr(sweep_report, "min_attainable_p", spy, raising=False)
        run_sweep(SweepGrid())
        assert calls == []
        rows = run_sweep(SweepGrid(n_values=(4, 20), alphas=(0.05,)))
        assert [r.feasible for r in rows] == [False, True] and calls == []  # the walk's None has no message

    def test_one_walk_call_per_n(self, monkeypatch):
        # the walk picks for every alpha of an n at once: 15 calls on the default grid, not 15 x 4
        calls = []

        def spy(n, alphas, *args):
            calls.append((n, alphas))
            return _select_walk(n, alphas, *args)

        monkeypatch.setattr(sweep_report, "_select_walk", spy)
        grid = SweepGrid()
        run_sweep(grid)
        assert calls == [(n, grid.alphas) for n in grid.n_values]

    def test_strict_mode_marks_infeasible_instead_of_raising(self):
        rows = run_sweep(SweepGrid(n_values=(4,), alphas=(0.05,), mode=SelectionMode.STRICT_AT_MOST_ALPHA))
        assert len(rows) == 1 and not rows[0].feasible

    def test_mode_and_tail_are_recorded(self):
        rows = run_sweep(SweepGrid(n_values=(50,), alphas=(0.05,),
                                   mode=SelectionMode.STRICT_AT_MOST_ALPHA,
                                   tail=TailConvention.ONE_SIDED_UPPER))
        assert rows[0].mode == "strict" and rows[0].tail == "one"


class TestFindCrossing:
    def test_lenient_alpha_crosses_even_money_early(self):
        assert find_crossing(0.05, 0.5) == 82

    def test_medium_alpha_crosses_near_1200(self):
        assert find_crossing(0.01, 0.5) == 1218

    def test_strict_alpha_reaches_quarter_late(self):
        assert find_crossing(0.001, 0.25) == 8817

    def test_first_touch_semantics(self):
        # the curve dips back under the level right after first touching it,
        # so "first touch" and "stays above forever after" genuinely differ
        n = find_crossing(0.01, 0.5)
        assert evidence_at_threshold(n, 0.01).report.posterior_h0 >= 0.5
        assert evidence_at_threshold(n - 1, 0.01).report.posterior_h0 < 0.5
        assert evidence_at_threshold(n + 1, 0.01).report.posterior_h0 < 0.5

    def test_touch_is_earliest_over_exhaustive_scan(self):
        # ground truth by brute force over a small range
        n_star = find_crossing(0.05, 0.4, n_max=200)
        for n in range(1, n_star):
            if min_p_feasible(n):
                assert evidence_at_threshold(n, 0.05).report.posterior_h0 < 0.4
        assert evidence_at_threshold(n_star, 0.05).report.posterior_h0 >= 0.4

    def test_touch_between_doubling_probes_is_found(self):
        # posterior .4026 at n = 36; no power of two up to 40 reaches .4
        assert find_crossing(0.05, 0.4, n_max=40) == 36

    @pytest.mark.parametrize("prior", [None, BetaPrior(2, 3), BetaPrior(0.5, 0.5), BetaPrior(1, 1)],
                             ids=lambda p: "default" if p is None else f"beta{p.a}-{p.b}")
    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_first_touch_over_every_n_for_every_n_max(self, mode, tail, prior):
        # ground truth by brute force: every feasible n <= 150 scored through evidence_at_threshold; the flat
        # prior, by default or given, takes the floored scan, and any other prior scores every n
        for alpha in (0.05, 0.01):
            post = [(n, evidence_at_threshold(n, alpha, mode, tail, prior).report.posterior_h0)
                    for n in range(1, 151) if feasible(n, alpha, tail)]
            for level in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
                for n_max in (40, 90, 150):
                    want = next((n for n, x in post if n <= n_max and x >= level), None)
                    assert find_crossing(alpha, level, mode, tail, prior, n_max) == want

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_floored_scan_finds_what_scoring_every_n_finds(self, mode, tail):
        # levels equal to a posterior the scan scores, or one float either side, are where rounding decides;
        # there a floor without its margin skips touches in nearest mode (16 to 26 of the 2,438 searches).
        # At alpha 1e-323 and 5e-324 the levels, and so exp(floor), are subnormal: the scan takes that exp and
        # the products it compares times _SCALE, and one that compared them unscaled skips touches at 1e-323
        score = _scorer(None, 0.5)
        for alpha in (0.3, 0.05, 0.01, 0.001, 1e-10, 1e-300, 1e-323, 5e-324):
            post = [(n, score(n, s, log_l0)[1]) for n, s, log_l0 in _march(alpha, mode, tail, 2500)]
            rng = random.Random(f"{alpha}/{mode.value}/{tail.value}")
            levels = {1e-320, 5e-324, 1.0 - 2.0 ** -53, 0.5}
            for _, x in post[:8] + rng.sample(post, 20):  # the first n, and a seeded sample of the rest
                levels |= {math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)}
            for level in sorted(levels - {0.0, 1.0}):
                want = next((n for n, x in post if x >= level), None)
                assert find_crossing(alpha, level, mode, tail, n_max=2500) == want, (alpha, level)

    def test_only_n_near_the_level_are_scored(self, monkeypatch):
        scored = []

        def scorer(prior, pi0):
            score = _scorer(prior, pi0)

            def spy(n, s, log_l0):
                scored.append(n)
                return score(n, s, log_l0)

            return spy

        monkeypatch.setattr(sweep_report, "_scorer", scorer)
        # 114 n scored; every feasible n, 6,513 of them, without the floor
        assert find_crossing(0.01, 0.7) == 6520
        assert len(scored) <= 200
        # a prior that is not flat has no floor: every feasible n is scored, from n = 8 (2 * 2**-n <= .01)
        scored.clear()
        n = find_crossing(0.01, 0.4, prior=BetaPrior(2, 3), n_max=2000)
        assert scored == list(range(8, (n or 2000) + 1))

    @pytest.mark.parametrize("case", CROSSINGS, ids=lambda c: f"alpha{c['alpha']}-level{c['level']}")
    def test_matches_brute_force_oracle(self, case):
        assert find_crossing(float(case["alpha"]), float(case["level"])) == case["n"]

    def test_absent_crossing_returns_none(self):
        assert find_crossing(0.0001, 0.5, n_max=10000) is None

    def test_n_max_bounds_the_answer(self):
        assert find_crossing(0.01, 0.5, n_max=1000) is None
        assert find_crossing(0.01, 0.5, n_max=1218) == 1218

    def test_validation(self):
        with pytest.raises(ValueError):
            find_crossing(0.0, 0.5)
        with pytest.raises(ValueError):
            find_crossing(0.05, 1.0)
        with pytest.raises(ValueError):
            find_crossing(0.05, 0.5, n_max=0)

    def test_rejects_arguments_that_are_not_the_enums_or_a_beta_prior(self):
        # a (1, 1) prior used to raise a raw AttributeError; "two" would scan one-sided
        with pytest.raises(ValueError, match="BetaPrior"):
            find_crossing(0.05, 0.5, prior=(1, 1))
        with pytest.raises(ValueError, match="TailConvention"):
            find_crossing(0.05, 0.5, tail="two")
        with pytest.raises(ValueError, match="SelectionMode"):
            find_crossing(0.05, 0.5, mode="strict")


class TestMarch:
    """_march, find_crossing's forward scan, picks what _select_walk picks at every n,
    and yields _log_term's ln L0 of that pick."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The n of every _select_walk call the scan makes, its anchors' included."""
        calls = []

        def spy(n, *args):
            calls.append(n)
            return _select_walk(n, *args)

        monkeypatch.setattr(binomial_kernel, "_select_walk", spy)
        return calls

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("alpha", [0.2, 0.05, 0.02, 0.01, 0.001, 1e-4, 1e-323, 5e-324])
    def test_matches_the_walk(self, alpha, mode, tail):
        got = {n: s for n, s, _ in _march(alpha, mode, tail, 6000)}
        ns = [n for n in range(1, 6001) if feasible(n, alpha, tail)]
        assert list(got) == ns
        # every n up to 800, then a seeded sample of the rest
        rng = random.Random(f"{alpha}/{mode.value}/{tail.value}")
        ns = [n for n in ns if n <= 800] + rng.sample([n for n in ns if n > 800], 25)
        assert [got[n] for n in ns] == [_select_walk(n, (alpha,), mode, tail)[0][0] for n in ns]

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.95, 0.25, 0.125])
    def test_matches_the_walk_where_s_sits_just_above_half_n(self, alpha, mode, tail):
        # at .25 and .125 the scan starts at a tie, p(n) = alpha (n = 3 two-sided, 3 one-sided at .125), which
        # exp(ln c - n ln 2), c 2**-n rounded up, calls infeasible
        got = {n: s for n, s, _ in _march(alpha, mode, tail, 400)}
        assert got == {n: _select_walk(n, (alpha,), mode, tail)[0][0]
                       for n in range(1, 401) if feasible(n, alpha, tail)}

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("n_tie, k", [(10, 8), (37, 25), (64, 56)])
    def test_matches_the_exact_walk_at_an_exact_tail_p(self, n_tie, k, mode, tail):
        # alpha = c sum(C(n_tie, j), j >= k) / 2**n_tie, a float, as (10, 8) one-sided gives .0546875: the scan's
        # float margin there is within tol, so it hands over to the exact walk, which picks k in either mode (nearest
        # keeps the strict s at a zero margin); it picks the walk's s at every n to 420, past the exact route's cut-over
        c = 2 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 1
        alpha = c * sum(math.comb(n_tie, j) for j in range(k, n_tie + 1)) / 2 ** n_tie
        got = {n: s for n, s, _ in _march(alpha, mode, tail, 420)}
        assert got == {n: _select_walk(n, (alpha,), mode, tail)[0][0]
                       for n in range(1, 421) if feasible(n, alpha, tail)}
        assert got[n_tie] == k

    def test_the_first_n_is_the_closed_form_of_the_feasibility_search(self):
        # the scan starts at n = c - e for alpha = m 2**e, 1/2 <= m < 1, with no search: the smallest n with
        # c 2**-n <= alpha, as c 2**-n falls with n.  Powers of two from 2**-1074 to 1/2, where p(n) = alpha is a tie,
        # each with the floats beside it, and a seeded log-uniform sample down to 5e-324
        rng = random.Random(38)
        powers = {2.0 ** -k for k in (*range(1, 64), *range(64, 1075, 17), 1073, 1074)}
        alphas = powers | {math.nextafter(a, d) for a in powers for d in (0.0, 1.0)} - {0.0, 1.0}
        alphas |= {math.nextafter(1.0, 0.0), *(math.exp(-rng.uniform(0.0, 744.4)) for _ in range(200))}
        for tail in TailConvention:
            for alpha in sorted(alphas):
                first = next(_march(alpha, SelectionMode.STRICT_AT_MOST_ALPHA, tail, 1100))[0]
                assert feasible(first, alpha, tail), (alpha, tail)
                assert first == 1 or not feasible(first - 1, alpha, tail), (alpha, tail)

    @pytest.mark.parametrize("n, s", [(1000, 532), (999, 531), (2000, 1046), (3000, 1560),
                                      (1104, 1094), (1585, 1478)])
    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("tie", ["p(s)", "mid"])
    def test_a_thin_margin_hands_over_to_the_walk(self, walked, n, s, tail, tie):
        # alpha is p(s), so at n the scan's alpha - p(s) is rounding alone in
        # both modes; or halfway to p(s-1), so nearest mode's choice is.  At (1104, 1094) and (1585, 1478) p(s)
        # is 3e-309 to 9e-309, where eps * alpha underflows: a tolerance taken in that order, not times _SCALE,
        # was 0, and the scan picked s + 1 on its own rounding
        p = p_value(BinomialOutcome(n, s), tail)
        alpha = p if tie == "p(s)" else (p + p_value(BinomialOutcome(n, s - 1), tail)) / 2
        modes = list(SelectionMode) if tie == "p(s)" else [SelectionMode.NEAREST_TO_ALPHA]
        for mode in modes:
            walked.clear()
            got = {m: s for m, s, _ in _march(alpha, mode, tail, n)}[n]
            assert n in walked
            assert walked.count(n) == 1  # one walk, in the scan's own mode
            assert got == _select_walk(n, (alpha,), mode, tail)[0][0]

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_a_margin_inside_tol_hands_over_and_one_outside_does_not(self, walked, mode, tail):
        # alpha = p(s) + share * tol / _SCALE at n = 5000 or 12, tol carried from the one walk, at the first feasible
        # n0: the walk's _tol(p, 7 sqrt(n) + 10, lgamma(n + 1) + 14 + 42), 42 for the shifted T and a fresh walk's p,
        # and _tol(p, 1, 0)
        # for each of the n - n0 steps.  The scan's own rounding is far under a tenth of tol.  At .01 the steps make
        # 2/5 of tol and lgamma(n + 1) over half; at 1e-312 the steps 7/8; at n = 12 the 42 makes 1/6: without the
        # steps, lgamma(n + 1) or the 42, a margin of 0.9 tol would not hand over
        scale = binomial_kernel._SCALE
        for n, alpha in ((5000, 0.01), (5000, 1e-312), (12, 0.1)):
            s = _select_walk(n, (alpha,), SelectionMode.STRICT_AT_MOST_ALPHA, tail)[0][0]
            p = p_value(BinomialOutcome(n, s), tail)
            n0 = next(m for m in range(1, n) if feasible(m, p, tail))
            tol = (binomial_kernel._tol(p, 7.0 * math.sqrt(n) + 10.0, math.lgamma(n + 1) + 14.0 + 42.0)
                   + (n - n0) * binomial_kernel._tol(p, 1.0, 0.0))
            for share, thin in ((0.9, True), (1.1, False)):
                walked.clear()
                got = {m: k for m, k, _ in _march(p + share * tol / scale, mode, tail, n)}[n]
                assert walked == ([n0, n] if thin else [n0]), (alpha, share)
                assert got == s

    def test_walks_only_at_anchors(self, walked):
        # the first feasible n, and where a margin lies inside the bound carried since the last walk: here no margin
        # does (6 walks with a walk every 1024 steps)
        steps = list(_march(0.01, SelectionMode.NEAREST_TO_ALPHA, TailConvention.TWO_SIDED_SYMMETRIC, 6000))
        assert [n for n, _, _ in steps] == list(range(8, 6001))  # 2 * 2**-n <= .01 from n = 8
        assert walked == [8]

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("alpha", [0.5, 0.2, 0.05, 0.01, 0.001, 1e-4])
    def test_log_l0_is_log_term_bit_for_bit(self, alpha, mode, tail):
        steps = list(_march(alpha, mode, tail, 800))
        assert steps
        for n, s, log_l0 in steps:
            assert log_l0 == _log_term(n, s), (n, s)

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_anchor_tail_is_log_upper_tail_bit_for_bit(self, monkeypatch, mode, tail):
        # every walk's T = exp(ln tail + 512 ln 2) (less the pick's term where a nearest pick lies below the strict s)
        # takes the pick's ln tail from the walk's own terms, _log_upper_tail's bit for bit, and its p is p_value's;
        # thin margins (alpha = p(n, s)) force hand-over walks at n
        anchors = []

        def spy(n, *args):
            [(s, p, log_tail)] = picks = _select_walk(n, *args)
            anchors.append((n, s, p, log_tail))
            return picks

        monkeypatch.setattr(binomial_kernel, "_select_walk", spy)
        ties = [(1000, 532), (2000, 1046), (3000, 1560), (1104, 1094)]
        for alpha in (0.05, 1e-6, *(p_value(BinomialOutcome(n, s), tail) for n, s in ties)):
            list(_march(alpha, mode, tail, 5000))
        assert {n for n, s in ties} <= {n for n, _, _, _ in anchors}
        for n, s, p, log_tail in anchors:
            assert p == p_value(BinomialOutcome(n, s), tail), (n, s)
            assert log_tail == binomial_kernel._log_upper_tail(n, s), (n, s)

    def test_nearest_hand_overs_at_ties_walk_once_per_n(self, walked, lgamma_calls):
        # p((n+1)/2) = .5 exactly at every odd n, so one-sided nearest mode hands over at each of them,
        # with one walk in nearest mode: 750 walks and 187,491 lgamma calls (193,447 when the scan took
        # its ln j! afresh each n, 277,413 with the fixed-width cut-off; a strict walk and a nearest one
        # made 1,500 walks; with a list of its own, the nearest one made 547,363 calls)
        assert find_crossing(0.5, 0.9999, SelectionMode.NEAREST_TO_ALPHA, TailConvention.ONE_SIDED_UPPER,
                             n_max=1500) is None
        assert len(walked) <= 760
        assert lgamma_calls() <= 300_000

    def test_lgamma_calls_per_scanned_n(self, walked, lgamma_calls):
        # a scanned n steps pmf(s-1) by its term ratio and takes no lgamma; the two walks, at n = 8 and at 3,587, where
        # the envelope first reaches the floor, and their exp(ln pmf) take theirs, and each yielded n three for its
        # ln L0: 820 over the 2,942 n scanned (356 over 6,513 n with no envelope, 3,054 with a walk every 1024 steps,
        # 12,570 with an ln j! band and one lgamma call as s moved up, 28,944 when each n took its ln j! afresh)
        assert find_crossing(0.01, 0.7) == 6520
        assert len(walked) == 2
        assert lgamma_calls() <= 900

    def test_lgamma_calls_where_no_n_touches_the_level(self, lgamma_calls):
        # no n reaches the floor and no margin is thin, so the walk at the first feasible n and its pmf(s-1) make
        # all 14 calls (12,834 with a walk every 1024 steps, 43,038 with the ln j! band)
        assert find_crossing(0.0001, 0.9) is None
        assert lgamma_calls() <= 20

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_a_no_touch_search_ends_where_the_envelope_rules_out_n_max(self, walked, mode, tail):
        # the envelope of (n + 1) pmf(s-1) stays below the floor up to n_max = 1e7, so each search returns None after
        # its walk at the first feasible n and a scan to N0 = 256, in under 1 ms; a scan of every n took 0.55 s to 1e6
        start = time.perf_counter()
        for alpha, level in ((1e-4, 0.9), (0.01, 0.9999)):
            walked.clear()
            assert find_crossing(alpha, level, mode, tail, n_max=10**7) is None
            assert len(walked) <= 2
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("alpha", [0.9, 0.3, 0.05, 0.01, 1e-4, 1e-10, 1e-100, 1e-300, 5e-324])
    def test_the_cap_solves_the_tail_bound_with_its_prefactor(self, alpha):
        # z solves z^2/2 + ln z >= ln(M c / (alpha sqrt(2 pi))), M the worst Stirling and continuity factor for x =
        # sqrt(n) >= max(16, 4z), to within 1e-3 of its root (Hoeffding's z, without the prefactor, is 3.26 at .01
        # two-sided, against 2.63); N0 makes x that large; and at each n from N0 the walk's strict s lies under the cap
        m = math.exp(5.0 / 512.0) / math.sqrt(1.0 - (1.0 / 4.0 + 1.0 / 256.0) ** 2)
        for tail, c in ((TailConvention.ONE_SIDED_UPPER, 1.0), (TailConvention.TWO_SIDED_SYMMETRIC, 2.0)):
            z, n0 = binomial_kernel._cap(alpha, c)
            excess = lambda z: math.log(m * c / (z * math.sqrt(2.0 * math.pi))) - z * z / 2.0 - math.log(alpha)
            assert z >= 1.0 and excess(z) <= 0.0
            assert z < 1.0 + 1e-3 or excess(z - 1e-3) > 0.0
            assert n0 >= 256 and n0 >= 16.0 * z * z
            for n in range(n0, n0 + 40):
                [(s, _, _)] = _select_walk(n, (alpha,), SelectionMode.STRICT_AT_MOST_ALPHA, tail)
                assert s < n / 2 + z * math.sqrt(n) / 2 + 1.5, (n, s)

    @pytest.mark.parametrize("alpha, level, mode, tail", [
        (0.01, 0.874, SelectionMode.NEAREST_TO_ALPHA, TailConvention.TWO_SIDED_SYMMETRIC),
        (0.001, 0.525, SelectionMode.STRICT_AT_MOST_ALPHA, TailConvention.TWO_SIDED_SYMMETRIC),
        (1e-4, 0.198, SelectionMode.NEAREST_TO_ALPHA, TailConvention.ONE_SIDED_UPPER),
        (1e-10, 2.03e-7, SelectionMode.STRICT_AT_MOST_ALPHA, TailConvention.TWO_SIDED_SYMMETRIC),
        (1e-300, 2.27e-296, SelectionMode.STRICT_AT_MOST_ALPHA, TailConvention.ONE_SIDED_UPPER),
    ], ids=["01-nearest-two", "001-strict-two", "1e-4-nearest-one", "1e-10-strict-two", "1e-300-strict-one"])
    def test_a_touch_just_past_the_jump_is_the_first_over_every_n(self, walked, alpha, level, mode, tail):
        # every n is scored, from the scan without a floor, up to the first touch, at 57,560 to 115,535; the floored
        # search walks at its first feasible n and at the envelope's reach, 34,291 to 72,833, 1.35 to 1.8 times below
        # the touch: an envelope half as large reaches the floor four times later, past the touch
        score = _scorer(None, 0.5)
        want = next(n for n, s, log_l0 in _march(alpha, mode, tail, 200_000) if score(n, s, log_l0)[1] >= level)
        walked.clear()
        assert find_crossing(alpha, level, mode, tail, n_max=200_000) == want
        assert len(walked) == 2 and walked[1] < want < 2 * walked[1]

    def test_scan_memory_is_constant_beside_its_walks(self):
        # between walks the scan holds a few floats; the peak, 17 KB to n = 10,000 and 24 KB to 20,000, is an
        # anchor walk's O(sqrt(n)) term list (42 KB with an ln j! band beside it, 171 KB with a table of every
        # ln j! up to n)
        find_crossing(0.01, 0.9999, n_max=100)  # imports and first-call caches stay out of the peak
        tracemalloc.start()
        try:
            assert find_crossing(0.01, 0.9999, n_max=10_000) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30_000

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_most_drifted_steps_match_a_fresh_walk(self, walked, mode, tail):
        # the scan's T and pmf(s-1) drift most at the step before a hand-over and at the end of a span, up to
        # n_max steps after the last walk; there (n, s, ln L0) must be a fresh walk's, bit for bit.  At alpha
        # 1e-310 pmf(s-1) is subnormal, and the scan steps it times _SCALE; at 5e-324 it walks once, at the first
        # feasible n, and steps every n after it
        checked = 0
        for alpha in (0.3, 0.05, 0.01, 1e-3, 1e-10, 1e-100, 1e-300, 1e-306, 1e-310, 5e-324):
            walked.clear()
            steps = {n: (s, log_l0) for n, s, log_l0 in _march(alpha, mode, tail, 4200)}
            anchors = sorted(set(walked))
            drifted = [b - 1 for a, b in zip(anchors, anchors[1:]) if b - a > 1] + list(range(4196, 4201))
            for n in [n for n in drifted if n in steps]:
                [(s, _, _)] = _select_walk(n, (alpha,), mode, tail)
                assert steps[n] == (s, _log_term(n, s)), (alpha, n)
                checked += 1
        assert checked >= 50  # the last 5 n at each alpha, and the steps before hand-overs

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("alpha, n_max", [(0.05, 100_000), (1e-10, 100_000), (1e-308, 20_000),
                                              (1e-317, 20_000), (1e-318, 20_000), (1e-319, 20_000),
                                              (1e-322, 20_000), (5e-324, 20_000)])
    def test_a_long_span_ends_on_a_fresh_walk_s_picks(self, walked, alpha, n_max, mode, tail):
        # the scan walks at the first feasible n and where a margin lies inside its carried bound: 1 to 3 times at
        # .05, 1e-10 and 1e-308, against 98 (to 100,000) and 19 (to 20,000) with a walk every 1024 steps.  At 1e-317
        # to 1e-319, 1e-322 and 5e-324 it walks once: the bound has no ulp(0) term, as nothing it compares is subnormal.
        # Nearest two-sided, a bound with 37 ulp(0) per walk made 2, 15, 98, 18,930 and 18,926 walks at 1e-317,
        # 1e-318, 1e-319, 1e-322 and 5e-324, and one with 37 ulp(0) a step 1,409, 12,857 and 18,940 at the first
        # three.  The last 20 n lie up to n_max steps from a walk, yet are a fresh walk's (s, ln L0) bit for bit
        last = collections.deque(_march(alpha, mode, tail, n_max), maxlen=20)
        assert len(walked) <= {1e-322: 5, 5e-324: 5}.get(alpha, 3)
        assert [n for n, _, _ in last] == list(range(n_max - 19, n_max + 1))
        for n, s, log_l0 in last:
            [(want, _, _)] = _select_walk(n, (alpha,), mode, tail)
            assert (s, log_l0) == (want, _log_term(n, want)), n


def min_p_feasible(n):
    return feasible(n, 0.05, TailConvention.TWO_SIDED_SYMMETRIC)


class TestJitterReport:
    def test_monotone_series_is_clean(self):
        rows = [make_row(0.05, n, 0.1 * i) for i, n in enumerate((10, 20, 30), start=1)]
        assert jitter_report(rows) == []

    def test_single_drop_is_quantified(self):
        rows = [make_row(0.05, 10, 0.40), make_row(0.05, 20, 0.35), make_row(0.05, 30, 0.50)]
        got = jitter_report(rows)
        assert got == [JitterViolation(0.05, 10, 20, pytest.approx(0.05))]

    def test_infeasible_rows_are_transparent(self):
        rows = [
            make_row(0.05, 10, 0.40),
            SweepRow(0.05, 20, None, None, None, None, "nearest", "two"),
            make_row(0.05, 30, 0.30),
        ]
        got = jitter_report(rows)
        assert len(got) == 1
        assert (got[0].n_prev, got[0].n) == (10, 30)

    def test_alphas_tracked_independently(self):
        rows = [
            make_row(0.05, 10, 0.4),
            make_row(0.01, 10, 0.5),
            make_row(0.05, 20, 0.5),
            make_row(0.01, 20, 0.3),
        ]
        got = jitter_report(rows)
        assert [(v.alpha, v.n_prev, v.n) for v in got] == [(0.01, 10, 20)]

    def test_default_grid_violations(self, default_rows):
        got = jitter_report(default_rows)
        assert [(v.alpha, v.n_prev, v.n) for v in got] == [
            (0.01, 20, 40),
            (0.01, 60, 80),
            (0.001, 80, 100),
            (0.0001, 60, 80),
            (0.0001, 800, 1000),
        ]
        posts = {(r.alpha, r.n): r.posterior_h0 for r in default_rows}
        for v in got:
            assert v.posterior_drop == pytest.approx(
                posts[(v.alpha, v.n_prev)] - posts[(v.alpha, v.n)], rel=1e-12
            )
            assert v.posterior_drop > 0

    def test_lenient_alpha_series_is_monotone_on_the_default_grid(self, default_rows):
        assert not any(v.alpha == 0.05 for v in jitter_report(default_rows))


class TestEmitAndParse:
    def test_header_only_for_empty_rows(self):
        assert csv_text([]) == "alpha,n,s_selected,p_achieved,log_bf01,posterior_h0,mode,tail\n"

    def test_single_row_layout(self, default_rows):
        text = csv_text(default_rows[:1])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1] == "0.05,20,15,0.041389465332,-1.16956783934,0.236933108226,nearest,two"

    def test_a_record_in_a_json_payload_is_rounded_like_any_float(self):
        # records are tuples, which json.dump writes as arrays; their floats get the same 12 digits
        fh = io.StringIO()
        sweep_report.dump_json({"prior": BetaPrior(0.1 + 0.2, 1.0), "pair": (1 / 3,)}, fh)
        assert json.loads(fh.getvalue()) == {"prior": [0.3, 1.0], "pair": [0.333333333333]}

    def test_infeasible_row_serializes_with_empty_fields(self):
        rows = run_sweep(SweepGrid(n_values=(4,), alphas=(0.0001,)))
        assert csv_text(rows).splitlines()[1] == "0.0001,4,,,,,nearest,two"

    def test_csv_round_trip_is_a_fixed_point(self, default_rows):
        text = csv_text(default_rows)
        assert csv_text(parse_csv(io.StringIO(text))) == text

    def test_parsed_values_match_originals_to_serialized_precision(self, default_rows):
        parsed = parse_csv(io.StringIO(csv_text(default_rows)))
        assert len(parsed) == len(default_rows)
        for got, want in zip(parsed, default_rows):
            assert (got.alpha, got.n, got.s_selected) == (want.alpha, want.n, want.s_selected)
            assert got.p_achieved == pytest.approx(want.p_achieved, rel=1e-11)
            assert got.posterior_h0 == pytest.approx(want.posterior_h0, rel=1e-11)
            assert (got.mode, got.tail) == (want.mode, want.tail)

    def test_json_round_trip(self, default_rows):
        buf = io.StringIO()
        emit(default_rows[:5], "json", buf)
        parsed = parse_json(io.StringIO(buf.getvalue()))
        assert [(r.alpha, r.n, r.s_selected) for r in parsed] == [
            (r.alpha, r.n, r.s_selected) for r in default_rows[:5]
        ]
        again = io.StringIO()
        emit(parsed, "json", again)
        assert again.getvalue() == buf.getvalue()

    def test_json_nulls_for_infeasible_cells(self):
        rows = run_sweep(SweepGrid(n_values=(4,), alphas=(0.0001,)))
        buf = io.StringIO()
        emit(rows, "json", buf)
        assert '"s_selected": null' in buf.getvalue()
        parsed = parse_json(io.StringIO(buf.getvalue()))
        assert not parsed[0].feasible

    @pytest.mark.parametrize("fmt,parse", [("csv", parse_csv), ("json", parse_json)], ids=["csv", "json"])
    def test_emit_to_path(self, tmp_path, default_rows, fmt, parse):
        target = tmp_path / f"sweep.{fmt}"
        emit(default_rows[:3], fmt, str(target))
        assert parse(str(target))[0].n == 20

    def test_emit_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "xml", io.StringIO())

    def test_emit_passes_an_open_files_error_on_unchanged(self):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        with pytest.raises(OSError) as err:
            emit([], "csv", Full())
        assert str(err.value) == "[Errno 28] No space left on device" and err.value.__cause__ is None

    def test_emit_reports_unwritable_destination(self):
        with pytest.raises(OSError) as err:
            emit([], "csv", "/nonexistent-dir/out.csv")
        assert "/nonexistent-dir/out.csv" in str(err.value)

    def test_parse_csv_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            parse_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_parse_csv_rejects_short_row(self):
        good = csv_text([])
        with pytest.raises(ValueError):
            parse_csv(io.StringIO(good + "0.05,20,15\n"))

    @pytest.mark.parametrize("text,needle", [
        ('{"a": 1}', "array"),
        ('[{"alpha": 0.05}]', "'n'"),
        ("[1, 2]", "row"),
        (json_row(s_selected="abc"), "s_selected must be of type int, got 'abc'"),
        (json_row(p_achieved="x"), "p_achieved must be a finite real number, got 'x'"),
        (json_row(log_bf01=[]), r"log_bf01 must be a finite real number, got \[\]"),
        (json_row(mode=1), "mode must be of type str, got 1"),
        (json_row(tail=None), "tail is empty"),
        (json_row(n=20.7), "n must be of type int, got 20.7"),
        (json_row(alpha="0.05"), "alpha must be a finite real number, got '0.05'"),
        (json_row(mode="banana"), r"mode must be one of \['nearest', 'strict'\], got 'banana'"),
        (json_row(tail="x"), r"tail must be one of \['one', 'two'\], got 'x'"),
        (json_row(n=-3), "n must be non-negative, got -3"),
        (json_row(s_selected=-1), "s_selected must be non-negative, got -1"),
    ])
    def test_parse_json_rejects_malformed_input(self, text, needle):
        with pytest.raises(ValueError, match=needle):
            parse_json(io.StringIO(text))

    @pytest.mark.parametrize("line,needle", [
        ("0.05,20.7,,,,,nearest,two", "20.7"),
        ("0.05,20,15,x,,,nearest,two", "'x'"),
        ("0.05,20,,,,,,two", "mode is empty"),
        ("inf,20,15,nan,,,banana,two", "alpha must be a finite real number, got inf"),
        ("inf,x,,,,,nearest,two", "alpha must be a finite real number, got inf"),  # checked column by column
        ("0.05,20,15,nan,,,nearest,two", "p_achieved must be a finite real number, got nan"),
        ("0.05,20,15,0.04,-inf,,nearest,two", "log_bf01 must be a finite real number, got -inf"),
        ("0.05,-3,,,,,nearest,two", "n must be non-negative, got -3"),
        ("0.05,20,-15,,,,nearest,two", "s_selected must be non-negative, got -15"),
        ("0.05,20,,,,,banana,two", "mode must be one of"),
        ("0.05,20,,,,,nearest,x", "tail must be one of"),
    ])
    def test_parse_csv_rejects_bad_fields(self, line, needle):
        with pytest.raises(ValueError, match=needle):
            parse_csv(io.StringIO(csv_text([]) + line + "\n"))

    @pytest.mark.parametrize("fmt,row,column,shown", [
        ("csv", f"0.05,-{'9' * 4000},,,,,nearest,two", "n", "a negative 4000-digit integer"),
        ("csv", f"0.05,20,{'9' * 5000},,,,nearest,two", "s_selected", "a 5000-character value"),
        ("csv", f"0.05,20,15,{'x' * 4000},,,nearest,two", "p_achieved", "a 4000-character value"),
        ("csv", f"0.05,20,,,,,{'x' * 4000},two", "mode", "a 4000-character value"),
        ("json", json_row(n=-(10**4000))[1:-1], "n", "a negative 4001-digit integer"),
        ("json", json_row(tail="x" * 4000)[1:-1], "tail", "a 4000-character value"),
        ("json", json_row(s_selected="x" * 4000)[1:-1], "s_selected", "a 4000-character value"),
    ])
    def test_an_oversized_value_is_named_by_row_and_column_in_a_short_message(self, fmt, row, column, shown):
        # a bad value of any size gives a message that names its row and column and stays short
        if fmt == "csv":
            text, parse = csv_text([]) + f"0.05,20,,,,,nearest,two\n{row}\n", parse_csv
        else:
            text, parse = f"[{json_row()[1:-1]}, {row}]", parse_json
        with pytest.raises(ValueError) as err:
            parse(io.StringIO(text))
        message = str(err.value)
        assert message.startswith(f"malformed sweep {fmt.upper()} row 2: ") and f"{column} must be" in message
        assert message.endswith(shown) and len(message) < 300
