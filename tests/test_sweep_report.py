import io
import json
import random
from pathlib import Path

import pytest

from threshold_lab import (
    DEFAULT_ALPHAS,
    DEFAULT_N_VALUES,
    BinomialOutcome,
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

from threshold_lab import sweep_report
from threshold_lab.binomial_kernel import _select_walk
from threshold_lab.sweep_report import _march

import oracles

# Brute-force forward-scan answers (every n, exact reference) for the 18
# (alpha, level) pairs; a byte copy of the benchmark's expected crossings.
CROSSINGS = json.loads((Path(__file__).parent / "data" / "crossings.json").read_text())["crossings"]


@pytest.mark.parametrize("name", ["default_sweep.csv", "crossings.json"])
def test_goldens_match_the_benchmark_copies(name):
    # the benchmark checks answers against its own copies; the two must not drift apart
    here = Path(__file__).parent
    assert (here / "data" / name).read_bytes() == (here.parent / "perfbench" / "expected" / name).read_bytes()


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
        # spot-check a handful of cells against a scipy-based reimplementation
        for r in default_rows[::7]:
            s, post = oracles.independent_cell(r.n, r.alpha, "nearest", two_sided=True)
            assert r.s_selected == s
            assert r.posterior_h0 == pytest.approx(post, rel=1e-9)

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

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    def test_first_touch_over_every_n_for_every_n_max(self, mode, tail):
        # ground truth by brute force: every feasible n <= 150 scored through evidence_at_threshold
        for alpha in (0.05, 0.01):
            post = [(n, evidence_at_threshold(n, alpha, mode, tail).report.posterior_h0)
                    for n in range(1, 151) if min_attainable_p(n, tail) <= alpha]
            for level in (0.2, 0.3, 0.4, 0.5, 0.6):
                for n_max in (40, 90, 150):
                    want = next((n for n, x in post if n <= n_max and x >= level), None)
                    assert find_crossing(alpha, level, mode, tail, n_max=n_max) == want

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
    """_march, find_crossing's forward scan, picks what _select_walk picks at every n."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The n of every _select_walk call the scan makes."""
        calls = []

        def spy(n, *args):
            calls.append(n)
            return _select_walk(n, *args)

        monkeypatch.setattr(sweep_report, "_select_walk", spy)
        return calls

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("alpha", [0.2, 0.05, 0.02, 0.01, 0.001, 1e-4])
    def test_matches_the_walk(self, alpha, mode, tail):
        got = dict(_march(alpha, mode, tail, 6000))
        feasible = [n for n in range(1, 6001) if min_attainable_p(n, tail) <= alpha]
        assert list(got) == feasible
        # every n up to 800, then a seeded sample of the rest
        rng = random.Random(f"{alpha}/{mode.value}/{tail.value}")
        ns = [n for n in feasible if n <= 800] + rng.sample([n for n in feasible if n > 800], 25)
        assert [got[n] for n in ns] == [_select_walk(n, alpha, mode, tail) for n in ns]

    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", list(SelectionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.95])
    def test_matches_the_walk_where_s_sits_just_above_half_n(self, alpha, mode, tail):
        got = dict(_march(alpha, mode, tail, 400))
        assert got == {n: _select_walk(n, alpha, mode, tail)
                       for n in range(1, 401) if min_attainable_p(n, tail) <= alpha}

    @pytest.mark.parametrize("n, s", [(1000, 532), (999, 531), (2000, 1046), (3000, 1560)])
    @pytest.mark.parametrize("tail", list(TailConvention), ids=lambda t: t.value)
    @pytest.mark.parametrize("tie", ["p(s)", "mid"])
    def test_a_thin_margin_hands_over_to_the_walk(self, walked, n, s, tail, tie):
        # alpha is p(s), so at n the scan's alpha - p(s) is rounding alone in
        # both modes; or halfway to p(s-1), so nearest mode's choice is
        p = p_value(BinomialOutcome(n, s), tail)
        alpha = p if tie == "p(s)" else (p + p_value(BinomialOutcome(n, s - 1), tail)) / 2
        modes = list(SelectionMode) if tie == "p(s)" else [SelectionMode.NEAREST_TO_ALPHA]
        for mode in modes:
            walked.clear()
            got = dict(_march(alpha, mode, tail, n))[n]
            assert n in walked
            assert got == _select_walk(n, alpha, mode, tail)

    def test_walks_only_at_anchors(self, walked):
        # the first feasible n and every 1024 steps; a thin-margin hand-over is rare
        steps = list(_march(0.01, SelectionMode.NEAREST_TO_ALPHA, TailConvention.TWO_SIDED_SYMMETRIC, 6000))
        assert [n for n, _ in steps] == list(range(8, 6001))  # 2 * 2**-n <= .01 from n = 8
        assert len(walked) <= 8


def min_p_feasible(n):
    return p_value(BinomialOutcome(n, n), TailConvention.TWO_SIDED_SYMMETRIC) <= 0.05


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

    def test_emit_to_path(self, tmp_path, default_rows):
        target = tmp_path / "sweep.csv"
        emit(default_rows[:3], "csv", str(target))
        assert parse_csv(str(target))[0].n == 20

    def test_emit_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "xml", io.StringIO())

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
    ])
    def test_parse_json_rejects_malformed_input(self, text, needle):
        with pytest.raises(ValueError, match=needle):
            parse_json(io.StringIO(text))

    @pytest.mark.parametrize("line,needle", [
        ("0.05,20.7,,,,,nearest,two", "20.7"),
        ("0.05,20,15,x,,,nearest,two", "'x'"),
        ("0.05,20,,,,,,two", "mode is empty"),
    ])
    def test_parse_csv_rejects_bad_fields(self, line, needle):
        with pytest.raises(ValueError, match=needle):
            parse_csv(io.StringIO(csv_text([]) + line + "\n"))
