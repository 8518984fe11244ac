"""Posterior-vs-sample-size grids, level-crossing search, and jitter diagnostics.

A sweep evaluates the barely-significant posterior over an (alpha x n) grid
and serializes the result for external plotting.  Because the achieved
p-value only approximates alpha on a discrete lattice, the posterior-vs-n
curve wobbles; jitter_report quantifies that, and find_crossing therefore
uses first-touch semantics.
"""

from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from typing import Iterable, NamedTuple

from ._checks import (DEFAULT_ALPHAS, DEFAULT_N_VALUES, SelectionMode, TailConvention, _Checked, _check_instance,
                      _check_n, _check_real, _check_unit, _fmt_real, _shown, dump_json)
from .bayes_evidence import BetaPrior, _ln_bf_floor, _prior_or_uniform, _scorer, posterior_h0
from .binomial_kernel import BinomialOutcome, _march, _select_walk

__all__ = [
    "DEFAULT_N_VALUES",
    "DEFAULT_ALPHAS",
    "SweepGrid",
    "SweepRow",
    "JitterViolation",
    "run_sweep",
    "find_crossing",
    "jitter_report",
    "emit",
    "parse_csv",
    "parse_json",
]

# SweepRow columns (CSV header, JSON keys): type, and whether infeasible cells leave it empty; str column values.
_COLUMNS = {"alpha": (float, False), "n": (int, False), "s_selected": (int, True), "p_achieved": (float, True),
            "log_bf01": (float, True), "posterior_h0": (float, True), "mode": (str, False), "tail": (str, False)}
_CHOICES = {"mode": {m.value for m in SelectionMode}, "tail": {t.value for t in TailConvention}}

class SweepGrid(_Checked, NamedTuple("SweepGrid", [("n_values", tuple[int, ...]), ("alphas", tuple[float, ...]),
                                                   ("mode", SelectionMode), ("tail", TailConvention),
                                                   ("prior", BetaPrior)])):
    """Grid definition: which n values, which alphas, and how cells are scored (a None prior is the flat one)."""

    __slots__ = ()

    def __new__(cls, n_values: Iterable[int] = DEFAULT_N_VALUES, alphas: Iterable[float] = DEFAULT_ALPHAS,
                mode: SelectionMode = SelectionMode.NEAREST_TO_ALPHA,
                tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC, prior: BetaPrior | None = None):
        n_values = tuple(_check_n(n, "n_values entries") for n in n_values)
        alphas = tuple(_check_unit(a, "alphas entries") for a in alphas)
        prior = _prior_or_uniform(prior)
        for name, values, sign, order in (("n_values", n_values, 1, "increasing"),
                                          ("alphas", alphas, -1, "decreasing")):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            # the first pair out of order, not the whole grid, which can fill a message
            i = next((i for i in range(1, len(values)) if sign * values[i] <= sign * values[i - 1]), None)
            if i is not None:
                raise ValueError(f"{name} must be strictly {order}, got {values[i - 1]!r} then {values[i]!r} "
                                 f"at indices {i - 1} and {i}")
        _check_instance(mode, SelectionMode, "mode")
        _check_instance(tail, TailConvention, "tail")
        return super().__new__(cls, n_values, alphas, mode, tail, prior)


class SweepRow(NamedTuple):
    """One (alpha, n) cell.  Infeasible cells keep their place in the grid
    with the four result fields set to None rather than being dropped."""

    alpha: float
    n: int
    s_selected: int | None
    p_achieved: float | None
    log_bf01: float | None
    posterior_h0: float | None
    mode: str
    tail: str

    @property
    def feasible(self) -> bool:
        return self.s_selected is not None


class JitterViolation(NamedTuple):
    """An adjacent grid pair where the posterior fell while n grew."""

    alpha: float
    n_prev: int
    n: int
    posterior_drop: float


def _evaluate_cell(alpha: float, n: int, grid: SweepGrid, pick: tuple[int, float, float] | None) -> SweepRow:
    """One cell as evidence_at_threshold scores the walk's (s, p, ln tail) pick, or an empty row where there is none."""
    mode, tail = grid.mode.value, grid.tail.value
    if pick is None:
        return SweepRow(alpha, n, None, None, None, None, mode, tail)
    report = posterior_h0(BinomialOutcome(n, pick[0]), grid.prior)
    return SweepRow(alpha, n, *pick[:2], report.log_l0 - report.log_l1, report.posterior_h0, mode, tail)


def run_sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate every (alpha, n) cell in the calling thread; rows come alpha-major / n-minor.

    Cells are scored n-major: one walk call per n picks for every alpha.  The
    rows depend on the grid alone; the test suite pins the default grid's CSV
    byte for byte.
    """
    walks = ((n, _select_walk(n, grid.alphas, grid.mode, grid.tail)) for n in grid.n_values)
    by_n = [[_evaluate_cell(alpha, n, grid, pick) for alpha, pick in zip(grid.alphas, picks)] for n, picks in walks]
    return [row for by_alpha in zip(*by_n) for row in by_alpha]


def find_crossing(
    alpha: float,
    level: float,
    mode: SelectionMode = SelectionMode.NEAREST_TO_ALPHA,
    tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC,
    prior: BetaPrior | None = None,
    n_max: int = 20000,
) -> int | None:
    """Smallest n <= n_max at which the barely-significant posterior reaches `level`.

    First-touch semantics: jitter makes "every later n stays above" ill-posed,
    so the answer is the first n whose posterior touches the level.  One forward
    scan (_march) visits the n where some success count attains alpha, with O(1)
    work per n (pmf(s - 1) steps by its term ratio: no lgamma and no exp).  The n it
    yields are scored as evidence_at_threshold scores them: under the flat prior only
    those whose bound on ln BF01 reaches the level's floor (_ln_bf_floor), and the scan
    skips, from N0 = 256 at alpha >= 1e-4, to where a certified envelope of that bound,
    of order alpha sqrt(n), first reaches the floor: (.01, .7) visits 8 to 255 and 3,587
    to 6,520, and scores 114 of them.  A search that no n up to n_max can touch returns
    None at N0, in under 1 ms at n_max = 1e7 on a 2-core Xeon.  Under any other prior
    every n is scored, at a cost linear in the answer, or in n_max.
    """
    alpha = _check_unit(alpha, "alpha")
    level = _check_unit(level, "level")
    _check_n(n_max, "n_max")
    _check_instance(mode, SelectionMode, "mode")
    _check_instance(tail, TailConvention, "tail")
    score, floor = _scorer(prior, 0.5), _ln_bf_floor(prior, 0.5, level)
    return next((n for n, s, log_l0 in _march(alpha, mode, tail, n_max, floor) if score(n, s, log_l0)[1] >= level),
                None)


def jitter_report(rows: Iterable[SweepRow]) -> list[JitterViolation]:
    """All adjacent same-alpha pairs whose posterior decreases as n increases.

    Infeasible rows are transparent: the comparison links the feasible
    neighbors on either side.
    """
    last: dict[float, SweepRow] = {}
    violations: list[JitterViolation] = []
    for row in rows:
        if row.posterior_h0 is None:
            continue
        prev = last.get(row.alpha)
        if prev is not None and row.n > prev.n and row.posterior_h0 < prev.posterior_h0:
            violations.append(
                JitterViolation(row.alpha, prev.n, row.n, prev.posterior_h0 - row.posterior_h0)
            )
        last[row.alpha] = row
    return violations


def emit(rows: Iterable[SweepRow], format: str, destination) -> None:
    """Serialize rows to CSV or JSON at `destination` (path or open text file).

    CSV: mandatory header, one column per SweepRow field in field order,
    reals at 12 significant digits, rows in the order given.  JSON: an array
    of objects with the same field names.  I/O failures on a path are
    re-raised with the destination attached.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    is_file = hasattr(destination, "write")
    try:
        with nullcontext(destination) if is_file else open(destination, "w", encoding="utf-8", newline="") as fh:
            if format == "json":
                dump_json([r._asdict() for r in rows], fh)
            else:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_COLUMNS)
                for r in rows:  # csv writes None as "", an int or a str as str()
                    writer.writerow([_fmt_real(v) if isinstance(v, float) else v for v in r])
    except OSError as exc:
        if is_file:
            raise
        raise OSError(f"cannot write sweep output to {destination!r}: {exc.strerror or exc}") from exc


def parse_csv(source) -> list[SweepRow]:
    """Inverse of emit(..., 'csv', ...): floats round-trip bit-equal because
    12-significant-digit decimal survives the str -> float -> str cycle.  An error names the row by its
    number, counting the first one after the header as 1."""
    rows = []
    with nullcontext(source) if hasattr(source, "read") else open(source, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(_COLUMNS):
            raise ValueError(f"unexpected sweep CSV header: {header!r}")
        for i, rec in enumerate(reader, 1):
            try:
                if len(rec) != len(_COLUMNS):
                    raise ValueError(f"{len(rec)} fields, not {len(_COLUMNS)}")
                rows.append(_make_row(rec, text=True))
            except ValueError as exc:
                raise ValueError(f"malformed sweep CSV row {i}: {exc}") from None
    return rows


def parse_json(source) -> list[SweepRow]:
    """Inverse of emit(..., 'json', ...).  An error names the row by its number, counting from 1."""
    with nullcontext(source) if hasattr(source, "read") else open(source, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError(f"sweep JSON must be an array of row objects, got {type(payload).__name__}")
    rows = []
    for i, rec in enumerate(payload, 1):
        try:
            rows.append(_make_row([rec[c] for c in _COLUMNS], text=False))
        except (KeyError, TypeError, ValueError) as exc:  # a missing field, a non-object row, a bad value
            raise ValueError(f"malformed sweep JSON row {i}: {type(exc).__name__}: {exc}") from None
    return rows


def _make_row(values: list, text: bool) -> SweepRow:
    """A SweepRow from one value per column, checked column by column: CSV text is parsed by the column's
    type, a JSON value must already have it (JSON types its values, so "0.05" for a float or 20.7 for an
    int is an error).  An empty value ("" or None) is None in a column that allows it, else a ValueError."""
    fields = []
    for value, (name, (kind, nullable)) in zip(values, _COLUMNS.items()):
        if value is None or value == "":
            if not nullable:
                raise ValueError(f"{name} is empty")
            fields.append(None)
            continue
        if text:
            try:
                value = kind(value)
            except ValueError:  # Python's own message from float() repeats the whole value
                raise ValueError(f"{name} must be of type {kind.__name__}, got {_shown(value)}") from None
        elif kind is not float and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"{name} must be of type {kind.__name__}, got {_shown(value)}")
        if kind is float:
            value = _check_real(value, name)
        elif kind is int and value < 0:
            raise ValueError(f"{name} must be non-negative, got {_shown(value)}")
        if name in _CHOICES and value not in _CHOICES[name]:
            raise ValueError(f"{name} must be one of {sorted(_CHOICES[name])}, got {_shown(value)}")
        fields.append(value)
    return SweepRow(*fields)
