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
import math
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

from ._checks import _check_enum, _check_n, _check_real, _check_unit
from .bayes_evidence import BetaPrior, _evidence, _prior_or_uniform, evidence_at_threshold
from .binomial_kernel import (
    SelectionMode,
    TailConvention,
    _log_term,
    _log_upper_tail,
    _select_walk,
    min_attainable_p,
)

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

DEFAULT_N_VALUES: tuple[int, ...] = (
    20, 40, 60, 80, 100, 200, 400, 600, 800, 1000, 2000, 4000, 6000, 8000, 10000,
)
DEFAULT_ALPHAS: tuple[float, ...] = (0.05, 0.01, 0.001, 0.0001)

# SweepRow fields in order (CSV header, JSON keys): type, and whether it may be empty (infeasible cells).
_COLUMNS = {"alpha": (float, False), "n": (int, False), "s_selected": (int, True), "p_achieved": (float, True),
            "log_bf01": (float, True), "posterior_h0": (float, True), "mode": (str, False), "tail": (str, False)}

# Steps of find_crossing's forward scan between re-anchors on the exact kernel.
_ANCHOR_EVERY = 1024


@dataclass(frozen=True)
class SweepGrid:
    """Grid definition: which n values, which alphas, and how cells are scored."""

    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    mode: SelectionMode = SelectionMode.NEAREST_TO_ALPHA
    tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC
    prior: BetaPrior = BetaPrior(1.0, 1.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", tuple(_check_n(n, "n_values entries") for n in self.n_values))
        object.__setattr__(self, "alphas", tuple(_check_unit(a, "alphas entries") for a in self.alphas))
        object.__setattr__(self, "prior", _prior_or_uniform(self.prior))
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError(f"n_values must be strictly increasing, got {self.n_values}")
        if not self.alphas:
            raise ValueError("alphas must be non-empty")
        if any(a <= b for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError(f"alphas must be strictly decreasing, got {self.alphas}")
        _check_enum(self.mode, SelectionMode, "mode")
        _check_enum(self.tail, TailConvention, "tail")


@dataclass(frozen=True)
class SweepRow:
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


def _evaluate_cell(alpha: float, n: int, mode: SelectionMode, tail: TailConvention,
                   prior: BetaPrior) -> SweepRow:
    if min_attainable_p(n, tail) > alpha:
        return SweepRow(alpha, n, None, None, None, None, mode.value, tail.value)
    s, p_achieved, report = evidence_at_threshold(n, alpha, mode, tail, prior)
    return SweepRow(alpha, n, s, p_achieved, report.log_l0 - report.log_l1, report.posterior_h0,
                    mode.value, tail.value)


def run_sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate every (alpha, n) cell, alpha-major / n-minor, in the calling thread.

    The rows depend on the grid alone, so the serialized output is
    reproducible byte for byte; the test suite pins the default grid's CSV
    with a golden file.
    """
    return [_evaluate_cell(alpha, n, grid.mode, grid.tail, grid.prior)
            for alpha in grid.alphas for n in grid.n_values]


def _march(alpha: float, mode: SelectionMode, tail: TailConvention, n_max: int):
    """(n, s) for each n in 1 .. n_max at which alpha is attainable; s is _select_walk's pick.

    One forward scan carries the strict threshold s (the smallest s > n/2 with
    p <= alpha) and T = P_n(X >= s) in linear space: T += pmf_{n-1}(s-1)/2,
    and s moves up at most one, as P_n(X >= s+1) <= P_{n-1}(X >= s) <= P_n(X >= s).
    Each pmf is exp of a _log_term, so T and the walk's sum differ by
    rounding alone: a few ulps of lgamma(n+1) per term, an ulp per scan step
    (at most _ANCHOR_EVERY) and an ulp of ln p per walk step (at most
    7 sqrt(n) + 10).  So s comes from _select_walk, and T from _log_upper_tail,
    at the first feasible n, every _ANCHOR_EVERY steps, and where a decision
    margin (alpha - p(s), p(s-1) - alpha, in nearest mode their difference)
    is within tol = 32 (eps alpha (lgamma(N+1) + m (1 - ln alpha)) + m ulp(0)),
    m = 7 sqrt(N) + 10 + _ANCHOR_EVERY, N = n + _ANCHOR_EVERY; the largest
    difference seen (n to 2e5, alpha to 1e-100) is tol/16.  Other n cost O(1).
    """
    c = 2.0 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 1.0
    nearest = mode is SelectionMode.NEAREST_TO_ALPHA
    first = anchor = next((n for n in range(1, n_max + 1) if min_attainable_p(n, tail) <= alpha), n_max + 1)
    for n in range(first, n_max + 1):
        fresh = n == first or n - anchor >= _ANCHOR_EVERY
        if not fresh:
            T += 0.5 * pm1
            moved = c * T > alpha or s <= n // 2
            s += moved
        while True:
            if fresh:
                anchor, moved, s = n, False, _select_walk(n, alpha, SelectionMode.STRICT_AT_MOST_ALPHA, tail)
                T = math.exp(_log_upper_tail(n, s))
                top = n + _ANCHOR_EVERY  # tol holds for every n up to the next periodic anchor
                m = 7.0 * math.sqrt(top) + 10.0 + _ANCHOR_EVERY
                tol = 32.0 * (math.ulp(1.0) * alpha * (math.lgamma(top + 1) + m * (1.0 - math.log(alpha)))
                              + m * math.ulp(0.0))
            pm1 = math.exp(_log_term(n, s - 1))
            if moved:
                T -= pm1
            d1 = alpha - c * T
            d2 = c * (T + pm1) - alpha if s - 1 > n // 2 else math.inf  # the walk stops above n/2
            sure = min(d1, d2, abs(d2 - d1) if nearest else math.inf) > tol
            if sure or fresh:
                break
            fresh = True
        yield n, _select_walk(n, alpha, mode, tail) if nearest and not sure else s - (nearest and d2 < d1)


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
    so the answer is the first n whose posterior touches the level.  Every n
    where some success count attains alpha is scored as evidence_at_threshold
    scores it, by one forward scan (_march) with O(1) work per n; the cost is
    linear in the answer, or in n_max when no n up to n_max touches the level
    and None is returned (about 0.2 s at n_max = 20000).
    """
    alpha = _check_unit(alpha, "alpha")
    level = _check_unit(level, "level")
    _check_n(n_max, "n_max")
    _check_enum(mode, SelectionMode, "mode")
    _check_enum(tail, TailConvention, "tail")
    prior = _prior_or_uniform(prior)
    return next((n for n, s in _march(alpha, mode, tail, n_max) if _evidence(n, s, prior)[2] >= level), None)


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


def _fmt_real(x: float) -> str:
    # The one 12-significant-digit format: CSV writes it, _quantize rounds JSON through it.
    return "%.12g" % x


def _quantize(obj):
    """Round every float in a JSON payload (through dicts and lists) to 12
    significant digits; float(_fmt_real(x)) is a fixed point of this map.
    A non-finite float becomes None (null): RFC 8259 JSON has no inf or nan."""
    if isinstance(obj, float):
        return float(_fmt_real(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_quantize(v) for v in obj]
    return obj


def dump_json(payload, fh: IO[str]) -> None:
    """Write a JSON payload with every float at 12 significant digits,
    indented by 2, with a trailing newline: the format of every JSON output."""
    json.dump(_quantize(payload), fh, indent=2)
    fh.write("\n")


def _csv_field(x) -> str:
    if x is None:
        return ""
    return _fmt_real(x) if isinstance(x, float) else str(x)


def _write_csv(rows: Iterable[SweepRow], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for r in rows:
        writer.writerow([_csv_field(getattr(r, c)) for c in _COLUMNS])


def _write_json(rows: Iterable[SweepRow], fh: IO[str]) -> None:
    dump_json([{c: getattr(r, c) for c in _COLUMNS} for r in rows], fh)


def emit(rows: Iterable[SweepRow], format: str, destination) -> None:
    """Serialize rows to CSV or JSON at `destination` (path or open text file).

    CSV: mandatory header, columns exactly as in the row type plus mode/tail,
    reals at 12 significant digits, rows in the order given.  JSON: an array
    of objects with the same field names.  I/O failures are re-raised with
    the destination attached.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    writer = _write_csv if format == "csv" else _write_json
    if hasattr(destination, "write"):
        writer(rows, destination)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            writer(rows, fh)
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {destination!r}: {exc}") from exc


def parse_csv(source) -> list[SweepRow]:
    """Inverse of emit(..., 'csv', ...): floats round-trip bit-equal because
    12-significant-digit decimal survives the str -> float -> str cycle."""
    if hasattr(source, "read"):
        return _rows_from_csv(source)
    with open(source, "r", encoding="utf-8", newline="") as fh:
        return _rows_from_csv(fh)


def _rows_from_csv(fh: IO[str]) -> list[SweepRow]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != list(_COLUMNS):
        raise ValueError(f"unexpected sweep CSV header: {header!r}")
    rows = []
    for rec in reader:
        try:
            if len(rec) != len(_COLUMNS):
                raise ValueError(f"{len(rec)} fields, not {len(_COLUMNS)}")
            rows.append(_make_row(rec, lambda text, kind, name: kind(text)))
        except ValueError as exc:
            raise ValueError(f"malformed sweep CSV row {rec!r}: {exc}") from None
    return rows


def parse_json(source) -> list[SweepRow]:
    """Inverse of emit(..., 'json', ...)."""
    if hasattr(source, "read"):
        payload = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError(f"sweep JSON must be an array of row objects, got {type(payload).__name__}")
    rows = []
    for rec in payload:
        try:
            rows.append(_make_row([rec[c] for c in _COLUMNS], _json_value))
        except (KeyError, TypeError, ValueError) as exc:  # a missing field, a non-object row, a bad value
            raise ValueError(f"malformed sweep JSON row {rec!r}: {type(exc).__name__}: {exc}") from None
    return rows


def _json_value(value, kind: type, name: str):
    # JSON types its values, so "0.05" for a float or 20.7 for an int is an error, not a conversion
    if kind is float:
        return _check_real(value, name)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _make_row(values: list, convert) -> SweepRow:
    """A SweepRow from one value per column, each taken by convert(value, type, name); an empty
    value ("" or None) is None in a column that allows it and a ValueError in one that does not."""
    fields = []
    for value, (name, (kind, nullable)) in zip(values, _COLUMNS.items()):
        if value is None or value == "":
            if not nullable:
                raise ValueError(f"{name} is empty")
            fields.append(None)
        else:
            fields.append(convert(value, kind, name))
    return SweepRow(*fields)
