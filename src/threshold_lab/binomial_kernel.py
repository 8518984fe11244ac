"""Exact binomial mass, sign-test tail probabilities, and critical-count selection.

Everything here is computed in log space via log-gamma, so large trial counts
neither overflow nor lose the tail mass to underflow.  The only distribution
involved is Binomial(n, theta); p-values are always evaluated under the null
theta = 0.5.

A sign-test tail costs O(sqrt(n)) terms, not O(n): it starts at a cut-off
ceil(6 sqrt(n)) + 10 terms above max(s, n/2), and the mass above the cut-off
is below 2**-60 of the mass it keeps, far under half an ulp of the sum.  The
selection walk starts from the same cut-off and keeps its terms; a selection's
p_achieved is folded from them, so it is bit-equal to p_value by construction
and costs one O(sqrt(n)) pass.  The tail routines take n <= MAX_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from ._checks import MAX_N, _check_instance, _check_n, _check_real, _check_unit

__all__ = [
    "BinomialOutcome",
    "BinomialModel",
    "TailConvention",
    "SelectionMode",
    "CriticalValue",
    "InfeasibleError",
    "log_choose",
    "log_pmf",
    "p_value",
    "min_attainable_p",
    "select_barely_significant",
]

_LN2 = math.log(2.0)


class InfeasibleError(ValueError):
    """No success count can satisfy the requested significance constraint."""


@dataclass(frozen=True)
class BinomialOutcome:
    """n trials, s successes."""

    n: int
    s: int

    def __post_init__(self) -> None:
        _check_n(self.n, limit=None)
        if not isinstance(self.s, int) or isinstance(self.s, bool) or not 0 <= self.s <= self.n:
            raise ValueError(f"success count s must be an integer in [0, {self.n}], got {self.s!r}")


@dataclass(frozen=True)
class BinomialModel:
    """Success probability theta in [0, 1]; the null model is theta = 0.5."""

    theta: float

    def __post_init__(self) -> None:
        _check_real(self.theta, "theta", "a real number in [0, 1]", lambda t: 0.0 <= t <= 1.0)


class TailConvention(Enum):
    """How a sign-test p-value counts 'at least as extreme'."""

    TWO_SIDED_SYMMETRIC = "two"
    ONE_SIDED_UPPER = "one"


class SelectionMode(Enum):
    """Which success count counts as barely significant at a given alpha."""

    NEAREST_TO_ALPHA = "nearest"
    STRICT_AT_MOST_ALPHA = "strict"


class CriticalValue(NamedTuple):
    s: int
    p_achieved: float


def log_choose(n: int, s: int) -> float:
    """ln C(n, s) via log-gamma.

    The two lower arguments are ordered so that log_choose(n, s) and
    log_choose(n, n - s) evaluate the exact same float expression — the
    symmetry holds to the last bit, not just to rounding.
    """
    lo, hi = (s, n - s) if s <= n - s else (n - s, s)
    return math.lgamma(n + 1) - math.lgamma(lo + 1) - math.lgamma(hi + 1)


def log_pmf(outcome: BinomialOutcome, model: BinomialModel) -> float:
    """ln P(X = s) for X ~ Binomial(n, theta).

    Returns -inf for outcomes that are impossible under a degenerate model
    (theta 0 or 1), and 0.0 for the certain ones.
    """
    n, s = _check_instance(outcome, BinomialOutcome, "outcome").n, outcome.s
    theta = float(_check_instance(model, BinomialModel, "model").theta)
    if theta == 0.0:
        return 0.0 if s == 0 else -math.inf
    if theta == 1.0:
        return 0.0 if s == n else -math.inf
    if theta == 0.5:
        # the weight collapses to n*ln(1/2), independent of s, so the
        # s <-> n-s symmetry of log_choose survives to the last bit
        return _log_term(n, s)
    return log_choose(n, s) + s * math.log(theta) + (n - s) * math.log1p(-theta)


def _log_term(n: int, k: int) -> float:
    """ln P(X = k) under Binomial(n, 0.5), as log_pmf returns it; the tail terms match it bit for bit."""
    return log_choose(n, k) - n * _LN2


def _log_terms(n: int, start: int, stop: int) -> list[float]:
    """[_log_term(n, k) for k = start, start-1, ..., stop+1], with lgamma(n+1) and n ln 2 hoisted."""
    lgamma = math.lgamma
    lg = lgamma(n + 1)
    w = n * _LN2
    return [lg - lgamma(min(k, n - k) + 1) - lgamma(max(k, n - k) + 1) - w for k in range(start, stop, -1)]


def _log_sum(terms: list[float]) -> float:
    """ln of the sum of exp(t) over the log terms, folded in list order."""
    exp, log1p = math.exp, math.log1p
    acc = -math.inf
    for t in terms:
        acc = t + log1p(exp(acc - t)) if t > acc else acc + log1p(exp(t - acc))
    return acc


def _tail_start(n: int, s: int) -> int:
    # Certified cut-off: above m >= n/2 the terms fall as pmf(m+j)/pmf(m) <=
    # exp(-j^2/(n/2+j)), so the mass above this index is below 2**-60 of the
    # mass from s up to it (checked with exact integers in the tests).
    return min(n, max(s, n // 2) + math.ceil(6.0 * math.sqrt(n)) + 10)


def _log_upper_tail(n: int, s: int) -> float:
    """ln P(X >= s) under Binomial(n, 0.5), summed from the cut-off inward.

    The sum starts at _tail_start(n, s), so it costs O(sqrt(n)) terms; adding
    the smallest terms first keeps the running sum free of cancellation.
    """
    return _log_sum(_log_terms(n, _tail_start(n, s), s - 1))


def _shift(tail: TailConvention) -> float:
    # ln of the factor between p and the upper-tail probability it is computed from
    return _LN2 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 0.0


def p_value(outcome: BinomialOutcome, tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC) -> float:
    """Sign-test p-value of the outcome under theta = 0.5.

    One-sided: P(X >= s).  Two-sided symmetric: P(X >= max(s, n-s)) +
    P(X <= min(s, n-s)), which by the theta = 0.5 symmetry equals
    2 * P(X >= max(s, n-s)); clamped to 1.0 when both tails overlap at s = n/2.
    """
    n, s = _check_instance(outcome, BinomialOutcome, "outcome").n, outcome.s
    _check_n(n)
    _check_instance(tail, TailConvention, "tail")
    hi = s if tail is TailConvention.ONE_SIDED_UPPER else max(s, n - s)
    return min(1.0, math.exp(_shift(tail) + _log_upper_tail(n, hi)))


def min_attainable_p(n: int, tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC) -> float:
    """Smallest p-value any success count can reach at this n (attained at s = n)."""
    _check_n(n)
    return p_value(BinomialOutcome(n, n), tail)


def _walk_start(n: int, alpha: float, tail: TailConvention) -> int:
    # Chernoff: P(X >= n/2 + z*sqrt(n)/2) <= exp(-z^2/2), so p <= alpha from n/2 + zb*sqrt(n)/2 up
    # and the answer lies at or below it.  zb is taken in log space: a subnormal alpha cannot overflow.
    zb = math.sqrt(-2.0 * (math.log(alpha) - _shift(tail)))
    return _tail_start(n, math.ceil(n / 2.0 + zb * math.sqrt(n) / 2.0))


def _select_walk(n: int, alpha: float, mode: SelectionMode, tail: TailConvention,
                 terms: list[float] | None = None) -> int:
    """Pick the barely-significant s in (n/2, n] by walking s downward.

    The walk keeps a running upper-tail sum; each step down adds one term,
    _log_term's float expression inline (k > n/2, so n - k is lgamma's lower
    argument), folded as _log_sum folds, and appends it to `terms` if given.
    It starts at _walk_start, the _tail_start cut-off above a Chernoff bound
    on the answer, so it costs O(sqrt(n)) terms, and from the bound down its
    sums miss under 2**-60 of their mass.  p strictly increases as s
    decreases, which justifies the strict-mode bookkeeping and the early
    break; it is not p_value's bit for bit (the sums start apart).
    """
    lgamma, exp, log1p = math.lgamma, math.exp, math.log1p
    lg = lgamma(n + 1)
    w = n * _LN2
    shift = _shift(tail)
    keep = (terms if terms is not None else []).append
    acc = -math.inf
    best_s = n
    best_d = math.inf
    strict_s: int | None = None
    for k in range(_walk_start(n, alpha, tail), n // 2, -1):
        term = lg - lgamma(n - k + 1) - lgamma(k + 1) - w
        keep(term)
        acc = term + log1p(exp(acc - term)) if term > acc else acc + log1p(exp(term - acc))
        p = exp(shift + acc)
        if p > 1.0:
            p = 1.0  # min(1.0, p) as p_value clamps, without a builtin call per term
        if p <= alpha:
            strict_s = k  # overwritten while descending: ends at the smallest such s
        d = abs(p - alpha)
        if d < best_d:  # strict '<' breaks ties toward the larger s / smaller p
            best_s, best_d = k, d
        elif p > alpha:
            break  # past alpha the distance only grows
    if mode is SelectionMode.STRICT_AT_MOST_ALPHA:
        if strict_s is None:
            raise InfeasibleError(
                f"no success count reaches p <= {alpha:g} at n={n} "
                f"(most extreme p is {min_attainable_p(n, tail):.6g})"
            )
        return strict_s
    return best_s


def select_barely_significant(
    n: int,
    alpha: float,
    mode: SelectionMode = SelectionMode.NEAREST_TO_ALPHA,
    tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC,
) -> CriticalValue:
    """Success count in (n/2, n] whose p-value sits at the significance threshold.

    NEAREST_TO_ALPHA minimizes |p_value(s) - alpha| (ties to the larger s);
    STRICT_AT_MOST_ALPHA returns the smallest s with p_value(s) <= alpha and
    raises InfeasibleError when even s = n stays above alpha.  p_achieved is
    taken from _select_tail's fold, so it is bit-equal to p_value by construction.
    """
    _check_n(n)
    _check_instance(mode, SelectionMode, "mode")
    _check_instance(tail, TailConvention, "tail")
    alpha = _check_unit(alpha, "alpha")
    s, log_tail = _select_tail(n, alpha, mode, tail)
    return CriticalValue(s=s, p_achieved=min(1.0, math.exp(_shift(tail) + log_tail)))


def _select_tail(n: int, alpha: float, mode: SelectionMode, tail: TailConvention) -> tuple[int, float]:
    """(s, ln P(X >= s)): _select_walk's pick, and its tail folded from the walk's own terms in
    _log_upper_tail's order, so bit-equal to _log_upper_tail(n, s) without a second pass."""
    terms: list[float] = []
    s = _select_walk(n, alpha, mode, tail, terms)
    # terms[i] is the term of k = top - i; the tail sums k = _tail_start(n, s) down to s.  That start
    # passes top only when s passes the walk's Chernoff bound, where p underflows to 0 (subnormal alpha).
    top = _walk_start(n, alpha, tail)
    start = _tail_start(n, s)
    return s, _log_sum(_log_terms(n, start, top) + terms[max(0, top - start):top - s + 1])
