"""Exact binomial mass, sign-test tail probabilities, and critical-count selection.

Everything here is computed in log space via log-gamma, so large trial counts
neither overflow nor lose the tail mass to underflow.  The only distribution
involved is Binomial(n, theta); p-values are always evaluated under the null
theta = 0.5.

A sign-test tail costs O(sqrt(n)) terms, not O(n): it starts at a cut-off
ceil(6 sqrt(n)) + 10 terms above max(s, n/2), and the mass above the cut-off
is below 2**-60 of the mass it keeps, far under half an ulp of the sum.  The
selection walk starts from the same cut-off.  The tail routines take n <= MAX_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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

# Largest n of the O(sqrt(n)) tail routines: a selection there takes tens of ms,
# and lgamma(n + 1), which log_choose differences, has an ulp of 3e-8.
MAX_N = 10**7


class InfeasibleError(ValueError):
    """No success count can satisfy the requested significance constraint."""


def _check_n(n, name: str = "trial count n", limit: int | None = MAX_N) -> None:
    """Reject an n that is not a positive int, or that exceeds `limit`."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")
    if limit is not None and n > limit:
        raise ValueError(f"{name} must be at most {limit} (the largest n the tail routines accept), got {n}")


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
        t = self.theta
        if not isinstance(t, (int, float)) or isinstance(t, bool) or not 0.0 <= t <= 1.0:
            raise ValueError(f"theta must be a real number in [0, 1], got {t!r}")


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
    n, s = outcome.n, outcome.s
    theta = float(model.theta)
    if theta == 0.0:
        return 0.0 if s == 0 else -math.inf
    if theta == 1.0:
        return 0.0 if s == n else -math.inf
    if theta == 0.5:
        # the weight collapses to n*ln(1/2), independent of s, so the
        # s <-> n-s symmetry of log_choose survives to the last bit
        return log_choose(n, s) - n * _LN2
    return log_choose(n, s) + s * math.log(theta) + (n - s) * math.log1p(-theta)


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _log_terms(n: int, start: int, stop: int):
    """(k, ln P(X = k)) under Binomial(n, 0.5) for k = start, start-1, ..., stop+1.

    Each term is the float expression log_pmf evaluates at theta = 0.5, with
    the same (lo, hi) ordering, so it is bit-equal to log_pmf; lgamma(n+1) and
    n ln 2 are computed once and no dataclass is built per term.
    """
    lgamma = math.lgamma
    lg = lgamma(n + 1)
    w = n * _LN2
    for k in range(start, stop, -1):
        lo, hi = (k, n - k) if k <= n - k else (n - k, k)
        yield k, lg - lgamma(lo + 1) - lgamma(hi + 1) - w


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
    acc = -math.inf
    for _, term in _log_terms(n, _tail_start(n, s), s - 1):
        acc = _logaddexp(acc, term)
    return acc


def p_value(outcome: BinomialOutcome, tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC) -> float:
    """Sign-test p-value of the outcome under theta = 0.5.

    One-sided: P(X >= s).  Two-sided symmetric: P(X >= max(s, n-s)) +
    P(X <= min(s, n-s)), which by the theta = 0.5 symmetry equals
    2 * P(X >= max(s, n-s)); clamped to 1.0 when both tails overlap at s = n/2.
    """
    n, s = outcome.n, outcome.s
    _check_n(n)
    if tail is TailConvention.ONE_SIDED_UPPER:
        return min(1.0, math.exp(_log_upper_tail(n, s)))
    hi = max(s, n - s)
    return min(1.0, math.exp(_LN2 + _log_upper_tail(n, hi)))


def min_attainable_p(n: int, tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC) -> float:
    """Smallest p-value any success count can reach at this n (attained at s = n)."""
    _check_n(n)
    return p_value(BinomialOutcome(n, n), tail)


def _walk_start(n: int, alpha: float, tail: TailConvention) -> int:
    # Chernoff: P(X >= n/2 + z*sqrt(n)/2) <= exp(-z^2/2), so p <= alpha from n/2 + zb*sqrt(n)/2 up
    # and the answer lies at or below it.  zb is taken in log space: a subnormal alpha cannot overflow.
    zb = math.sqrt(-2.0 * (math.log(alpha) - (_LN2 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 0.0)))
    return _tail_start(n, math.ceil(n / 2.0 + zb * math.sqrt(n) / 2.0))


def _select_walk(n: int, alpha: float, mode: SelectionMode, tail: TailConvention) -> int:
    """Pick the barely-significant s in (n/2, n] by walking s downward.

    The walk keeps a running upper-tail sum over the terms of _log_terms; each
    step down adds one term.  It starts at _walk_start, the _tail_start cut-off
    above a Chernoff bound on the answer, so it costs O(sqrt(n)) terms, and
    from the bound down its sums miss under 2**-60 of their mass.  p strictly
    increases as s decreases, which justifies the strict-mode bookkeeping and
    the early break; it is not p_value's bit for bit (the sums start apart).
    """
    shift = _LN2 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 0.0
    acc = -math.inf
    best_s = n
    best_d = math.inf
    strict_s: int | None = None
    for k, term in _log_terms(n, _walk_start(n, alpha, tail), n // 2):
        acc = _logaddexp(acc, term)
        p = min(1.0, math.exp(shift + acc))
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
    raises InfeasibleError when even s = n stays above alpha.  The returned
    p_achieved is re-derived through p_value (O(sqrt(n)) terms), so it is
    bit-equal to what any later re-check of (n, s, tail) computes.
    """
    _check_n(n)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    s = _select_walk(n, alpha, mode, tail)
    return CriticalValue(s=s, p_achieved=p_value(BinomialOutcome(n, s), tail))
