"""Exact binomial mass, sign-test tail probabilities, and critical-count selection.

Everything here is computed in log space via log-gamma, so large trial counts
neither overflow nor lose the tail mass to underflow.  The only distribution
involved is Binomial(n, theta); p-values are always evaluated under the null
theta = 0.5.

A sign-test tail costs O(sqrt(n)) terms, not O(n): it starts at a cut-off
ceil(6 sqrt(n)) + 10 terms above max(s, n/2), and the mass above the cut-off
is below 2**-60 of the mass it keeps, far under half an ulp of the sum.
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


class InfeasibleError(ValueError):
    """No success count can satisfy the requested significance constraint."""


@dataclass(frozen=True)
class BinomialOutcome:
    """n trials, s successes."""

    n: int
    s: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"trial count n must be a positive integer, got {self.n!r}")
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

    The sum starts at _tail_start(n, s), at most ceil(6 sqrt(n)) + 10 terms
    above max(s, n/2), so it costs O(sqrt(n)) terms; the mass it skips is far
    under half an ulp of the result.  Adding the smallest terms first keeps
    the running sum free of cancellation.
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
    if tail is TailConvention.ONE_SIDED_UPPER:
        return min(1.0, math.exp(_log_upper_tail(n, s)))
    hi = max(s, n - s)
    return min(1.0, math.exp(_LN2 + _log_upper_tail(n, hi)))


def min_attainable_p(n: int, tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC) -> float:
    """Smallest p-value any success count can reach at this n (attained at s = n)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"trial count n must be a positive integer, got {n!r}")
    return p_value(BinomialOutcome(n, n), tail)


def _walk_start(n: int, alpha: float, tail: TailConvention) -> int:
    # Chernoff: P(X >= n/2 + z*sqrt(n)/2) <= exp(-z^2/2), so every s whose
    # tail probability can reach alpha lies below n/2 + zb*sqrt(n)/2 with
    # zb = sqrt(2*ln(1/alpha_tail)).  The +20 sigma / +10 slack puts the
    # accumulation start far enough out that the skipped upper-tail mass is
    # below one ulp of every tail sum the walk actually compares.
    tail_alpha = alpha / 2.0 if tail is TailConvention.TWO_SIDED_SYMMETRIC else alpha
    zb = math.sqrt(2.0 * math.log(1.0 / tail_alpha))
    return min(n, int(math.ceil(n / 2.0 + (zb + 20.0) * math.sqrt(n) / 2.0)) + 10)


def _select_walk(n: int, alpha: float, mode: SelectionMode, tail: TailConvention) -> int:
    """Pick the barely-significant s in (n/2, n] by walking s downward.

    The walk keeps a running upper-tail sum over the terms of _log_terms; each
    step down adds one term, and it starts O(sqrt(n)) terms above n/2
    (_walk_start), so the whole selection costs O(sqrt(n)) terms.  The
    p-value strictly increases as s decreases, which justifies both the
    strict-mode bookkeeping and the early break.  Its running p is not
    p_value's bit for bit, since the two sums start at different terms.
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
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"trial count n must be a positive integer, got {n!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    s = _select_walk(n, alpha, mode, tail)
    return CriticalValue(s=s, p_achieved=p_value(BinomialOutcome(n, s), tail))
