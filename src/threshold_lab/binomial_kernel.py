"""Exact binomial mass, sign-test tail probabilities, and critical-count selection.

Everything here is computed in log space via log-gamma, so large trial counts
neither overflow nor lose the tail mass to underflow.  The only distribution
involved is Binomial(n, theta); p-values are always evaluated under the null
theta = 0.5.

A sign-test tail costs O(sqrt(n)) terms, not O(n): for s >= n/2 it starts at
the cut-off ceil(n/2 + sqrt((s - n/2)^2 + (n/2) L)) + 2, L = 60 ln 2 +
ln(1 + sqrt(n / (480 ln 2))), which comes nearer s as s moves above n/2; the
mass above it is below 2**-60 of the mass it keeps, far under half an ulp of
the sum.  A one-sided tail below n/2 is the complement 1 - P(X >= n - s + 1),
so every term summed lies at or above n/2 (at n = 1e6, 7,765 lgamma calls at
s = 499,000 and 1 at s = 0).  The selection walk decides every alpha on
p_value's own folds, each p times 2**512, so that none is subnormal, and tests
s = n exactly, 2**-n <= alpha (doubled two-sided): a pick and its p, bit-equal
to p_value, depend on p_value alone.  Each alpha is one monotone search from a
guessed pick (the normal quantile, capped at Hoeffding's bound), over one list
of terms per n, each p read once on its own cut-off's fold.  Where a margin
lies within _tol, one rounding bound, find_crossing's scan over n (_march)
hands over to a walk; the scan starts at its first feasible n, in closed form,
and between walks steps pmf(s - 1), in the same unit, by its exact term ratio,
so a scanned n takes no lgamma and no exp.  Given a floor under ln(L0 (n + 1)), the scan
yields only the n whose (n + 1) pmf(s - 1) reaches it, each with three lgamma
calls for its ln L0, so find_crossing scores only the n near its level; from
N0 = max(256, 16 z^2) on it jumps to the first n where a certified envelope of
(n + 1) pmf(s - 1), of order alpha sqrt(n), reaches the floor, or ends where
none does up to n_max.  The tail routines take n <= MAX_N.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from ._checks import MAX_N, InfeasibleError, _Checked, _check_instance, _check_n, _check_real, _check_unit, _shown
from .gaussian_numerics import _inv_cdf

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
_SCALE, _LN_SCALE = 2.0 ** 512, 512.0 * _LN2  # the unit of every decision (_tol): no value compared in it is subnormal


class BinomialOutcome(_Checked, NamedTuple("BinomialOutcome", [("n", int), ("s", int)])):
    """n trials, s successes; n at most 1e305."""

    __slots__ = ()

    def __new__(cls, n: int, s: int):
        _check_n(n, limit=1e305)  # lgamma(n + 1), the ln n! in ln L0, overflows a float near 2.56e305
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s <= n:
            raise ValueError(f"success count s must be an integer in [0, {_shown(n)}], got {_shown(s)}")
        return super().__new__(cls, n, s)


class BinomialModel(_Checked, NamedTuple("BinomialModel", [("theta", float)])):
    """Success probability theta in [0, 1]; the null model is theta = 0.5."""

    __slots__ = ()

    def __new__(cls, theta: float):
        _check_real(theta, "theta", "a real number in [0, 1]", lambda t: 0.0 <= t <= 1.0)
        return super().__new__(cls, theta)


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
    """[_log_term(n, k) for k = start, start-1, ..., stop+1], for stop >= (n - 1) // 2: every k lies at or above
    n/2, where log_choose's lower argument is n - k, so one lgamma map pair gives every term."""
    lgamma, lg, w = math.lgamma, math.lgamma(n + 1), n * _LN2
    return [lg - a - b - w for a, b in zip(map(lgamma, range(n - start + 1, n - stop + 1)),
                                           map(lgamma, range(start + 1, stop + 1, -1)))]


def _log_sum(terms: list[float], acc: float = -math.inf) -> float:
    """ln of exp(acc) plus the sum of exp(t) over the log terms, folded in list order."""
    exp, log1p = math.exp, math.log1p
    for t in terms:
        acc = t + log1p(exp(acc - t)) if t > acc else acc + log1p(exp(t - acc))
    return acc


_L60 = 60.0 * _LN2  # ln 2**60: the skipped mass of a tail is below 2**-60 of the kept mass


def _tail_start(n: int, s: int) -> int:
    # Certified cut-off for s >= n/2, with m = n/2, d = s - m and J = start - s.  For k = m + y >= s,
    # pmf(k+1)/pmf(k) <= (1 - y/m)/(1 + y/m) <= exp(-2y/m), so the mass above start is at most
    # pmf(s) exp(-(J+1)(2d+J)/m) (1 + m/(2(d+J+1))).  With (d+J)^2 >= d^2 + mL below, (J+1)(2d+J) >= mL and
    # d + J + 1 >= sqrt(60 m ln 2), so that mass is below 2**-60 of the kept mass (checked with exact integers
    # in the tests); the + 2 covers rounding.  L does not depend on s, so the cut-off never falls as s grows (a walk's
    # terms, built down from its highest cut-off, hold each tail it folds), and for n <= MAX_N it stays within
    # s + ceil(6 sqrt(n)) + 10, as _march's tol assumes.
    m = 0.5 * n
    L = _L60 + math.log1p(math.sqrt(m / (4.0 * _L60)))
    return min(n, math.ceil(m + math.sqrt((s - m) ** 2 + m * L)) + 2)


def _log_upper_tail(n: int, s: int) -> float:
    """ln P(X >= s) under Binomial(n, 0.5): from s >= n/2, summed from the cut-off _tail_start(n, s) in, the smallest
    term first, free of cancellation; below n/2, 1 - P(X >= n - s + 1), which keeps its digits near 1."""
    if 2 * s < n:
        return math.log1p(-math.exp(_log_upper_tail(n, n - s + 1)))
    return _log_sum(_log_terms(n, _tail_start(n, s), s - 1))


def _shift(tail: TailConvention) -> float:
    # ln of the factor between p and the upper-tail probability it is computed from
    return _LN2 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 0.0


def _tail_p(log_tail: float, tail: TailConvention) -> float:
    # the p-value whose upper tail has this ln, clamped to 1.0 where the two tails overlap
    return min(1.0, math.exp(_shift(tail) + log_tail))


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
    return _tail_p(_log_upper_tail(n, hi), tail)


def min_attainable_p(n: int, tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC) -> float:
    """Smallest p-value at this n, that of s = n: c 2**-n exactly (c = 2 two-sided), the walk's feasibility bound."""
    _check_n(n)
    _check_instance(tail, TailConvention, "tail")
    return math.ldexp(2.0 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 1.0, -n)


def _tol(alpha: float, m: float, lg: float) -> float:
    """F _SCALE eps alpha (lg + m (1 - ln alpha)), F = 37: how far _march's decision margins, times _SCALE, may lie from
    a fresh walk's, after m rounding steps and walks whose errors total at most lg, linear in both, so the scan sums it
    over what happened, each error once.  Each decision compares alpha _SCALE, exact, with a walk's c exp(ln P(X >= s) +
    512 ln 2) or the scan's c T and c (T + pm1); for n <= MAX_N, pm1 = pmf(s-1) >= alpha/(c (n+1)) and T >= pmf(s) >=
    pm1/n, so none is subnormal: each rounds relatively.  Where a margin d1 = alpha - p(s), d2 = p(s-1) - alpha or d2 -
    d1 is thin, p(s) <= alpha and p(s-1) <= 2 alpha.  A fold step rounds ln p by eps (|ln p| + 2) at most, and p (|ln p|
    + 2) grows with p: d2 - d1 moves 8 eps alpha (1 - ln alpha), 16 in two walks, _march's walk and a later fresh one, 7
    sqrt(n_max) + 10 steps each (_tail_start).  A shifted exp, exp(x + 512 ln 2), errs by a factor 1 + delta, |delta| <=
    257.2 eps < 18.5 eps 14: the float 512 ln 2 lies 53.5 eps off, the sum rounds by eps/2 |x + 512 ln 2| <= 203.2 eps
    (x >= ln(2**-1074/(2e7 + 2))) and the exp by eps/2.  It moves d2 - d1 by 2 delta alpha for a walk's p (p(s) + p(s-1)
    lies within tol of 2 alpha there), 14 in lg, and by 4 delta alpha for the scan's T, taken at a walk from the pick's
    tail (a nearest pick's p lies below 2 alpha), 28: the scan adds 42, for its T and a fresh walk.  A scan step (m = 1)
    rounds T and pm1 twice each, so pm1 drifts 2 eps a step; summed by parts, a rounding in pm1 moves T by its share of
    a difference of two tails, each at most p(s-1)/c, and c pm1 <= alpha s/(n-s+1) <= 8 alpha (1 - ln alpha)
    (Hoeffding): a step moves d1, d2, d2 - d1 by 14, 22, 36 eps alpha (1 - ln alpha) at most.  A walk's pm1 =
    exp(_log_term(n, s-1) + 512 ln 2) errs by 1 + delta, |delta| <= 18.5 eps lg + eps/2 for lg = lgamma(n_max+1) + 14:
    lgamma values within 8 ulps, the lower two summing to at most lgamma(n_max+1); three subtractions; n ln 2; and the
    shifted exp's 14.  delta is shared by the terms stepped from that pm1: c T errs by c delta (T1 - T0), T there and at
    the next walk both in [0, alpha/c], so d2 - d1 by 2 delta alpha, once per walk.  So F needs 36 for m's eps term (a
    scan step's) and 37 for lg's (delta's eps/2 fits the spare unit of the m that takes the walk).
    """
    return 37.0 * math.ulp(1.0) * (alpha * _SCALE) * (lg + m * (1.0 - math.log(alpha)))


def _select_walk(n: int, alphas: tuple[float, ...], mode: SelectionMode, tail: TailConvention) -> list:
    """One (s, p, ln P(X >= s)) per alpha, or None where no s attains it: the barely-significant s in (n/2, n], its
    p-value, and the ln of its upper tail, which only _march reads.

    Every decision is on p_value's own fold.  p(n) = 2**-n, doubled two-sided, is tested exactly, so s = n attains alpha
    where it is at most alpha; at odd n, P(X >= (n+1)/2) = 1/2 exactly, by symmetry; every other p(k) is c exp(ln P(X >=
    k) + 512 ln 2) (c = 2 two-sided) against alpha 2**512, _tol's unit, where none is subnormal, the ln folded from k's
    own cut-off _tail_start(n, k), as _log_upper_tail folds it.  From one k to the next the true tail moves by pmf(k),
    over 1e-4 of it for n <= MAX_N, far beyond a fold's rounding, so these p fall as k grows and the strict s, p(s) <=
    alpha < p(s - 1) (or s = n/2 + 1 where no p above n/2 exceeds alpha), is one s whatever the walk starts from.  The
    nearest s is the strict s or s - 1, whichever p lies nearer alpha, ties to the strict s, the rule _march
    applies.  The pick's p is its own fold's, bit-equal to p_value.

    Each alpha's search starts at a guess g = ceil(n/2 + 1/2 + z sqrt(n)/2), z the normal quantile Phi^-1(1 - alpha/c)
    less Cornish-Fisher's kurtosis term z (z^2 - 3)/(12 n), capped at Hoeffding's bound ceil(n/2 + sqrt(-2 ln(alpha/c))
    sqrt(n)/2), from which every p is at most alpha, or at that bound where alpha/c rounds to 0.  It steps up while p(s)
    > alpha, then down while p(s - 1) <= alpha: the strict s from any start, so the guess, mostly the strict s itself,
    and its cap only save work.  Each p(k) is read once, on k's own fold: it goes on from the deepest read of k's
    cut-off where k lies below it, as one fold from the cut-off would, and sums afresh otherwise.  Alphas (strictly
    decreasing) are searched smallest first, so reads go down, over one list of terms from the highest guess's cut-off
    down to the lowest guess's g - 1, grown on demand; alphas whose cut-offs coincide share one fold, which at every n
    with _tail_start(n, n//2 + 1) = n is all of them.
    """
    c_tail = 2.0 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 1.0  # p / P(X >= s)
    shift, nearest, half = _shift(tail), mode is SelectionMode.NEAREST_TO_ALPHA, n // 2
    every = _tail_start(n, half + 1) == n  # every tail folds from k = n

    def cut(k):
        return n if every else _tail_start(n, k)

    guesses, hi, low, root = [], half + 1, n, math.sqrt(n) / 2.0
    for alpha in alphas:
        if math.ldexp(c_tail, -n) > alpha:  # p(n) > alpha: no s attains it, in either mode
            guesses.append(None)
            continue
        g = min(n, math.ceil(n / 2.0 + math.sqrt(-2.0 * (math.log(alpha) - shift)) * root))  # Hoeffding's bound
        if alpha / c_tail:  # z, the normal quantile, less Cornish-Fisher's kurtosis term (excess kurtosis -2/n)
            z = -_inv_cdf(alpha / c_tail)
            g = max(half + 1, min(g, math.ceil(n / 2.0 + 0.5 + (z - z * (z * z - 3.0) / (12.0 * n)) * root)))
        guesses.append(g)
        hi, low = max(hi, g), min(low, g)
    top = hi  # the highest guess, whose p the walk reads first
    hi = top_cut = cut(top)  # the cut-off never falls as k grows
    terms = _log_terms(n, hi, max(half, low - 2))  # terms[hi - k] = _log_term(n, k), down to the lowest guess's k - 1
    folds, tails = {}, {}  # folds[t] = (k, ln P(X >= k)): the deepest read from cut-off t; tails[k]: k's own fold

    def p(k):  # c P(X >= k) times _SCALE, on k's own fold, p_value's; P(X >= (n+1)/2) = 1/2 at odd n, by symmetry
        nonlocal hi
        if k <= half:  # the walk stops above n/2
            return math.inf
        if k not in tails:
            t = top_cut if k == top else cut(k)
            if t > hi:
                terms[:0], hi = _log_terms(n, t, hi), t
            if hi - len(terms) >= k:
                terms.extend(_log_terms(n, hi - len(terms), k - 1))
            first, acc = folds.get(t, (t + 1, -math.inf))
            if k < first:  # go on from the deepest read, as one fold from t would
                tails[k] = acc = _log_sum(terms[hi - first + 1:hi - k + 1], acc)
                folds[t] = k, acc
            else:
                tails[k] = _log_sum(terms[hi - t:hi - k + 1])
        return c_tail * _SCALE / 2.0 if 2 * k == n + 1 else c_tail * math.exp(tails[k] + _LN_SCALE)

    picks = []
    for alpha, s in zip(reversed(alphas), reversed(guesses)):  # the smallest alpha first: each fold's reads go down
        if s is None:
            picks.append(None)
            continue
        a, up = alpha * _SCALE, p(s)
        while s < n and up > a:  # p(n) <= alpha holds exactly
            s, up = s + 1, p(s + 1)
        down = p(s - 1)
        while down <= a:
            s, up, down = s - 1, down, p(s - 2)
        s -= nearest and down - a < a - up
        picks.append((s, min(1.0, math.exp(shift + tails[s])), tails[s]))  # _tail_p's p, bit-equal to p_value
    return picks[::-1]


def select_barely_significant(
    n: int,
    alpha: float,
    mode: SelectionMode = SelectionMode.NEAREST_TO_ALPHA,
    tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC,
) -> CriticalValue:
    """Success count in (n/2, n] whose p-value sits at the significance threshold.

    STRICT_AT_MOST_ALPHA returns the smallest s with p_value(s) <= alpha; NEAREST_TO_ALPHA returns that s or s - 1
    (where s - 1 > n/2), whichever p_value lies nearer alpha, ties to the strict s.  Both raise InfeasibleError when
    even s = n stays above alpha (_select_walk's None).  The walk decides each s on p_value's own fold, times 2**512,
    so no p is rounded as a subnormal, and p_achieved is that fold's p, bit-equal to p_value by construction; at an
    exact tie (p = alpha) a strict pick's p_achieved may exceed alpha by rounding, as at (3, .5, one):
    0.5000000000000004.
    """
    _check_n(n)
    _check_instance(mode, SelectionMode, "mode")
    _check_instance(tail, TailConvention, "tail")
    alpha = _check_unit(alpha, "alpha")
    [pick] = _select_walk(n, (alpha,), mode, tail)
    if pick is None:
        raise InfeasibleError(f"no success count reaches p <= {alpha:g} at n={n} "
                              f"(most extreme p is {min_attainable_p(n, tail):.6g})")
    return CriticalValue(*pick[:2])


def _cap(alpha: float, c: float) -> tuple[float, int]:
    """(z, N0): for every n >= N0 the strict threshold s at alpha, p(s) <= alpha < p(s-1) with p = c P(X >= s) (c = 2
    two-sided), lies below n/2 + z sqrt(n)/2 + 3/2, with z >= 1 independent of n and N0 = max(256, ceil(16 z^2)), so
    that x = sqrt(n) >= max(16, 4z).

    For n/2 < k < n the term ratios (n-j)/(j+1) fall from j = k on, so P(X >= k) <= pmf(k) (k+1)/(2d+1), d = k - n/2, a
    geometric tail; Robbins' Stirling bounds, 1/(12m+1) < ln m! - ln(sqrt(2 pi m) (m/e)^m) < 1/(12m), and D(1/2 + t ||
    1/2) >= 2t^2 give pmf(k) <= sqrt(n/(2 pi k (n-k))) exp(-2d^2/n).  Their product R(d) falls on 1 <= d <= n/4, where
    the derivative of ln R is at most 4/n - 2/(2d+1) - 4d/n < 0.  At d0 = (z x + 1)/2 it is exp(-z^2/2)/(z sqrt(2 pi))
    M, the normal tail's bound with its prefactor, where M <= (1 + z/x + 3/n) exp(-z/x - 1/(2n)) (1 - (z/x +
    1/n)^2)^-1/2 <= exp(5/(2n)) (1 - (1/4 + 1/256)^2)^-1/2 < 1.045, as (1 + t) e^-t <= 1.  So where z^2/2 + ln z >= L =
    ln(1.045 c / (alpha sqrt(2 pi))), every k >= n/2 + d0 has c P(X >= k) <= c R(d0) <= alpha, the first such k lying
    within d0 + 1 <= n/4 of n/2; as p(s-1) > alpha where s - 1 > n/2, s - 1 < n/2 + d0.  z is Newton's iterate on that
    equation from sqrt(2L), or 1 where L <= 1/2: z^2/2 + ln z is convex for z >= 1, so every iterate lies above the
    root, and the 2**-20 added covers the roundings of L and of the steps, under 1e-12.  Two-sided, z is 2.63 at alpha =
    .01 and 38.5 at 5e-324, and N0 256 and 23,700: N0 grows with z^2, so the bound holds for every alpha.  (Hoeffding's
    bound, without the prefactor, puts z at 3.26 at .01.)
    """
    big_l = math.log(1.045 * c / math.sqrt(2.0 * math.pi)) - math.log(alpha)  # alpha / c may round to 0: log apart
    z = math.sqrt(2.0 * max(big_l, 0.5))
    for _ in range(4):
        z = max(1.0, z - (0.5 * z * z + math.log(z) - big_l) / (z + 1.0 / z))
    z += 2.0 ** -20
    return z, max(256, math.ceil(16.0 * z * z))


def _march(alpha: float, mode: SelectionMode, tail: TailConvention, n_max: int, floor: float = -math.inf):
    """(n, s, ln L0) for each n in 1 ..  n_max at which alpha is attainable and ln(L0 (n+1)) may reach floor: s is
    _select_walk's pick, ln L0 _log_term(n, s).

    One forward scan carries the strict threshold s (the smallest s > n/2 with p <= alpha), T = P_n(X >= s) and pm1 =
    pmf_n(s-1) in linear space, times _SCALE, as it compares them with alpha and tol times _SCALE (_tol): T += pm1/2
    (the last n's pm1), and s moves up at most one, as P_n(X >= s+1) <= P_{n-1}(X >= s) <= P_n(X >= s).  pm1 steps by
    its exact ratio, n / (2 (n-s+1)) where s stays and n / (2s) where it moves up (the old s), so a scanned n takes no
    lgamma and no exp.  The scan starts at the first n with c 2**-n <= alpha, the walk's exact rule, in closed form: n =
    c - e for alpha = m 2**e, 1/2 <= m < 1.  One walk in the scan's own mode, there and where a margin (_tol's d1, d2,
    or d2 - d1 in nearest mode) lies within tol, yields its pick and sets T = exp(ln P(X >= pick) + 512 ln 2) from the
    walk's own fold, s = pick (pick + 1 where a nearest pick's c T lies above alpha, and T drops its term) and pm1 =
    exp(_log_term(n, s-1) + 512 ln 2); a sure margin makes s the strict threshold whatever pick set it (too large an s
    leaves d2 <= tol, too small d1).  tol is _tol over what happened since the last walk, carried as one float:
    _tol(alpha, 7 sqrt(n_max) + 10, lg + 42) at the walk, lg = lgamma(n_max+1) + 14, plus _tol(alpha, 1, 0) a step; its
    n_max <= 1e7 sums, eps/2 each, take under 3e-9 of it, inside F's spare 1/37.

    A floor yields only the n where (n+1) pm1 reaches low = exp(floor - margin + 512 ln 2), taken once per scan, margin
    = eps (64 lg + 2 n_max + 745 + 2 + 250).  As s > n/2, pmf(s) = pmf(s-1) (n-s+1)/s <= pmf(s-1), so (n+1) pm1 bounds
    the L0 (n+1) of either pick, s or s - 1.  The pick's ln L0 and the last walk's ln pm1 each err by at most 18.5 eps
    lg + eps/2, as in _tol: 37 of the 64 (1.7 seen, n_max to 20000).  pm1 drifts 2 eps a step from the last walk, which
    may lie n_max steps back.  floor - margin rounds by eps |floor| / 2, under the 745, as find_crossing's finite floors
    (_ln_bf_floor at even prior odds) lie in [-745, 35]; the + 2 covers the two eps/2 and a rounding each of (n+1) pm1
    and low's exp, both normal; the shift's sum rounds by eps/2 |floor - margin + 512 ln 2| <= 195 eps and its float 512
    ln 2 lies 53.5 eps off: the 250.  The default floor, -inf, yields every feasible n.

    A finite floor also takes a certified envelope, once, at the first feasible n >= N0, from _cap's z and N0, taken in
    one call before the scan.  From N0, with x = sqrt(n), an integer J >= 1 and rho = (n - z x - 2J + 1)/(n + z x + 2J +
    1), the term ratio (n-k)/(k+1) at k = _cap's bound on s plus J - 2: the ratios from k = s-1 to s+J-2 fall as k grows
    (the pmf is log-concave), so each is at least rho, and alpha/c >= P(X >= s) >= pmf(s) (1 - rho^J)/(1 - rho) and
    pmf(s-1) <= pmf(s)/rho give pmf(s-1) <= (alpha/c) (1 - rho)/(rho (1 - rho^J)), which grows as rho falls.  J =
    floor(2x/5), within 2% of the best J at every z, keeps s + J - 1 <= n, as x >= 4z.  For a fixed J, rho grows with n,
    so from m, with env that bound at m times _SCALE, (n+1) pmf(s-1) _SCALE <= t env < low at every n with n + 1 <= t =
    low/(env (1 + 2**-40)): the float env, from sqrt, z x, q = 2 z x + 4J, the two sums, log1p and expm1 on, errs by
    under 32 eps, and t by eps/2, both inside the 2**-40.  m moves to floor(t) while that gains more than m/256; as env
    falls like 1/sqrt(m), ln(reach/m) about halves a round: about ten rounds, each of O(1) float work.  Where t passes
    n_max + 1 the scan ends.  Where m lies more than 5 sqrt(m) past n, the scan jumps there, with a walk, which costs
    4.2 to 5.2 sqrt(n) scan steps (n = 256 to 8000, a 2-core Xeon); otherwise it scans on from n.  A skipped n scores
    below the level: its true (n+1) pmf(s-1) _SCALE lies below low, whose ln lies at least 64 eps lg + 375 eps under
    floor + 512 ln 2 (its roundings take 622 eps of the margin's 997), more than the 18.5 eps lg of the pick's ln L0
    (_tol).  (.01, .7) jumps from 256 to 3,587 and touches at 6,520; (1e-4, .9) and (.01, .9999) end at N0 = 256 for
    n_max up to 1e7.
    """
    c = 2.0 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 1.0
    nearest = mode is SelectionMode.NEAREST_TO_ALPHA
    inf, exp = math.inf, math.exp
    lg = math.lgamma(n_max + 1) + 14.0  # bounds every lgamma the scan takes, and each walk's pm1 shift (_tol)
    at_walk, step = _tol(alpha, 7.0 * math.sqrt(n_max) + 10.0, lg + 42.0), _tol(alpha, 1.0, 0.0)
    a, low = alpha * _SCALE, exp(floor - math.ulp(1.0) * (64.0 * lg + 2.0 * n_max + 747.0 + 250.0) + _LN_SCALE)
    start = walk_at = int(c) - math.frexp(alpha)[1]  # the first feasible n, in closed form
    z, n0 = _cap(alpha, c) if floor > -inf else (0.0, n_max + 1)
    stop = min(max(start, n0), n_max + 1)  # where the envelope is due
    while True:
        for n in range(start, stop):
            half, fresh = n // 2, n == walk_at
            if not fresh:
                T += 0.5 * pm1
                moved = c * T > a or s <= half
                tol += step
                pm1 = pm1 * n / (2 * (s if moved else n - s + 1))
                s += moved
            while True:
                if fresh:
                    [(pick, _, log_tail)] = _select_walk(n, (alpha,), mode, tail)
                    T, tol = exp(log_tail + _LN_SCALE), at_walk
                    moved = nearest and c * T > a
                    s = pick + moved
                    pm1 = exp(_log_term(n, s - 1) + _LN_SCALE)
                if moved:
                    T -= pm1
                d1 = a - c * T
                d2 = c * (T + pm1) - a if s - 1 > half else inf  # the walk stops above n/2
                if fresh or d1 > tol and d2 > tol and (not nearest or abs(d2 - d1) > tol):  # a walk's pick, or sure s
                    break
                fresh = True
            if (n + 1) * pm1 < low:  # (n + 1) pmf(s - 1) bounds the pick's L0 (n + 1): below the floor, skip n
                continue
            pick = pick if fresh else s - (nearest and d2 < d1)
            yield n, pick, _log_term(n, pick)
        if stop > n_max:
            return
        m, unit = stop, a / c  # rule out, in rounds, every n from stop on whose envelope lies below low
        while True:
            x = math.sqrt(m)
            j, zx = int(0.4 * x), z * x
            q = 2.0 * zx + 4 * j
            t = low / (unit * q / (m - zx - 2 * j + 1) / -math.expm1(j * math.log1p(-q / (m + zx + 2 * j + 1)))
                       * (1.0 + 2.0 ** -40))
            if t > n_max + 1:  # no n up to n_max can reach the floor
                return
            if t < m + m / 256:
                break
            m = int(t)
        start, stop = stop, n_max + 1
        if m - start > 5 * math.isqrt(m):  # the skip outweighs a walk
            start = walk_at = m
