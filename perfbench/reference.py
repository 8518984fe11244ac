"""Independent stdlib reference for the values threshold-lab prints.

Nothing here imports or copies library code.  Binomial(n, 1/2) tails are
exact rationals (math.comb + fractions) for n <= EXACT_N.  Above that they
are a 60-digit decimal computation: one anchor term from a Stirling series
with exact Bernoulli coefficients, then the exact term ratio (n-k)/(k+1),
summed until a geometric bound certifies the rest below 1e-40 of the sum.
Normal-distribution values come from statistics.NormalDist.

alpha enters as the exact binary value of the float the CLI parses, which
is the quantity the library compares against.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from statistics import NormalDist

EXACT_N = 2000
PREC = 60
_CUT = Decimal("1e-40")
_STIRLING_MIN = 1000  # below this, ln m! comes from math.factorial exactly
_STIRLING_TERMS = 12  # remainder < 1e-70 for every argument >= _STIRLING_MIN
_STD = NormalDist()

Number = Fraction | Decimal


def _bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1} by the standard recurrence (B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


_B = _bernoulli(2 * _STIRLING_TERMS + 1)


def _pi() -> Decimal:
    """pi to the current precision (Python decimal-module recipe)."""
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


@functools.lru_cache(maxsize=None)
def _half_ln_2pi() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        return (2 * _pi()).ln() / 2


@functools.lru_cache(maxsize=4096)
def ln_factorial(m: int) -> Decimal:
    """ln m! to about PREC digits."""
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        if m < _STIRLING_MIN:
            return Decimal(math.factorial(m)).ln()
        z = Decimal(m + 1)
        acc = (z - Decimal("0.5")) * z.ln() - z + _half_ln_2pi()
        for k in range(1, _STIRLING_TERMS + 1):
            b = _B[2 * k]
            acc += Decimal(b.numerator) / (Decimal(b.denominator) * (2 * k) * (2 * k - 1) * z ** (2 * k - 1))
        return acc


def _ln_pmf_decimal(n: int, k: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        return ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k) - n * Decimal(2).ln()


@functools.lru_cache(maxsize=1 << 16)
def pmf(n: int, k: int) -> Number:
    """P(X = k) for X ~ Binomial(n, 1/2)."""
    if n <= EXACT_N:
        return Fraction(math.comb(n, k), 1 << n)
    with localcontext() as ctx:
        ctx.prec = PREC
        return _ln_pmf_decimal(n, k).exp()


@functools.lru_cache(maxsize=1 << 16)
def upper_tail(n: int, k: int) -> Number:
    """P(X >= k) for X ~ Binomial(n, 1/2)."""
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    if n <= EXACT_N:
        c = total = math.comb(n, k)
        for j in range(k, n):
            c = c * (n - j) // (j + 1)  # exact: C(n, j+1) = C(n, j) (n-j) / (j+1)
            total += c
        return Fraction(total, 1 << n)
    with localcontext() as ctx:
        ctx.prec = PREC
        term = pmf(n, k)
        acc = term
        j = k
        while j < n:
            ratio = Decimal(n - j) / (j + 1)
            term = term * ratio
            acc += term
            j += 1
            # terms shrink geometrically once the ratio is below 1, so the
            # rest of the sum is at most term * r / (1 - r)
            r = Decimal(n - j) / (j + 1)
            if r < 1 and term * r / (1 - r) < _CUT * acc:
                break
        return +acc


def p_value(n: int, k: int, two_sided: bool) -> Number:
    """Sign-test p-value of (n, k): P(X >= k), or the doubled tail at max(k, n-k) capped at 1."""
    if not two_sided:
        return upper_tail(n, k)
    with localcontext() as ctx:
        ctx.prec = PREC
        p = 2 * upper_tail(n, max(k, n - k))
        return min(p, type(p)(1))


def _dist(p: Number, target: Fraction) -> Number:
    if isinstance(p, Fraction):
        return abs(p - target)
    with localcontext() as ctx:
        ctx.prec = PREC
        return abs(p - _dec(target))


def _dec(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return Decimal(x.numerator) / Decimal(x.denominator)


def _le(p: Number, target: Fraction) -> bool:
    return p <= target if isinstance(p, Fraction) else p <= _dec(target)


@functools.lru_cache(maxsize=1 << 14)
def select(n: int, alpha: float, strict: bool, two_sided: bool) -> int | None:
    """Barely-significant s in (n/2, n]: smallest s with p <= alpha (strict;
    None if none), or the s minimizing |p - alpha| with ties to the larger s.

    p is strictly decreasing on (n/2, n], so the first s with p <= alpha is
    found by galloping out from a normal-approximation guess and bisecting;
    the nearest s is that one or the one below it.
    """
    target = Fraction(alpha)
    floor = n // 2

    def above(k: int) -> bool:  # p(k) > alpha; s = n/2 and below are outside the domain
        return k <= floor or not _le(p_value(n, k, two_sided), target)

    if above(n):
        return None if strict else n
    z = -_STD.inv_cdf(alpha / 2 if two_sided else alpha)
    guess = min(n, max(floor, int(n / 2 + z * math.sqrt(n) / 2)))
    step = 4
    if above(guess):
        lo, hi = guess, min(n, guess + step)
        while above(hi):
            lo, step = hi, step * 2
            hi = min(n, hi + step)
    else:
        lo, hi = max(floor, guess - step), guess
        while not above(lo):
            hi, step = lo, step * 2
            lo = max(floor, lo - step)
    while hi - lo > 1:  # invariant: above(lo), not above(hi)
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    if strict or lo <= floor:
        return hi
    d_hi = _dist(p_value(n, hi, two_sided), target)
    d_lo = _dist(p_value(n, lo, two_sided), target)
    return hi if d_hi <= d_lo else lo


def ln(x: Number) -> float:
    """Natural log of a positive exact or decimal value, as a float."""
    with localcontext() as ctx:
        ctx.prec = PREC
        if isinstance(x, Fraction):
            return float(Decimal(x.numerator).ln() - Decimal(x.denominator).ln())
        return float(x.ln())


def beta_int(a: int, b: int) -> Fraction:
    """B(a, b) for positive integers, exactly."""
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))


@functools.lru_cache(maxsize=1 << 14)
def evidence(n: int, s: int, prior_a: int = 1, prior_b: int = 1, pi0: Fraction = Fraction(1, 2)) -> dict[str, Number]:
    """Point null theta = 1/2 against a Beta(a, b) alternative with integer shapes.

    Exact when n <= EXACT_N; above that only the flat prior is supported,
    where the alternative's marginal is exactly 1/(n+1).
    """
    l0 = pmf(n, s)
    with localcontext() as ctx:
        ctx.prec = PREC
        if isinstance(l0, Fraction):
            l1 = Fraction(math.comb(n, s)) * beta_int(s + prior_a, n - s + prior_b) / beta_int(prior_a, prior_b)
            pi0_x: Number = pi0
        else:
            if (prior_a, prior_b) != (1, 1):
                raise ValueError("the decimal route supports only the flat prior")
            l1 = Decimal(1) / (n + 1)
            pi0_x = _dec(pi0)
        post = pi0_x * l0 / (pi0_x * l0 + (1 - pi0_x) * l1)
        return {"l0": l0, "l1": l1, "bf01": l0 / l1, "posterior_h0": post, "odds_h1": l1 / l0}


# --- normal routines ------------------------------------------------------

def power(n: int, mu0: float, mu_alt: float, sigma: float, alpha: float) -> float:
    z_alpha = -_STD.inv_cdf(alpha)
    return _STD.cdf(abs(mu_alt - mu0) * math.sqrt(n) / sigma - z_alpha)


def required_n(mu0: float, mu_alt: float, sigma: float, alpha: float, beta: float) -> int:
    """Smallest n whose one-sided z-test power reaches 1 - beta, by forward search."""
    n = 1
    while power(n, mu0, mu_alt, sigma, alpha) < 1.0 - beta:
        n += 1
    return n


def p_rep(p: float) -> tuple[float, float]:
    """(p_rep, failure probability) for a one-tailed p-value."""
    z = -_STD.inv_cdf(p)
    return _STD.cdf(z / math.sqrt(2.0)), _STD.cdf(-z / math.sqrt(2.0))
