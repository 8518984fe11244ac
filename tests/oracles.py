"""Float oracles the test suite trusts beside the exact reference.

Exact values (pmfs, tails, p-values, selections, flat-prior posteriors) come
from perfbench/reference.py, which the benchmark's answer check uses too; it
is imported as `reference`. What stays here is what that reference does not
do: reference_walk restates the library's float walk (n >= 400) on its own, and the two
Beta-marginal routines cover non-integer prior shapes.  Nothing here shares
code with threshold_lab.
"""

from __future__ import annotations

import functools
import math

from scipy import integrate, special


# --- the per-term selection walk -------------------------------------------

def _cutoff(n: int, s: int) -> int:
    # the first index summed for a tail from s >= n/2: its distance x from the mode n/2 solves
    # x^2 = (s - n/2)^2 + (n/2) L, L = ln 2**60 + ln(1 + sqrt(n / (480 ln 2))), rounded up and padded by 2
    half, budget = n / 2.0, 60.0 * math.log(2.0)
    ln_bound = budget + math.log1p(math.sqrt(half / (4.0 * budget)))
    return min(n, math.ceil(half + math.sqrt((s - half) ** 2 + half * ln_bound)) + 2)


def _upper_term(n: int, k: int, lg: float, w: float) -> float:
    # ln P(X = k) under Binomial(n, 1/2) for k > n/2, with the lgamma arguments in that order
    return lg - math.lgamma(n - k + 1) - math.lgamma(k + 1) - w


def _fold(acc: float, term: float) -> float:
    return term + math.log1p(math.exp(acc - term)) if term > acc else acc + math.log1p(math.exp(term - acc))


@functools.lru_cache(maxsize=None)
def _upper_terms(n: int) -> tuple[float, ...]:
    # ln P(X = k) for k = n, n-1, ..., n//2 + 1
    lg, w = math.lgamma(n + 1), n * math.log(2.0)
    return tuple(_upper_term(n, k, lg, w) for k in range(n, n // 2, -1))


@functools.lru_cache(maxsize=None)
def own_log_tail(n: int, k: int) -> float:
    """ln P(X >= k) for n/2 < k <= n as p_value folds it: from k's own cut-off down to k, the smallest term first."""
    acc = -math.inf
    for term in _upper_terms(n)[n - _cutoff(n, k):n - k + 1]:
        acc = _fold(acc, term)
    return acc


def reference_walk(n: int, alpha: float, mode: str, two_sided: bool = True) -> tuple[int, float] | None:
    """The float selection walk that decides every k on k's own fold, p_value's, from Hoeffding's bound down.

    None where p(n) = c 2**-n exceeds alpha (c = 2 two-sided), tested exactly.  p(n) is at most alpha then, and at odd
    n, p((n+1)/2) = c/2 exactly, by symmetry; every other decision compares c exp(ln P(X >= k) + 512 ln 2), the ln
    folded from k's own cut-off, with alpha 2**512, so no subnormal p is rounded before it is compared.  The walk starts
    at Hoeffding's c = ceil(n/2 + sqrt(-2 ln(alpha/c)) sqrt(n)/2), from which every p is at most alpha, and stops at the
    first p above alpha: the strict s is the k before it, and the nearest s is the strict s or s - 1, whichever p lies
    nearer alpha, ties to the strict s.  Returns (s, p), p from s's own fold.  Same floats as the library, so a pick
    must match it exactly, from n = 400 on; below it the library decides in integers.
    """
    c = 2.0 if two_sided else 1.0
    if math.ldexp(c, -n) > alpha:
        return None
    a, half = alpha * 2.0 ** 512, n // 2

    def p(k):
        return c * 2.0 ** 511 if 2 * k == n + 1 else c * math.exp(own_log_tail(n, k) + 512 * math.log(2.0))

    k = min(n, math.ceil(n / 2.0 + math.sqrt(-2.0 * (math.log(alpha) - math.log(c))) * math.sqrt(n) / 2.0))
    assert k == n or p(k) <= a, (n, alpha)
    while k > half and (k == n or p(k) <= a):
        k -= 1
    s = k + 1 - (mode != "strict" and k > half and p(k) - a < a - p(k + 1))
    return s, min(1.0, math.exp(math.log(c) + own_log_tail(n, s)))


# --- Beta-prior marginals at any shape -------------------------------------

def quadrature_log_marginal(n: int, s: int, a: float, b: float) -> float:
    """ln of the Beta(a, b)-prior marginal via adaptive quadrature (a, b >= 1
    so the integrand has no endpoint singularities)."""
    comb = math.comb(n, s)
    norm = float(special.beta(a, b))

    def integrand(t: float) -> float:
        return comb * t ** s * (1.0 - t) ** (n - s) * t ** (a - 1.0) * (1.0 - t) ** (b - 1.0) / norm

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    return math.log(value)


def product_log_marginal(n: int, s: int, a: float, b: float) -> float:
    """ln of C(n,s) * B(s+a, n-s+b) / B(a, b) as the exact rising-factorial
    product: sum ln(a+i), i < s, plus sum ln(b+j), j < n-s, minus sum ln(a+b+k),
    k < n.  No lgamma difference, so it keeps its digits at any shape."""
    terms = [math.log(math.comb(n, s))]
    terms += [math.log(a + i) for i in range(s)] + [math.log(b + j) for j in range(n - s)]
    terms += [-math.log(a + b + k) for k in range(n)]
    return math.fsum(terms)
