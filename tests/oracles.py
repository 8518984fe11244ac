"""Float oracles the test suite trusts beside the exact reference.

Exact values (pmfs, tails, p-values, selections, flat-prior posteriors) come
from perfbench/reference.py, which the benchmark's answer check uses too; it
is imported as `reference`. What stays here is what that reference does not
do: reference_walk restates the library's float walk on its own, and the two
Beta-marginal routines cover non-integer prior shapes.  Nothing here shares
code with threshold_lab.
"""

from __future__ import annotations

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


def reference_walk(n: int, alpha: float, mode: str, two_sided: bool = True) -> tuple[int, float] | None:
    """The float selection walk that decides at every term, from the cut-off above the Chernoff
    point down, as the library walked before it folded its certified prefix in one pass.

    None where p(n) = c 2**-n exceeds alpha (c = 2 two-sided), tested exactly.  Each decision
    compares c exp(ln P(X >= k) + 512 ln 2) with alpha 2**512, so no subnormal p is rounded
    before it is compared.  It stops at the first p above alpha: the strict s is the one before
    it, or n where no p folded is at most alpha, and the nearest s is the strict s or s - 1,
    whichever p lies nearer alpha, ties to the strict s.  Returns (s, p), p from the tail folded
    from the cut-off above s down to s.  Same floats as the library, so a pick must match it exactly.
    """
    c = 2.0 if two_sided else 1.0
    if math.ldexp(c, -n) > alpha:
        return None
    shift, scale, ln_scale = math.log(c), 2.0 ** 512, 512 * math.log(2.0)
    lg, w, a = math.lgamma(n + 1), n * math.log(2.0), alpha * scale
    zb = math.sqrt(-2.0 * (math.log(alpha) - shift))
    acc, strict = -math.inf, None
    for k in range(_cutoff(n, math.ceil(n / 2.0 + zb * math.sqrt(n) / 2.0)), n // 2, -1):
        acc = _fold(acc, _upper_term(n, k, lg, w))
        p = c * math.exp(acc + ln_scale) if 2 * k != n + 1 else c * scale / 2  # P(X >= (n+1)/2) = 1/2, n odd
        if p > a:
            break
        strict, below = k, p
    else:
        p = None  # no p above alpha down to n/2
    if strict is None:  # the tie p(n) = alpha, its fold rounded up
        s = n
    else:
        s = strict - (mode != "strict" and p is not None and min(p, scale) - a < a - below)
    acc = -math.inf
    for k in range(_cutoff(n, s), s - 1, -1):
        acc = _fold(acc, _upper_term(n, k, lg, w))
    return s, min(1.0, math.exp(shift + acc))


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
