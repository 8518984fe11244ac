"""Reference implementations the test suite trusts.

Deliberately naive and slow: exact rationals where the numbers are small
enough, and an independent float path (regularized-incomplete-beta tails,
adaptive quadrature) where they are not.  Nothing here shares code with
threshold_lab.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate, special, stats


# --- exact rational arithmetic -------------------------------------------

def exact_pmf(n: int, s: int) -> Fraction:
    """Binomial(n, 1/2) mass, exactly."""
    return Fraction(math.comb(n, s), 2 ** n)


def exact_upper_tail(n: int, s: int) -> Fraction:
    return sum((exact_pmf(n, k) for k in range(s, n + 1)), Fraction(0))


def exact_p_value(n: int, s: int, two_sided: bool = True) -> Fraction:
    if not two_sided:
        return exact_upper_tail(n, s)
    hi = max(s, n - s)
    lo = min(s, n - s)
    total = exact_upper_tail(n, hi) + sum((exact_pmf(n, k) for k in range(0, lo + 1)), Fraction(0))
    return min(Fraction(1), total)


def exact_select(n: int, alpha: float, mode: str, two_sided: bool = True) -> int | None:
    """Exhaustive scan of every candidate s in (n/2, n].

    alpha enters as the exact binary value of the float, which is exactly the
    quantity float comparisons inside the implementation see.  Nearest-mode
    ties break toward the larger s.
    """
    target = Fraction(alpha)
    candidates = [(s, exact_p_value(n, s, two_sided)) for s in range(n // 2 + 1, n + 1)]
    if mode == "strict":
        feasible = [s for s, p in candidates if p <= target]
        return min(feasible) if feasible else None
    best_s, best_d = None, None
    for s, p in candidates:
        d = abs(p - target)
        if best_d is None or d < best_d or (d == best_d and s > best_s):
            best_s, best_d = s, d
    return best_s


def exact_uniform_posterior(n: int, s: int) -> Fraction:
    """Posterior of the null under the flat prior and equal model odds."""
    l0 = exact_pmf(n, s)
    l1 = Fraction(1, n + 1)
    return l0 / (l0 + l1)


# --- independent float path ----------------------------------------------

def betainc_upper_tail(n: int, s: int) -> float:
    """P(X >= s) under Binomial(n, 1/2) via the regularized incomplete beta."""
    if s <= 0:
        return 1.0
    return float(special.betainc(s, n - s + 1, 0.5))


def independent_cell(n: int, alpha: float, mode: str = "nearest",
                     two_sided: bool = True) -> tuple[int, float] | None:
    """(selected s, uniform-prior posterior) for one grid cell, or None if no
    s attains alpha.  Tails, selection, and likelihoods all come from scipy,
    not from log-space accumulation."""
    ss = np.arange(n // 2 + 1, n + 1)
    upper = special.betainc(ss.astype(float), (n - ss + 1).astype(float), 0.5)
    p = np.minimum(1.0, 2.0 * upper) if two_sided else upper
    feasible_any = p[-1] <= alpha
    if mode == "strict":
        if not feasible_any:
            return None
        s = int(ss[np.nonzero(p <= alpha)[0][0]])
    else:
        if not feasible_any:
            return None  # mirrors the sweep's infeasible-cell marker
        d = np.abs(p - alpha)
        s = int(ss[len(d) - 1 - int(np.argmin(d[::-1]))])  # ties -> larger s
    l0 = float(stats.binom.pmf(s, n, 0.5))
    l1 = 1.0 / (n + 1)
    return s, l0 / (l0 + l1)


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
