"""Standard-normal CDF and quantile.

The CDF rides on the C library's complementary error function, which keeps
full relative accuracy deep into either tail (statistics.NormalDist.cdf uses
erf and loses the lower tail).  The quantile is the standard library's
NormalDist.inv_cdf, Wichura's AS241 (Applied Statistics 37, 1988), accurate
to about 1e-16 relative, taken on the lower half only.
"""

from __future__ import annotations

import math
from statistics import NormalDist

__all__ = ["normal_cdf", "normal_quantile"]

_SQRT2 = math.sqrt(2.0)
_inv_cdf = NormalDist().inv_cdf


def normal_cdf(z: float) -> float:
    """Phi(z) = P(Z <= z) for standard normal Z."""
    if not isinstance(z, (int, float)) or isinstance(z, bool) or not math.isfinite(z):
        raise ValueError(f"z must be a finite real number, got {z!r}")
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(q: float) -> float:
    """Phi^{-1}(q) for q strictly inside (0, 1).

    q > 0.5 is folded onto the lower half first; 1 - q is exact there
    (Sterbenz), so normal_quantile(1 - q) == -normal_quantile(q) holds by
    construction rather than within a tolerance.
    """
    if not isinstance(q, (int, float)) or isinstance(q, bool) or not 0.0 < q < 1.0:
        raise ValueError(f"quantile input must lie strictly between 0 and 1, got {q!r}")
    q = float(q)
    if q > 0.5:
        return -_inv_cdf(1.0 - q)
    return _inv_cdf(q)
