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

from ._checks import _check_real, _check_unit

__all__ = ["normal_cdf", "normal_quantile"]

_SQRT2 = math.sqrt(2.0)
_inv_cdf = NormalDist().inv_cdf


def normal_cdf(z: float) -> float:
    """Phi(z) = P(Z <= z) for standard normal Z."""
    return 0.5 * math.erfc(-_check_real(z, "z") / _SQRT2)


def normal_quantile(q: float) -> float:
    """Phi^{-1}(q) for q strictly inside (0, 1).

    q > 0.5 is folded onto the lower half first; 1 - q is exact there
    (Sterbenz), so normal_quantile(1 - q) == -normal_quantile(q) holds by
    construction rather than within a tolerance.
    """
    q = _check_unit(q, "quantile input")
    if q > 0.5:
        return -_inv_cdf(1.0 - q)
    return _inv_cdf(q)
