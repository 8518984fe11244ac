"""Probability that an exact replication reproduces the effect's direction.

The transform is Phi(Phi^{-1}(1 - p) / sqrt(2)): the observed one-tailed
p-value fixes the effect's z-score, a same-sized replication doubles the
sampling variance, and the result is the chance the replicated effect lands
on the same side of zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._checks import _check_unit
from .gaussian_numerics import normal_cdf, normal_quantile

__all__ = ["PrepReport", "p_rep"]

_SQRT2 = math.sqrt(2.0)


class PrepReport(NamedTuple):
    p_in: float
    p_rep: float
    failure_prob: float


def p_rep(p: float) -> PrepReport:
    """Replication probability for a realized one-tailed p-value.

    failure_prob is the exact complement 1 - p_rep.  Strictly decreasing in
    p, with the fixed point p_rep(0.5) = 0.5.
    """
    p = _check_unit(p, "p")
    # Phi^{-1}(1 - p) == -Phi^{-1}(p): the reflection avoids computing 1 - p,
    # which would round to 1.0 for p below ~1e-17.
    value = normal_cdf(-normal_quantile(p) / _SQRT2)
    return PrepReport(p_in=p, p_rep=value, failure_prob=1.0 - value)
