"""Argument checks shared by every public entry point.

One rule for every number: it must be an int or a float that is not a bool
(np.float64 passes as a float subclass; a str, None, Decimal or np.float32
does not).  Each numeric check returns the value, a real one as a float, or
raises a ValueError that names the argument.
"""

from __future__ import annotations

import sys
from enum import Enum

# Largest n of the O(sqrt(n)) tail routines: a selection there takes tens of ms,
# and lgamma(n + 1), which log_choose differences, has an ulp of 3e-8.
MAX_N = 10**7

# Largest Beta prior shape: log_marginal_h1 differences lgamma values of the
# shapes, which lose 5e-9 of ln L1 at 1e6 and every digit by 1e15.
MAX_SHAPE = 1e6

_FLOAT_MAX = sys.float_info.max


def _check_n(n, name: str = "trial count n", limit: int | None = MAX_N) -> int:
    """Reject an n that is not a positive int, or that exceeds `limit`."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")
    if limit is not None and n > limit:
        raise ValueError(f"{name} must be at most {limit} (the largest n the tail routines accept), got {n}")
    return n


def _check_enum(value, enum: type[Enum], name: str) -> None:
    """Reject a value that is not a member of `enum` (a bare string such as "two" included)."""
    if not isinstance(value, enum):
        raise ValueError(f"{name} must be a {enum.__name__}, got {value!r}")


def _check_real(x, name: str, what: str = "a finite real number", within=None) -> float:
    """x as a float if it is a finite int or float, not a bool, and within(x) holds (when given)."""
    # abs(x) <= _FLOAT_MAX is false for nan and +-inf, and compares an int too large for a float exactly
    if (not isinstance(x, (int, float)) or isinstance(x, bool) or not abs(x) <= _FLOAT_MAX
            or (within is not None and not within(x))):
        raise ValueError(f"{name} must be {what}, got {x!r}")
    return float(x)


def _check_unit(x, name: str) -> float:
    """An alpha, a level, a prior probability, a p or a quantile: strictly between 0 and 1."""
    return _check_real(x, name, "a real number strictly between 0 and 1", lambda v: 0.0 < v < 1.0)


def _check_positive(x, name: str, limit: float = _FLOAT_MAX) -> float:
    """A sigma or a prior shape: positive, finite and at most `limit`."""
    what = "a positive finite real" if limit == _FLOAT_MAX else f"a positive real at most {limit:g}"
    return _check_real(x, name, what, lambda v: 0.0 < v <= limit)
