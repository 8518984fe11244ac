"""Argument checks shared by every public entry point, and the error of a request that no count can meet.

One rule for every number: it must be an int or a float that is not a bool
(np.float64 passes as a float subclass; a str, None, Decimal or np.float32
does not).  Each numeric check returns the value, a real one as a float, or
raises a ValueError that names the argument.
"""

from __future__ import annotations

import math
import sys

# Largest n of the O(sqrt(n)) tail routines: a selection or a p_value there takes 1-5 ms,
# and lgamma(n + 1), which log_choose differences, has an ulp of 3e-8.
MAX_N = 10**7

# Largest Beta prior shape: log_marginal_h1 differences lgamma values of the
# shapes, which lose 5e-9 of ln L1 at 1e6 and every digit by 1e15.
MAX_SHAPE = 1e6

_FLOAT_MAX = sys.float_info.max


class InfeasibleError(ValueError):
    """No success count can satisfy the requested significance constraint."""


class _Checked:
    """Base of a checked NamedTuple record: _make, hence _replace and copy.replace, builds through the checks in
    the record's __new__, not around them."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _shown(x) -> str:
    """repr(x), or for a str of more than 30 characters its length, and for an int of more than 30 digits its digit
    count: such a value would fill a message, and an int's str() fails past 4300 digits."""
    if isinstance(x, str) and len(x) > 30:
        return f"a {len(x)}-character value"
    if not isinstance(x, int) or abs(x) < 10**30:
        return repr(x)
    r = round(math.log10(abs(x)))  # log10 |x| to rounding, so |x| has r + 1 digits if it reaches 10**r, else r
    return f"a {'negative ' if x < 0 else ''}{r + (abs(x) >= 10**r)}-digit integer"


def _check_n(n, name: str = "trial count n", limit: float = MAX_N) -> int:
    """Reject an n that is not a positive int, or that exceeds `limit` (compared exactly, also as a float)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {_shown(n)}")
    if n > limit:
        raise ValueError(f"{name} must be at most {limit}, got {_shown(n)}")
    return n


def _check_instance(value, cls: type, name: str):
    """The value if it is a cls instance, such as an enum member (a bare "two" is not) or an outcome."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {_shown(value)}")
    return value


def _check_pair(value, name: str) -> tuple:
    """The value if it is a tuple or list of two items, such as an (alpha, n) operating point."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ValueError(f"{name} must be a pair such as (alpha, n), got {_shown(value)}")
    return value


def _check_real(x, name: str, what: str = "a finite real number", within=None) -> float:
    """x as a float if it is a finite int or float, not a bool, and within(x) holds (when given)."""
    # abs(x) <= _FLOAT_MAX is false for nan and +-inf, and compares an int too large for a float exactly
    if (not isinstance(x, (int, float)) or isinstance(x, bool) or not abs(x) <= _FLOAT_MAX
            or (within is not None and not within(x))):
        raise ValueError(f"{name} must be {what}, got {_shown(x)}")
    return float(x)


def _check_unit(x, name: str) -> float:
    """An alpha, a level, a prior probability, a p or a quantile: strictly between 0 and 1."""
    return _check_real(x, name, "a real number strictly between 0 and 1", lambda v: 0.0 < v < 1.0)


def _check_positive(x, name: str, limit: float = _FLOAT_MAX) -> float:
    """A sigma or a prior shape: positive, finite and at most `limit`."""
    what = "a positive finite real" if limit == _FLOAT_MAX else f"a positive real at most {limit:g}"
    return _check_real(x, name, what, lambda v: 0.0 < v <= limit)
