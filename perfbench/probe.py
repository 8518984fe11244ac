"""A speed probe: how fast this machine runs Python right now.

A shared host's CPU speed changes in spells of seconds to minutes: a fixed
piece of Python work runs 1.3x to 2x slower in some spells than in others,
integer and float work alike, and CPU time rises with wall time, so no
clock shows it.  A run that falls in a slow spell is slow all through.  So
the benchmark times this probe next to the work it measures and reports every
time scaled by REFERENCE_S / (the probe's time then): a time in ms at the
machine speed at which the probe takes REFERENCE_S.  A change to the
library moves a scaled time exactly as it moves the raw time; a change in
machine speed moves the probe too and cancels.

The probe mixes what the library's layers spend their time on: integer
arithmetic, lgamma/exp/log calls and a loop of Python bytecode.  It makes
no container objects, so the library's heap does not change its speed.
"""

from __future__ import annotations

import math
from time import perf_counter

_ITERATIONS = 4000
_REPEATS = 3
# the probe's fastest time on the 2-core Xeon host the benchmark was tuned
# on, so that scaled times read close to that host's fast-spell milliseconds
REFERENCE_S = 0.0016


def _probe_once() -> float:
    lgamma, exp, log = math.lgamma, math.exp, math.log
    t0 = perf_counter()
    acc, x = 0, 0.0
    for i in range(1, _ITERATIONS):
        acc += i * i % 7
        x += lgamma(i) * 1e-9 + exp(-i * 1e-4) - log(i) * 1e-6
    return perf_counter() - t0


def probe_s() -> float:
    """The fastest of a few probe runs, in seconds (about 5 ms in all)."""
    return min(_probe_once() for _ in range(_REPEATS))


def scale(probe: float) -> float:
    """Factor that turns a raw time measured at the given probe time into a scaled one."""
    return REFERENCE_S / probe
