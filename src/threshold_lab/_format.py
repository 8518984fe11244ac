"""The one output format: reals at 12 significant digits, in a sweep's CSV cells and in every JSON payload.

It imports no library module, so the CLI loads it before it knows which command it runs.
"""

from __future__ import annotations

import json
import math
from typing import IO


def _fmt_real(x: float) -> str:
    # The one 12-significant-digit format: CSV writes it, _quantize rounds JSON through it.
    return "%.12g" % x


def _quantize(obj):
    """Round every float in a JSON payload (through dicts, lists and tuples, records included) to 12
    significant digits; float(_fmt_real(x)) is a fixed point of this map.
    A non-finite float becomes None (null): RFC 8259 JSON has no inf or nan."""
    if isinstance(obj, float):
        return float(_fmt_real(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def dump_json(payload, fh: IO[str]) -> None:
    """Write a JSON payload with every float at 12 significant digits,
    indented by 2, with a trailing newline: the format of every JSON output."""
    json.dump(_quantize(payload), fh, indent=2)
    fh.write("\n")
