"""Per-layer spans and counters for the traced run, applied from outside the library.

Tracer.install() replaces functions of each threshold_lab module with
wrappers, in every threshold_lab namespace that holds them, and uninstall()
puts the originals back.  Each wrapped call is a span: name, start, end,
and the span that caused it.  A span's self time is its duration minus the
part of it that child spans cover.  Spans are folded into per-function and
per-layer totals as they close rather than kept, because one request can
make hundreds of thousands of calls.

log_pmf runs once per summed probability term, so it is counted, not timed.

Cells of a sweep run in pool threads.  A span that starts on a thread with
no open span is a child of the innermost open span of the installing
thread, which is run_sweep, the call that started the pool.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Layers are the library's modules.  Spanned are the public functions of
# each, plus the private ones that hold the selection walk (_select_walk)
# and the per-cell work (_evaluate_cell).
SPANNED = {
    "cli": ("parse_and_dispatch",),
    "sweep_report": ("run_sweep", "_evaluate_cell", "find_crossing", "jitter_report", "emit",
                     "parse_csv", "parse_json"),
    "bayes_evidence": ("log_marginal_h1", "posterior_h0", "evidence_at_threshold"),
    "binomial_kernel": ("p_value", "min_attainable_p", "select_barely_significant", "_select_walk"),
    "gaussian_numerics": ("normal_cdf", "normal_quantile"),
    "power_design": ("achieved_power", "required_n", "diagnosticity_gain"),
    "replicability": ("p_rep",),
}
COUNTED = {"binomial_kernel": ("log_pmf",)}


class _Span:
    __slots__ = ("name", "layer", "parent", "children")

    def __init__(self, name: str, layer: str, parent: "_Span | None") -> None:
        self.name, self.layer, self.parent = name, layer, parent
        self.children: list[tuple[float, float]] = []


class _ThreadTotals:
    """Totals of one thread, so that pool threads never update shared counters."""

    def __init__(self) -> None:
        self.stack: list[_Span] = []
        # name -> [calls, seconds, self seconds, seconds children ran beyond the span's own wall time]
        self.funcs: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        # layer -> [entries from another layer, seconds of those entries, self seconds]
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadTotals] = []
        self._lock = threading.Lock()
        self._home: _ThreadTotals | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _totals(self) -> _ThreadTotals:
        t = getattr(self._local, "totals", None)
        if t is None:
            t = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(t)
        return t

    def _span(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tot = self._totals()
            if tot.stack:
                parent = tot.stack[-1]
            else:
                home = self._home.stack if self._home is not None else []
                parent = home[-1] if home and tot is not self._home else None
            span = _Span(name, layer, parent)
            pos = _stream_pos(args) if name == "sweep_report.emit" else None
            tot.stack.append(span)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tot.stack.pop()
                dur = t1 - t0
                self_s = dur - _covered(span.children)
                f = tot.funcs[name]
                f[0] += 1
                f[1] += dur
                f[2] += self_s
                f[3] += max(0.0, sum(b - a for a, b in span.children) - dur)
                lay = tot.layers[layer]
                lay[2] += self_s
                if parent is None or parent.layer != layer:
                    lay[0] += 1
                    lay[1] += dur
                if parent is not None:
                    parent.children.append((t0, t1))
                    tot.counts[(parent.name, name)] += 1
                if pos is not None:
                    tot.counts["sweep_report.emit.bytes"] += _stream_pos(args) - pos
        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._totals().counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        self._home = self._totals()
        for layer, names in SPANNED.items():
            for name in names:
                self._replace(layer, name, functools.partial(self._span, f"{layer}.{name}", layer))
        for layer, names in COUNTED.items():
            for name in names:
                self._replace(layer, name, functools.partial(self._count, f"{layer}.{name}"))

    def _replace(self, layer: str, name: str, wrap) -> None:
        """Swap the function for wrap(function) in every threshold_lab namespace that binds it."""
        original = getattr(sys.modules[f"threshold_lab.{layer}"], name)
        wrapped = wrap(original)
        for key, ns in list(sys.modules.items()):
            if key.split(".")[0] != "threshold_lab":
                continue
            for attr in [a for a, v in vars(ns).items() if v is original]:
                self._patches.append((ns, attr, original))
                setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-request layer figures over everything traced so far."""
        funcs: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        counts: Counter = Counter()
        for t in self._threads:
            for k, v in t.funcs.items():
                funcs[k] = [a + b for a, b in zip(funcs[k], v)]
            for k, v in t.layers.items():
                layers[k] = [a + b for a, b in zip(layers[k], v)]
            counts.update(t.counts)

        def per(x: float) -> float:
            return x / requests

        def ms(seconds: float) -> float:
            return 1000.0 * seconds / requests

        return {
            "binomial_kernel.p_value_calls": per(funcs["binomial_kernel.p_value"][0]),
            "binomial_kernel.p_value_ms": ms(funcs["binomial_kernel.p_value"][1]),
            "binomial_kernel.pmf_terms": per(counts["binomial_kernel.log_pmf"]),
            "binomial_kernel.select_calls": per(funcs["binomial_kernel._select_walk"][0]),
            "binomial_kernel.select_self_ms": ms(funcs["binomial_kernel._select_walk"][2]),
            "binomial_kernel.min_p_calls": per(funcs["binomial_kernel.min_attainable_p"][0]),
            "sweep_report.crossing_probes":
                per(counts[("sweep_report.find_crossing", "binomial_kernel.min_attainable_p")]),
            "sweep_report.find_crossing_self_ms": ms(funcs["sweep_report.find_crossing"][2]),
            "sweep_report.cells": per(funcs["sweep_report._evaluate_cell"][0]),
            "sweep_report.run_sweep_self_ms": ms(funcs["sweep_report.run_sweep"][2]),
            "sweep_report.gil_wait_ms": ms(funcs["sweep_report.run_sweep"][3]),
            "sweep_report.emit_ms": ms(funcs["sweep_report.emit"][1]),
            "sweep_report.emit_bytes": per(counts["sweep_report.emit.bytes"]),
            "sweep_report.parse_ms": ms(funcs["sweep_report.parse_csv"][1] + funcs["sweep_report.parse_json"][1]),
            "bayes_evidence.posterior_calls": per(funcs["bayes_evidence.posterior_h0"][0]),
            "bayes_evidence.posterior_ms": ms(funcs["bayes_evidence.posterior_h0"][1]),
            "cli.self_ms": ms(layers["cli"][2]),
            "gaussian_numerics.calls": per(layers["gaussian_numerics"][0]),
            "gaussian_numerics.ms": ms(layers["gaussian_numerics"][1]),
            "power_design.calls": per(layers["power_design"][0]),
            "power_design.self_ms": ms(layers["power_design"][2]),
            "replicability.calls": per(layers["replicability"][0]),
            "replicability.ms": ms(layers["replicability"][1]),
        }


def _stream_pos(args: tuple) -> int:
    """Characters written so far to emit's destination, when it is an open text stream."""
    dest = args[2] if len(args) > 2 else None
    return dest.tell() if hasattr(dest, "tell") else 0
