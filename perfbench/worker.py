"""One workload run in a fresh interpreter: a closed loop of CLI requests.

Usage: python3 perfbench/worker.py PLAN_JSON SECONDS TRACE

One client sends each request through threshold_lab.cli.parse_and_dispatch
in this process, with stdout and stderr captured, and sends the next only
after the previous returns.  With TRACE=0 the pass of requests repeats until
SECONDS have passed, at least MIN_REQUESTS were sent and it ran MIN_PASSES
times.  With TRACE=1, untraced passes alternate with as many traced ones,
so that a slow spell of the machine hits both alike, until SECONDS have
passed and there were at least TRACE_PASSES of each.
The speed probe (probe.py) runs before a request whenever PROBE_EVERY_S
has passed since the last probe, and at the end of each pass; a request's
time is scaled by the mean of the probes just before and just after it.
Responses are not checked here; the raw results go to stdout as one JSON
object, so that the checking work and memory stay out of this process's
timings and peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
from time import perf_counter

from probe import probe_s, scale
from workloads import MIN_PASSES, MIN_REQUESTS

TRACE_PASSES = 2
PROBE_EVERY_S = 0.05


class _Probes:
    """The probe times of one process, in the order they were taken."""

    def __init__(self) -> None:
        self.times = [probe_s()]
        self.taken_at = perf_counter()

    def index(self, force: bool = False) -> int:
        """Index of the latest probe, after taking a new one if it is due."""
        if force or perf_counter() - self.taken_at >= PROBE_EVERY_S:
            self.times.append(probe_s())
            self.taken_at = perf_counter()
        return len(self.times) - 1


class _Phase:
    """Latencies of each pass and the distinct responses to each request."""

    def __init__(self, requests: list[list[str]], probes: _Probes) -> None:
        self.requests, self.probes = requests, probes
        self.passes: list[tuple[list[float], list[int]]] = []
        self.outputs: list[dict[tuple[int, str], int]] = [{} for _ in requests]

    def run_pass(self, cli, after=None) -> None:
        latencies, probe_before = [], []
        for i, argv in enumerate(self.requests):
            probe_before.append(self.probes.index())
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                rc = cli.parse_and_dispatch(list(argv))
                latencies.append(perf_counter() - t0)
            key = (rc, out.getvalue())
            self.outputs[i][key] = self.outputs[i].get(key, 0) + 1
            if after is not None:
                after(argv, rc, key[1])
        self.probes.index(force=True)
        self.passes.append((latencies, probe_before))

    def to_json(self) -> dict:
        probes = self.probes.times
        return {
            "passes": [{"latencies_s": lat, "scales": [scale((probes[j] + probes[j + 1]) / 2) for j in before]}
                       for lat, before in self.passes],
            "outputs": [[[rc, text, count] for (rc, text), count in o.items()] for o in self.outputs],
        }


def main() -> None:
    plan_path, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    with open(plan_path, encoding="utf-8") as fh:
        requests = json.load(fh)["requests"]

    from threshold_lab import cli, sweep_report

    # argparse and the first-call paths are set up once per process; every
    # CLI invocation pays that in setup_s, so keep it out of request latency
    with contextlib.redirect_stdout(io.StringIO()):
        cli.parse_and_dispatch(["prep", "--p", "0.05"])

    probes = _Probes()
    untraced = _Phase(requests, probes)
    if not trace:
        start = perf_counter()
        while True:
            untraced.run_pass(cli)
            done = len(untraced.passes)
            if done >= MIN_PASSES and done * len(requests) >= MIN_REQUESTS and perf_counter() - start >= seconds:
                break
        json.dump({"untraced": untraced.to_json(), "probe_median_s": statistics.median(probes.times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}, sys.stdout)
        return

    from tracer import Tracer

    def parse_back(argv, rc, text):
        # what a downstream reader of a sweep does with it; outside the request's latency
        if rc == 0 and argv[0] == "sweep":
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
            (sweep_report.parse_json if fmt == "json" else sweep_report.parse_csv)(io.StringIO(text))

    tracer = Tracer()
    traced = _Phase(requests, probes)
    start = perf_counter()
    while len(traced.passes) < TRACE_PASSES or perf_counter() - start < seconds:
        untraced.run_pass(cli)
        tracer.install()
        try:
            traced.run_pass(cli, parse_back)
        finally:
            tracer.uninstall()
    result = traced.to_json()
    result["layers"] = tracer.metrics(len(requests) * len(traced.passes))
    json.dump({"untraced": untraced.to_json(), "traced": result, "probe_median_s": statistics.median(probes.times)},
              sys.stdout)


if __name__ == "__main__":
    main()
