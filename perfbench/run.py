"""threshold-lab benchmark: one workload, one run, metrics as one JSON line.

Usage, from the root of a threshold-lab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): sweep_ladder,
critical_large_n, crossing_search, point_queries.

The run builds its requests from the seed, writes their input files under
.perfbench_work/, and starts a fresh interpreter (worker.py) with
PYTHONPATH=src and THRESHOLD_LAB_THREADS unset, which drives the CLI in
process as one closed-loop client.  Every response is then checked against
the independent reference (check.py); a wrong exit code or a wrong output
counts as a failed request.

Every time is scaled by the speed probe (probe.py), timed next to it:
it reads in ms at the machine speed at which the probe takes
probe.REFERENCE_S, so that the slow and fast spells of a shared host
cancel.  The facts line gives the raw p50 and the probe times beside it.

--trace 0 reports the end-to-end metrics:
- setup_s: median over fresh interpreters that import threshold_lab.cli
  and answer one request, half taken before the workload and half after,
  each scaled by the mean of a probe just before and one just after it;
- latency_p50_ms, latency_p90_ms: quantiles over the requests of a pass,
  each at the median of its scaled repeats (one per pass);
- throughput_rps: requests per second of one client sending the pass
  with every request at that median, i.e. pass size over their sum;
- peak_rss_mb: ru_maxrss of the worker process.
--trace 1 alternates untraced passes with traced ones, at least two each
and for --seconds, checks that both give the same stdout, and reports
per-request layer figures and the tracing overhead (traced p50 minus
untraced p50).

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it holds the run facts.  Exit status is 0 when a result was
printed, 1 when the run could not complete and 2 outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from check import check, tolerance_use
from probe import REFERENCE_S, probe_s, scale
from workloads import WORK_DIR, WORKLOADS, make_plan

THREADS_ENV_VAR = "THRESHOLD_LAB_THREADS"
SETUP_SAMPLES = 15
SETUP_REQUEST = ["prep", "--p", "0.05"]
TIME_LIMIT_S = 150.0  # for the worker; set-up samples and checks follow it

_HERE = Path(__file__).resolve().parent


def _env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _setup_times(env: dict[str, str], count: int) -> tuple[list[float], list[float], str | None]:
    """Scaled times of fresh interpreters that import the CLI and answer one request.

    Returns the scaled times, the probe times taken around them and any
    problem with the answer.

    A first, untimed start writes the bytecode cache, as an installed copy
    has one, and its answer is checked.  The probes run in this process
    and each set-up in a child; both are held to one CPU, because the two
    CPUs of a shared host can run at different speeds at the same moment.
    """
    code = ("import sys\nfrom threshold_lab.cli import parse_and_dispatch\n"
            f"sys.exit(parse_and_dispatch({SETUP_REQUEST!r}))")
    cmd = [sys.executable, "-c", code]
    first = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    problem = check(SETUP_REQUEST, first.returncode, first.stdout)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        times, probes = [], [probe_s()]
        for _ in range(count):
            # no timeout: with one, subprocess polls for the exit in steps of
            # up to 50 ms, which would quantize the measurement
            t0 = perf_counter()
            done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            elapsed = perf_counter() - t0
            probes.append(probe_s())
            times.append(elapsed * scale((probes[-2] + probes[-1]) / 2))
            if done.returncode != 0:
                problem = f"setup request exited {done.returncode}"
    finally:
        os.sched_setaffinity(0, allowed)
    return times, probes, problem


def _source_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "threshold_lab").glob("*.py")))


def _check_phase(requests, phase: dict, failures: list[str]) -> int:
    failed = 0
    for argv, outputs in zip(requests, phase["outputs"]):
        for rc, text, count in outputs:
            reason = check(argv, rc, text)
            if reason is not None:
                failed += count
                failures.append(f"{' '.join(argv)}: {reason}")
    return failed


def _same_stdout(requests, untraced: dict, traced: dict, failures: list[str]) -> int:
    """Traced responses that differ from the untraced ones for the same request."""
    failed = 0
    for argv, plain, seen in zip(requests, untraced["outputs"], traced["outputs"]):
        expected = {(rc, text) for rc, text, _ in plain}
        for rc, text, count in seen:
            if (rc, text) not in expected:
                failed += count
                failures.append(f"{' '.join(argv)}: traced output differs from untraced")
    return failed


def _scaled_ms(phase: dict) -> list[float]:
    """Each request of the pass at the median of its scaled times over the passes, in ms."""
    scaled = [[t * k for t, k in zip(p["latencies_s"], p["scales"])] for p in phase["passes"]]
    return [1000.0 * statistics.median(times) for times in zip(*scaled)]


def _raw_ms(phase: dict) -> list[float]:
    """Each request of the pass at the median of its raw times over the passes, in ms."""
    return [1000.0 * statistics.median(times) for times in zip(*(p["latencies_s"] for p in phase["passes"]))]


def _p50_p90(latencies: list[float]) -> tuple[float, float]:
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    started = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "threshold_lab" / "cli.py").is_file():
        print("perfbench: src/threshold_lab/cli.py not found; run from the root of a threshold-lab checkout",
              file=sys.stderr)
        return 2

    plan = make_plan(args.workload, args.seed)
    work = root / WORK_DIR
    try:
        work.mkdir(exist_ok=True)
        for rel, text in plan.files.items():
            (root / rel).write_text(text, encoding="utf-8")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps({"requests": plan.requests}), encoding="utf-8")
        env = _env(root)

        failures: list[str] = []
        setup: list[float] = []
        setup_probes: list[float] = []
        if not args.trace:  # half the set-up samples before the workload, half after
            setup, setup_probes, problem = _setup_times(env, SETUP_SAMPLES // 2)
            if problem:
                failures.append(f"setup: {problem}")

        try:
            done = subprocess.run(
                [sys.executable, str(_HERE / "worker.py"), str(plan_path), str(args.seconds), str(args.trace)],
                env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S - (perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("perfbench: the workload did not finish in time", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: worker failed (exit {done.returncode}):\n{done.stderr}", file=sys.stderr)
            return 1
        raw = json.loads(done.stdout)

        untraced = raw["untraced"]
        passes = untraced["passes"]
        attempted = sum(len(p["latencies_s"]) for p in passes)
        failed = _check_phase(plan.requests, untraced, failures)
        per_request = _scaled_ms(untraced)
        p50, p90 = _p50_p90(per_request)
        if args.trace:
            traced = raw["traced"]
            requests = sum(len(p["latencies_s"]) for p in traced["passes"])
            attempted += requests
            failed += _same_stdout(plan.requests, untraced, traced, failures)
            metrics = dict(traced["layers"])
            metrics["cli.requests"] = requests
            metrics["cli.failed"] = sum(c for o in traced["outputs"] for rc, _, c in o if rc != 0)
            metrics["cli.stdout_bytes"] = sum(len(t.encode()) * c for o in traced["outputs"] for _, t, c in o) / requests
            metrics["trace.overhead_ms"] = _p50_p90(_scaled_ms(traced))[0] - p50
        else:
            more, more_probes, problem = _setup_times(env, SETUP_SAMPLES - len(setup))
            setup += more
            setup_probes += more_probes
            if problem:
                failures.append(f"setup: {problem}")
            metrics = {
                "setup_s": statistics.median(setup),
                "latency_p50_ms": p50,
                "latency_p90_ms": p90,
                "throughput_rps": 1000.0 * len(per_request) / sum(per_request),
                "peak_rss_mb": raw["peak_rss_mb"],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads_env_set": THREADS_ENV_VAR in os.environ,
        "requests_timed": sum(len(p["latencies_s"]) for p in passes),
        "passes": len(passes),
        "latency_samples": len(plan.requests),
        "setup_samples": len(setup),
        "raw_latency_p50_ms": round(statistics.median(_raw_ms(untraced)), 4),
        "probe_ms": {"reference": 1000.0 * REFERENCE_S, "workload_median": round(1000.0 * raw["probe_median_s"], 4),
                     "setup_median": round(1000.0 * statistics.median(setup_probes), 4) if setup_probes else None},
        "src_lines": _source_lines(root),
        "error_rate": failed / attempted,
        "tolerance_use": {k: round(v, 4) for k, v in sorted(tolerance_use.items())},
    }
    print("facts " + json.dumps(facts))
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


def unit(name: str) -> str:
    """Unit of a printed metric; layer figures are per traced request."""
    fixed = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_rps": "1/s",
             "peak_rss_mb": "MB", "cli.requests": "count", "cli.failed": "count", "trace.overhead_ms": "ms"}
    if name in fixed:
        return fixed[name]
    if name.endswith(("_ms", ".ms")):
        return "ms/req"
    return "B/req" if name.endswith("bytes") else "count/req"


if __name__ == "__main__":
    sys.exit(main())
