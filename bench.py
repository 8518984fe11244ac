"""Run the benchmark over workloads, seeds and trace modes, and keep the result as BENCH_<label>.json.

Usage, from anywhere (it runs in the checkout that holds it):

    python3 bench.py --label NAME [--workload W ...] [--seed N ...] [--seconds S] [--trace 0|1 ...]
                     [--against BENCH_base.json]
    python3 bench.py --show BENCH_new.json --against BENCH_base.json

The first form runs perfbench/run.py once per workload x seed x trace mode
and writes BENCH_NAME.json: for each workload and trace mode, the median and
the per-seed values of each metric, and each run's correct, failed and facts
line, with the git HEAD of the checkout and the tracked files changed
since it.  --against compares the run's medians (or those of the --show
file) with a base file: it prints each metric's ratio, new / base, beside
its BENCHMARK.json bound, and names every end-to-end metric outside its
bound.  The exit status is 1 if any run
is not correct: true, else 0; a metric outside its bound is named, not
failed, as one short run does not decide a regression.  Each run starts
with PYTHONDONTWRITEBYTECODE unset, whatever the caller's setting, so that
run.py's untimed first start writes the bytecode cache that its set-up
samples load.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.rstrip() if done.returncode == 0 else "unknown"


def _child_env() -> dict[str, str]:
    """This environment without PYTHONDONTWRITEBYTECODE: with it, each set-up sample compiles every module
    where the checkout has no cache, and setup_s reads about 10% higher than where it has one."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench/run.py run: its correct, attempted and failed counts, facts and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=_child_env())
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("facts "):
        print(f"bench: {' '.join(cmd[1:])} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
        return {"seed": seed, "correct": False, "attempted": 0, "failed": None, "facts": None, "metrics": {}}
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"] is True, "attempted": result["attempted"],
            "failed": result["failed"], "facts": json.loads(lines[-2][len("facts "):]),
            "metrics": result["metrics"]}


def _group(runs: list[dict]) -> dict:
    """The runs of one workload and trace mode, with each metric's median and per-seed values."""
    metrics = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            entry = metrics.setdefault(name, {"unit": metric["unit"], "per_seed": {}})
            entry["per_seed"][str(run["seed"])] = metric["value"]
    for metric in metrics.values():
        metric["median"] = statistics.median(metric["per_seed"].values())
    return {"metrics": metrics, "runs": [{k: v for k, v in run.items() if k != "metrics"} for run in runs]}


def _all_correct(bench: dict) -> bool:
    return all(run["correct"] is True for modes in bench["workloads"].values()
               for group in modes.values() for run in group["runs"])


def compare(new: dict, base: dict) -> None:
    """Print each metric's ratio new / base beside its bound, then the end-to-end metrics outside their bounds."""
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    outside = []
    print(f"{'workload':<18} {'trace':<6} {'metric':<42} {'base':>12} {'new':>12} {'ratio':>7}  bound")
    for workload, modes in new["workloads"].items():
        for mode, group in modes.items():
            old = base["workloads"].get(workload, {}).get(mode, {}).get("metrics", {})
            for name, metric in group["metrics"].items():
                if name not in old:
                    continue
                a, b = old[name]["median"], metric["median"]
                ratio = b / a if a else (1.0 if b == a else float("inf"))
                bound, verdict = "", ""
                if name in bounds:
                    limit, lower = bounds[name]["bound"], bounds[name]["better"] == "lower"
                    worse = ratio > 1.0 + limit if lower else ratio < 1.0 - limit
                    bound = f"{'+' if lower else '-'}{limit:.0%}"
                    if worse:
                        verdict = "  OUTSIDE"
                        outside.append(f"{workload} {name}")
                print(f"{workload:<18} {mode:<6} {name:<42} {a:>12.6g} {b:>12.6g} {ratio:>7.3f}  {bound}{verdict}")
    for entry in outside:
        print(f"bench: outside its bound: {entry}")
    if not outside:
        print("bench: every end-to-end metric is inside its bound")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--label", help="run the benchmark and write BENCH_LABEL.json")
    what.add_argument("--show", type=Path, help="a BENCH file to compare with --against, without running")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", action="append", type=int, help="default: 101 and 102")
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", action="append", type=int, choices=(0, 1), help="default: 0 and 1")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory for BENCH_LABEL.json (default: the root)")
    parser.add_argument("--against", type=Path, help="a base BENCH file")
    args = parser.parse_args()

    if args.show:
        bench = json.loads(args.show.read_text(encoding="utf-8"))
    else:
        seeds, traces = args.seed or [101, 102], args.trace or [0, 1]
        # tracked files that differ from HEAD, so that a run of an uncommitted change says what it ran
        changed = _git("status", "--porcelain", "--untracked-files=no").splitlines()
        bench = {"label": args.label, "git_head": _git("rev-parse", "HEAD"), "git_changed": changed,
                 "python": sys.version.split()[0], "seeds": seeds, "seconds": args.seconds, "workloads": {}}
        for workload in args.workload or WORKLOADS:
            bench["workloads"][workload] = {
                f"trace{trace}": _group([_run_once(workload, seed, args.seconds, trace) for seed in seeds])
                for trace in traces}
        path = args.out / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"bench: wrote {path}")
    if args.against:
        compare(bench, json.loads(args.against.read_text(encoding="utf-8")))
    if not _all_correct(bench):
        print("bench: a run was not correct", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
