"""Seeded request plans for the four benchmark workloads.

A plan is one pass of distinct CLI argv lists plus the input files they
name.  The benchmark repeats the pass until the run has lasted --seconds
and holds at least MIN_REQUESTS requests, and at least twice, so every
request is timed more than once.  Inputs are stratified rather than drawn
independently: every pass covers each stratum of the size range and each
flag combination equally often, so the seed changes the requests but not
the shape of the latency distribution, which keeps quantiles steady across
seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORK_DIR = ".perfbench_work"
MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
MIN_PASSES = 3  # each request's latency is the median of its repeats

WORKLOADS = ("sweep_ladder", "critical_large_n", "crossing_search", "point_queries")

CROSSING_ALPHAS = ("0.05", "0.02", "0.01")
CROSSING_LEVELS = ("0.2", "0.3", "0.4", "0.5", "0.6", "0.7")

# 1e-10 joins the default four so that strict mode at small n meets cells
# no success count can reach (two-sided needs n >= 35 there).
_SWEEP_ALPHAS = ("0.05", "0.01", "0.001", "0.0001", "1e-10")
_CRITICAL_ALPHAS = ("0.05", "0.01", "0.001", "0.0001")


@dataclass
class Plan:
    requests: list[list[str]]
    files: dict[str, str] = field(default_factory=dict)


def _stratified_log_ints(rng: random.Random, lo: float, hi: float, count: int, middle: float = 0.5) -> list[int]:
    """One integer per equal-width stratum of [ln lo, ln hi], in increasing order.

    Each sits in the middle share of its stratum, so that a quantile over a
    pass moves little with the seed.
    """
    width = (math.log(hi) - math.log(lo)) / count
    return [int(math.exp(math.log(lo) + (i + 0.5 + middle * (rng.random() - 0.5)) * width)) for i in range(count)]


def _balanced(rng: random.Random, values, count: int) -> list:
    """count items cycling through values, then shuffled."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _latin_grids(rng: random.Random, count: int, lo: float, hi: float, per_grid: int) -> list[list[int]]:
    """count grids of per_grid increasing values, one from each stratum of [ln lo, ln hi].

    Within each stratum the count grids get one value from each of count
    equal sub-strata, so the values a pass holds barely depend on the seed.
    """
    width = (math.log(hi) - math.log(lo)) / per_grid
    columns = []
    for i in range(per_grid):
        col = [int(math.exp(math.log(lo) + (i + (j + rng.random()) / count) * width)) for j in range(count)]
        rng.shuffle(col)
        columns.append(col)
    return [[col[g] for col in columns] for g in range(count)]


def _sweep_ladder(rng: random.Random) -> tuple[list[list[str]], dict[str, str]]:
    # Request cost scales with the number of alphas, so each subset size
    # gets its own set of grids and every mode/tail/format combination.
    combos = [(m, t, f) for m in ("nearest", "strict") for t in ("two", "one") for f in ("csv", "json")]
    seeded = []
    for size in (1, 2, 3, 4):
        for grid, (mode, tail, fmt) in zip(_latin_grids(rng, 12, 20, 1e4, 8), _balanced(rng, combos, 12)):
            alphas = sorted(rng.sample(_SWEEP_ALPHAS, size), key=float, reverse=True)
            seeded.append((grid, ["--alphas", ",".join(alphas), "--mode", mode, "--tail", tail, "--format", fmt]))
    rng.shuffle(seeded)
    requests = [["sweep"]]  # the default 15-point ladder x 4 alphas
    files = {}
    for i, (grid, flags) in enumerate(seeded):
        path = f"{WORK_DIR}/grid_{i:02d}.json"
        files[path] = json.dumps(grid)
        requests.append(["sweep", "--grid", path, *flags])
    return requests, files


def _critical_large_n(rng: random.Random) -> list[list[str]]:
    # Few distinct n, so that each is timed on many passes within a run.
    # Request cost is about linear in n and moves up to 25% with alpha, so
    # p90 rests on the two largest n: each stratum has a fixed alpha and the
    # seed moves n within the middle fifth of its stratum.
    count = 20
    ns = _stratified_log_ints(rng, 1e4, 1e6, count, middle=0.2)
    alphas = [_CRITICAL_ALPHAS[i % len(_CRITICAL_ALPHAS)] for i in range(count)]
    requests = [["critical", "--n", str(n), "--alpha", a] for n, a in zip(ns, alphas)]
    rng.shuffle(requests)
    return requests


def _crossing_search(rng: random.Random) -> list[list[str]]:
    pairs = [(a, lv) for a in CROSSING_ALPHAS for lv in CROSSING_LEVELS]
    rng.shuffle(pairs)
    return [["crossing", "--alpha", a, "--level", lv] for a, lv in pairs]


def _g(x: float, digits: int = 6) -> str:
    return "%.*g" % (digits, x)


def _point_queries(rng: random.Random) -> list[list[str]]:
    per_kind = 20

    def posterior(n: int) -> list[str]:
        s = min(n, max(0, round(n / 2 + rng.uniform(-4, 4) * math.sqrt(n) / 2)))
        return ["posterior", "--n", str(n), "--s", str(s),
                "--prior-a", str(rng.choice((1, 2, 3, 5))), "--prior-b", str(rng.choice((1, 2, 3, 5))),
                "--pi0", rng.choice(("0.5", "0.25", "0.75", "0.9"))]

    def prep(_n: int) -> list[str]:
        return ["prep", "--p", _g(math.exp(rng.uniform(math.log(1e-6), math.log(0.5))))]

    def power(n: int) -> list[str]:
        sigma = rng.uniform(1, 20)
        mu0 = rng.uniform(0, 100)
        shift = rng.choice((-1, 1)) * rng.uniform(0.1, 1.5) * sigma
        argv = ["power", "--mu0", _g(mu0), "--mu-alt", _g(mu0 + shift), "--sigma", _g(sigma),
                "--alpha", rng.choice(("0.05", "0.01", "0.005", "0.001")),
                "--beta", rng.choice(("0.2", "0.1", "0.05", "0.02"))]
        if rng.random() < 0.5:
            argv += ["--show-power-at", str(n)]
        return argv

    second_ns = _stratified_log_ints(rng, 30, 1000, per_kind)
    rng.shuffle(second_ns)

    def diagnosticity(n: int) -> list[str]:
        a, b = rng.sample(("0.05", "0.01", "0.005", "0.001"), 2)
        return ["diagnosticity", "--a", f"{a},{max(30, n)}", "--b", f"{b},{second_ns.pop()}",
                "--mode", rng.choice(("nearest", "strict"))]

    def critical(n: int) -> list[str]:
        alpha = _g(math.exp(rng.uniform(math.log(1e-4), math.log(0.1))), 3)
        return ["critical", "--n", str(n), "--alpha", alpha,
                "--mode", rng.choice(("nearest", "strict")), "--tail", rng.choice(("two", "one"))]

    requests = []
    for make in (posterior, prep, power, diagnosticity, critical):
        requests += [make(n) for n in _stratified_log_ints(rng, 20, 1000, per_kind)]
    rng.shuffle(requests)
    return requests


def make_plan(workload: str, seed: int) -> Plan:
    """The request pass and input files for one workload; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_ladder":
        return Plan(*_sweep_ladder(rng))
    makers = {"critical_large_n": _critical_large_n, "crossing_search": _crossing_search,
              "point_queries": _point_queries}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(makers[workload](rng))
