"""Run one fixed corpus in this checkout and in another revision, and name every case whose output differs.

Usage, from anywhere (it compares the checkout that holds it):

    python3 samecheck.py --against REV

REV is a revision of this checkout's git repository.  It is unpacked with
`git archive REV | tar -x` into a temporary directory, removed afterwards.
Each tree runs the corpus in its own interpreter, with that tree's src first
on the path; the corpus itself is built here, so both trees run the same
cases:

  - CLI calls through parse_and_dispatch: the benchmark's requests at seeds
    101, 102 and 7 (perfbench.workloads.make_plan, with their grid files);
    --help, each COMMAND --help and -h COMMAND, no arguments and an unknown
    command; the argv of the goldens in tests/test_cli.py; the default sweep in
    CSV and JSON, the 18 benchmark crossings and the FAR_CROSSINGS at n-max
    200000, in each mode x tail;
  - --help and the argv of each golden again, each in a fresh interpreter
    through the console script's main, as a shell user runs them: in one
    process a command can work on modules that an earlier case loaded;
  - the selection differential, in each mode x tail: for every alpha of
    ALPHAS, one _select_walk call per n <= N_MAX and _march's yields to N_MAX,
    or to LONG_N_MAX for the alphas of LONG_ALPHAS, and one _select_walk call
    per n for all of ALPHAS at once; at each n of LARGE_NS, from 2,000 to
    1e6, one _select_walk call per alpha of ALPHAS and one for all of them;
    and, for every n <= TIE_N_MAX, at every alpha that equals an exact tail p,
    c C(n, >= k) / 2**n for n/2 < k <= n (c = 2 two-sided), and is a float
    below 1 (1,796 cells over both tails), one _select_walk call per n and one
    per alpha.

A case's output is its exit code, stdout and stderr; a library case prints
one line per n (a walk's picks as (s, p)), a scan to LONG_N_MAX or a walk at
LARGE_NS or at the exact tail p its line count and the sha256 of its lines,
and a call that raises exits 1 with the exception on stderr.
Each case whose output differs is printed with a unified diff of the two.
The exit status is 1 if any case differs, 2 if a tree could not be run, and
0 otherwise.  The run takes about 17 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import difflib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SEEDS = (101, 102, 7)
MODES, TAILS = ("nearest", "strict"), ("two", "one")
ALPHAS = (0.9, 0.5, 0.25, 0.125, 0.05, 0.01, 1e-3, 2.0 ** -10, 1e-10, 1e-300, 1e-308, 1e-310, 1e-318, 1e-320, 1e-322,
          1e-323, 5e-324)  # strictly decreasing, for the one walk call per n at every alpha
N_MAX = 2000
LONG_ALPHAS, LONG_N_MAX = (0.05, 0.01, 1e-10, 1e-308, 1e-318), 20_000  # the scan's spans between walks run to n_max
# 30 seeded n, log-uniform from 2,000 to 1e6, where a walk's start follows its guessed pick's cut-off
LARGE_NS = tuple(sorted(int(2000 * 500 ** random.Random(f"large n {i}").random()) for i in range(30)))
TIE_N_MAX = 60  # the exact tail p that are floats, where a float walk may round a tie to either side
# (alpha, level) at n-max 200000: five touches past where the scan's envelope first reaches the floor, and two that
# no n touches, which end where the envelope rules out n_max
FAR_CROSSINGS = (("0.01", "0.874"), ("0.001", "0.525"), ("0.0001", "0.198"), ("1e-10", "2.03e-07"),
                 ("1e-300", "2.27e-296"), ("0.0001", "0.9"), ("0.01", "0.9999"))


def _golden_argv() -> list[list[str]]:
    """The argv of each golden output, read from tests/test_cli.py's GOLDEN_ARGV without importing the tests."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "GOLDEN_ARGV")
    return [argv for _, argv in ast.literal_eval(node.value)]


def corpus(work: Path) -> list[list]:
    """Every case as [name, kind, argument]; writes the benchmark's grid files under work, one folder a seed."""
    from perfbench.workloads import CROSSING_ALPHAS, CROSSING_LEVELS, WORKLOADS, make_plan

    argvs = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            plan = make_plan(workload, seed)
            for path, text in plan.files.items():
                (work / str(seed) / path).parent.mkdir(parents=True, exist_ok=True)
                (work / str(seed) / path).write_text(text, encoding="utf-8")
            argvs += [[f"{seed}/{a}" if a in plan.files else a for a in argv] for argv in plan.requests]
    commands = json.loads((ROOT / "tests" / "data" / "cli_surface.json").read_text(encoding="utf-8"))
    argvs += [["--help"], *([c, "--help"] for c in commands), *(["-h", c] for c in commands), [], ["bogus"]]
    argvs += _golden_argv()
    for mode in MODES:
        for tail in TAILS:
            argvs += [["sweep", "--mode", mode, "--tail", tail, "--format", f] for f in ("csv", "json")]
            argvs += [["crossing", "--alpha", a, "--level", level, "--mode", mode, "--tail", tail]
                      for a in CROSSING_ALPHAS for level in CROSSING_LEVELS]
            argvs += [["crossing", "--alpha", a, "--level", level, "--n-max", "200000", "--mode", mode, "--tail", tail]
                      for a, level in FAR_CROSSINGS]
    cases = {" ".join(["cli", *argv]): ["cli", argv] for argv in argvs}  # a request repeated across seeds runs once
    cases.update({" ".join(["fresh", *argv]): ["fresh", argv] for argv in [["--help"], *_golden_argv()]})
    for mode in MODES:
        for tail in TAILS:
            for alpha in ALPHAS:
                n_max = LONG_N_MAX if alpha in LONG_ALPHAS else N_MAX
                cases[f"walk {mode} {tail} alpha={alpha!r}"] = ["walk", [mode, tail, [alpha]]]
                cases[f"march {mode} {tail} alpha={alpha!r} n_max={n_max}"] = ["march", [mode, tail, [alpha], n_max]]
            cases[f"walk {mode} {tail} every alpha"] = ["walk", [mode, tail, list(ALPHAS)]]
            cases[f"walk {mode} {tail} large n, one alpha a call"] = ["large", [mode, tail, list(ALPHAS), 1]]
            cases[f"walk {mode} {tail} large n, every alpha"] = ["large", [mode, tail, list(ALPHAS), len(ALPHAS)]]
            cases[f"walk {mode} {tail} at every exact tail p, n <= {TIE_N_MAX}"] = ["ties", [mode, tail, []]]
    return [[name, *case] for name, case in cases.items()]


def _exact_tail_ps(n: int, c: int) -> tuple[float, ...]:
    """Every c C(n, >= k) / 2**n, n/2 < k <= n, that is a float below 1, strictly decreasing."""
    ps = (Fraction(c * sum(math.comb(n, j) for j in range(k, n + 1)), 2 ** n) for k in range(n // 2 + 1, n + 1))
    return tuple(float(p) for p in ps if p < 1 and Fraction(float(p)) == p)


def _library(kind: str, mode: str, tail: str, alphas: list[float], n_max: int = N_MAX) -> int:
    """Print a library case: a scan's yields, a walk's picks per n, or, for "large", the picks at LARGE_NS of walks
    over n_max alphas a call, and for "ties" the picks at every exact tail p that is a float, n <= TIE_N_MAX, in one
    call per n and one per alpha."""
    from threshold_lab.binomial_kernel import SelectionMode, TailConvention, _march, _select_walk

    mode, tail = SelectionMode(mode), TailConvention(tail)

    def picks(n, alphas):
        return [pick and pick[:2] for pick in _select_walk(n, tuple(alphas), mode, tail)]

    if kind in ("march", "large", "ties"):
        if kind == "march":
            lines = [f"{n} {s} {log_l0!r}\n" for n, s, log_l0 in _march(alphas[0], mode, tail, n_max)]
        elif kind == "large":
            lines = [f"{n} {picks(n, alphas[i:i + n_max])}\n" for n in LARGE_NS for i in range(0, len(alphas), n_max)]
        else:
            c = 2 if tail is TailConvention.TWO_SIDED_SYMMETRIC else 1
            ties = {n: _exact_tail_ps(n, c) for n in range(1, TIE_N_MAX + 1)}
            lines = [f"{n} {ps} {picks(n, ps)} {[picks(n, (a,))[0] for a in ps]}\n" for n, ps in ties.items()]
        if n_max > N_MAX or kind != "march":  # a digest keeps the result files small
            print(len(lines), hashlib.sha256("".join(lines).encode()).hexdigest())
        else:
            sys.stdout.writelines(lines)
    else:
        for n in range(1, N_MAX + 1):  # each pick as (s, p): a tree whose picks carry more prints the same shape
            print(n, *picks(n, alphas))
    return 0


def _fresh(argv: list[str]) -> int:
    """Run one CLI call in a fresh interpreter, as the console script does, and print what it printed."""
    code = "import sys; from threshold_lab.cli import main; sys.argv[0] = 'threshold-lab'; main()"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    return done.returncode


def run_corpus(corpus_path: str, out_path: str) -> None:
    """Run every case of the corpus file in this interpreter and write {name: [exit code, stdout, stderr]}."""
    from threshold_lab.cli import parse_and_dispatch

    results = {}
    for name, kind, arg in json.loads(Path(corpus_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = (parse_and_dispatch(arg) if kind == "cli" else _fresh(arg) if kind == "fresh"
                        else _library(kind, *arg))
            except Exception as exc:  # a revision without the name, or a call that fails: part of its output
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        results[name] = [code, out.getvalue(), err.getvalue()]
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


def _start(tree: Path, work: Path, tag: str) -> tuple[subprocess.Popen, Path]:
    """Start run_corpus in a fresh interpreter with tree/src first on the path, in work (where the grid files are)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(ROOT)]), PYTHONDONTWRITEBYTECODE="1")
    out = work / f"{tag}.json"
    code = "import sys, samecheck; samecheck.run_corpus(sys.argv[1], sys.argv[2])"
    cmd = [sys.executable, "-c", code, str(work / "corpus.json"), str(out)]
    return subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True), out


def _lines(result: list) -> list[str]:
    code, out, err = result
    return [f"exit {code}\n", "stdout:\n", *out.splitlines(True), "stderr:\n", *err.splitlines(True)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="the git revision to compare with")
    rev = parser.parse_args().against
    with tempfile.TemporaryDirectory() as tmp:
        base, work = Path(tmp) / "rev", Path(tmp) / "work"
        base.mkdir()
        work.mkdir()
        archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(base)], stdin=archive.stdout, capture_output=True)
        archive.stdout.close()
        fault = archive.stderr.read().decode(errors="replace")
        archive.stderr.close()
        if archive.wait() != 0 or untar.returncode != 0:
            print(f"samecheck: cannot unpack {rev}: {fault or untar.stderr.decode(errors='replace')}", file=sys.stderr)
            return 2
        cases = corpus(work)
        (work / "corpus.json").write_text(json.dumps(cases), encoding="utf-8")
        runs = [_start(base, work, "rev"), _start(ROOT, work, "checkout")]
        results = []
        for proc, out in runs:
            _, err = proc.communicate()
            if proc.returncode != 0:
                print(f"samecheck: the corpus did not run in {out.stem}:\n{err}", file=sys.stderr)
                return 2
            results.append(json.loads(out.read_text(encoding="utf-8")))
    old, new = results
    differ = [name for name, _, _ in cases if old[name] != new[name]]
    for name in differ:
        print(f"differs: {name}")
        sys.stdout.writelines(difflib.unified_diff(_lines(old[name]), _lines(new[name]), rev, "checkout", n=1))
    print(f"samecheck: {len(differ)} of {len(cases)} cases differ against {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
