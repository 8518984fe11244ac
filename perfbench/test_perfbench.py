"""Self-checks of the benchmark itself.

Run from the root of the checkout:

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probe  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from check import EXPECTED_DIR, check  # noqa: E402
from tracer import SPANNED, Tracer  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

from threshold_lab import cli  # noqa: E402


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.parse_and_dispatch(list(argv))
    return rc, out.getvalue()


@contextlib.contextmanager
def _in_dir_with(files: dict[str, str]):
    """A temporary working directory holding a plan's input files."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for rel, text in files.items():
            path = Path(tmp) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(old)


def _cheap_requests(plan, count: int = 6) -> list[list[str]]:
    """The requests of a plan with the smallest --n or --level, so the checks stay quick."""
    def cost(argv):
        flag = "--n" if "--n" in argv else "--level" if "--level" in argv else None
        return float(argv[argv.index(flag) + 1]) if flag else 0.0
    return sorted(plan.requests, key=cost)[:count]


class PlanTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for w in WORKLOADS:
            a, b = make_plan(w, 11), make_plan(w, 11)
            self.assertEqual((a.requests, a.files), (b.requests, b.files), w)

    def test_different_seeds_give_different_inputs(self):
        for w in WORKLOADS:
            a, b = make_plan(w, 11), make_plan(w, 12)
            self.assertNotEqual((a.requests, a.files), (b.requests, b.files), w)

    def test_every_request_parses(self):
        parser = cli.build_parser()
        for w in WORKLOADS:
            plan = make_plan(w, 3)
            self.assertGreater(len(plan.requests), 0)
            for argv in plan.requests:
                parser.parse_args(argv)


class TracerTest(unittest.TestCase):
    def test_traced_stdout_matches_untraced_and_originals_come_back(self):
        from threshold_lab import binomial_kernel, sweep_report

        originals = {name: getattr(binomial_kernel, name) for name in SPANNED["binomial_kernel"]}
        for w in WORKLOADS:
            plan = make_plan(w, 5)
            with _in_dir_with(plan.files):
                requests = _cheap_requests(plan)
                plain = [_run_cli(argv) for argv in requests]
                tracer = Tracer()
                tracer.install()
                try:
                    traced = [_run_cli(argv) for argv in requests]
                finally:
                    tracer.uninstall()
            self.assertEqual(plain, traced, w)
            self.assertGreater(tracer.metrics(len(requests))["cli.self_ms"], 0.0)
        for name, fn in originals.items():
            self.assertIs(getattr(binomial_kernel, name), fn)
        self.assertIs(sweep_report._select_walk, binomial_kernel._select_walk)

    def test_sweep_cells_and_pool_threads_are_attributed(self):
        tracer = Tracer()
        tracer.install()
        try:
            rc, _ = _run_cli(["sweep", "--alphas", "0.05,0.01"])
        finally:
            tracer.uninstall()
        self.assertEqual(rc, 0)
        m = tracer.metrics(1)
        self.assertEqual(m["sweep_report.cells"], 30)
        self.assertEqual(m["bayes_evidence.posterior_calls"], 30)
        self.assertGreater(m["sweep_report.emit_bytes"], 0)


class CheckTest(unittest.TestCase):
    def test_accepts_the_library_and_rejects_wrong_answers(self):
        argv = ["critical", "--n", "5000", "--alpha", "0.01"]
        rc, text = _run_cli(argv)
        self.assertIsNone(check(argv, rc, text))
        out = json.loads(text)
        self.assertIsNotNone(check(argv, rc, json.dumps(dict(out, s=out["s"] + 1))))
        self.assertIsNotNone(check(argv, rc, json.dumps(dict(out, p_achieved=out["p_achieved"] * (1 + 1e-9)))))
        self.assertIsNotNone(check(argv, 1, text))

        argv = ["crossing", "--alpha", "0.05", "--level", "0.4"]
        rc, text = _run_cli(argv)
        self.assertIsNone(check(argv, rc, text))
        self.assertIsNotNone(check(argv, rc, json.dumps(dict(json.loads(text), n=37))))

        rc, text = _run_cli(["sweep"])
        self.assertEqual(text, (EXPECTED_DIR / "default_sweep.csv").read_text())
        self.assertIsNone(check(["sweep"], rc, text))
        self.assertIsNotNone(check(["sweep"], rc, text.replace("0.236933108226", "0.236933108227")))

    def test_decimal_route_agrees_with_exact_route(self):
        n = ref.EXACT_N + 500
        for k in (n // 2 + 10, n // 2 + 60, n // 2 + 150):
            exact = Fraction(sum(math.comb(n, j) for j in range(k, n + 1)), 2 ** n)
            self.assertLess(abs(Fraction(ref.upper_tail(n, k)) - exact) / exact, Fraction(1, 10 ** 35))


class ScaleTest(unittest.TestCase):
    def test_each_request_is_the_median_of_its_scaled_repeats(self):
        phase = {"passes": [{"latencies_s": [0.010, 0.002], "scales": [1.0, 0.5]},
                            {"latencies_s": [0.020, 0.002], "scales": [0.5, 1.0]},
                            {"latencies_s": [0.030, 0.004], "scales": [1.0, 1.0]}]}
        for got, want in zip(run._scaled_ms(phase), [10.0, 2.0]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(run._raw_ms(phase), [20.0, 2.0]):
            self.assertAlmostEqual(got, want)

    def test_a_slow_probe_scales_times_down(self):
        self.assertEqual(probe.scale(probe.REFERENCE_S), 1.0)
        self.assertAlmostEqual(probe.scale(2 * probe.REFERENCE_S), 0.5)
        self.assertGreater(probe.probe_s(), 0.0)


class CommandTest(unittest.TestCase):
    def _run(self, cwd: Path, trace: int) -> subprocess.CompletedProcess:
        cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "point_queries",
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = self._run(ROOT, trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in spec[section]})

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            done = self._run(Path(tmp), 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
