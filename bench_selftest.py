"""Self-test of bench.py: one short run, the BENCH file's schema and the --against output.

Run from the root of the checkout (about 3 to 8 s):

    python3 -m unittest bench_selftest -v
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import bench

ROOT = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "bench.py"), *args], capture_output=True, text=True)


class BenchScript(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.dir = Path(cls.tmp.name)
        cls.done = _bench("--label", "selftest", "--workload", "point_queries", "--seed", "1", "--seconds", "1",
                          "--trace", "0", "--out", str(cls.dir))
        cls.path = cls.dir / "BENCH_selftest.json"
        cls.bench = json.loads(cls.path.read_text(encoding="utf-8"))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _write(self, name: str, bench: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(bench), encoding="utf-8")
        return str(path)

    def test_run_is_correct_and_exits_0(self):
        self.assertEqual(self.done.returncode, 0, self.done.stderr)

    def test_schema(self):
        bench = self.bench
        self.assertEqual(bench["label"], "selftest")
        self.assertRegex(bench["git_head"], r"^([0-9a-f]{40}|unknown)$")
        self.assertIsInstance(bench["git_changed"], list)
        self.assertEqual((bench["seeds"], bench["seconds"]), ([1], 1))
        self.assertEqual(list(bench["workloads"]), ["point_queries"])
        group = bench["workloads"]["point_queries"]["trace0"]
        self.assertEqual(sorted(group["metrics"]), sorted(END_TO_END))
        for name, metric in group["metrics"].items():
            self.assertEqual(metric["per_seed"], {"1": metric["median"]}, name)
            self.assertIsInstance(metric["unit"], str)
            self.assertGreater(metric["median"], 0.0, name)
        [run] = group["runs"]
        self.assertEqual((run["seed"], run["correct"], run["failed"]), (1, True, 0))
        self.assertGreater(run["attempted"], 0)
        self.assertEqual((run["facts"]["workload"], run["facts"]["trace"]), ("point_queries", 0))

    def test_against_itself_names_nothing(self):
        done = _bench("--show", str(self.path), "--against", str(self.path))
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(done.stdout.count(" 1.000 "), len(END_TO_END), done.stdout)
        self.assertIn("every end-to-end metric is inside its bound", done.stdout)

    def test_against_names_each_metric_outside_its_bound(self):
        base = copy.deepcopy(self.bench)
        metrics = base["workloads"]["point_queries"]["trace0"]["metrics"]
        metrics["latency_p50_ms"]["median"] /= 1.5  # the new run reads 50% slower than this base
        metrics["throughput_rps"]["median"] *= 1.2  # 17% fewer requests a second: inside the 25% bound
        metrics["peak_rss_mb"]["median"] /= 1.2  # 20% more memory: outside the 10% bound
        done = _bench("--show", str(self.path), "--against", self._write("base.json", base))
        self.assertEqual(done.returncode, 0, done.stderr)
        named = [line.split(": ")[-1] for line in done.stdout.splitlines() if line.startswith("bench: outside")]
        self.assertEqual(named, ["point_queries latency_p50_ms", "point_queries peak_rss_mb"])
        self.assertRegex(done.stdout, r"latency_p50_ms +\S+ +\S+ +1\.500  \+25%  OUTSIDE")

    def test_a_run_that_is_not_correct_exits_1(self):
        wrong = copy.deepcopy(self.bench)
        wrong["workloads"]["point_queries"]["trace0"]["runs"][0]["correct"] = False
        done = _bench("--show", self._write("wrong.json", wrong))
        self.assertEqual(done.returncode, 1)
        self.assertIn("not correct", done.stderr)


class ChildEnvironment(unittest.TestCase):
    def test_run_py_starts_with_bytecode_writing_on(self):
        # run.py's untimed first start writes the bytecode cache its set-up samples load; where the caller
        # sets PYTHONDONTWRITEBYTECODE, bench.py drops it and keeps the rest of the environment
        seen = {}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

        def run(cmd, **kwargs):
            seen.update(kwargs["env"])
            return subprocess.CompletedProcess(cmd, 0, f"facts {{}}\n{json.dumps(result)}\n", "")

        with mock.patch.dict(os.environ, {"PYTHONDONTWRITEBYTECODE": "1", "BENCH_SELFTEST_KEPT": "yes"}), \
                mock.patch.object(bench.subprocess, "run", run):
            self.assertTrue(bench._run_once("point_queries", 1, 1, 0)["correct"])
        self.assertNotIn("PYTHONDONTWRITEBYTECODE", seen)
        self.assertEqual(seen["BENCH_SELFTEST_KEPT"], "yes")


if __name__ == "__main__":
    unittest.main()
