"""Self-test of samecheck.py: no difference against HEAD, and the changed cases of doctored copies named.

Run from the root of the checkout (about 25 s):

    python3 -m unittest samecheck_selftest -v
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import samecheck

ROOT = Path(__file__).resolve().parent
COMMANDS = json.loads((ROOT / "tests" / "data" / "cli_surface.json").read_text(encoding="utf-8"))
GOLDEN_ARGV = samecheck._golden_argv()


def _samecheck(root: Path, rev: str, kinds: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """samecheck.py --against rev, or with kinds its main() over the corpus's cases of those kinds alone."""
    if not kinds:
        return subprocess.run([sys.executable, str(root / "samecheck.py"), "--against", rev],
                              capture_output=True, text=True)
    code = ("import sys, samecheck; full = samecheck.corpus; "
            f"samecheck.corpus = lambda work: [case for case in full(work) if case[1] in {kinds!r}]; "
            "sys.exit(samecheck.main())")
    return subprocess.run([sys.executable, "-c", code, "--against", rev], cwd=root, capture_output=True, text=True)


class SameCheck(unittest.TestCase):
    def test_against_head_names_nothing(self):
        done = _samecheck(ROOT, "HEAD")
        self.assertEqual(done.returncode, 0, done.stdout[-2000:] + done.stderr)
        self.assertRegex(done.stdout, r"^samecheck: 0 of \d+ cases differ against HEAD\n$")

    def test_a_doctored_copy_names_each_changed_case(self):
        # the crossing command's one-line help shows only in the top-level help, which --help and -h COMMAND print;
        # only CLI cases run here, as the doctored text reaches no library case (the check against HEAD runs them)
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "copy"
            subprocess.run(["git", "clone", "-q", "--shared", str(ROOT), str(copy)], check=True)
            shutil.copy(ROOT / "samecheck.py", copy)  # the script under test, committed or not
            cli = copy / "src" / "threshold_lab" / "cli.py"
            text = cli.read_text(encoding="utf-8")
            self.assertEqual(text.count('"first n whose posterior reaches a level"'), 1)
            cli.write_text(text.replace("posterior reaches a level", "posterior touches a level"), encoding="utf-8")
            done = _samecheck(copy, "HEAD", kinds=("cli",))
        self.assertEqual(done.returncode, 1, done.stderr)
        named = [line[len("differs: "):] for line in done.stdout.splitlines() if line.startswith("differs: ")]
        self.assertEqual(sorted(named), sorted(["cli --help", *(f"cli -h {c}" for c in COMMANDS)]))
        self.assertRegex(done.stdout, r"\n-\s+crossing\s+first n whose posterior reaches a level\n")
        self.assertRegex(done.stdout, r"\n\+\s+crossing\s+first n whose posterior touches a level\n")
        self.assertRegex(done.stdout, rf"\nsamecheck: {len(named)} of \d+ cases differ against HEAD\n$")

    def test_a_fresh_call_shows_an_import_that_only_an_earlier_case_made(self):
        # prep doctored to read the kernel, which it does not import: in one process the benchmark's sweeps have
        # loaded the kernel before the first prep, so only prep's fresh-interpreter case shows the fault
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "copy"
            subprocess.run(["git", "clone", "-q", "--shared", str(ROOT), str(copy)], check=True)
            shutil.copy(ROOT / "samecheck.py", copy)
            cli = copy / "src" / "threshold_lab" / "cli.py"
            text = cli.read_text(encoding="utf-8")
            lazy = "    from .replicability import p_rep\n"
            self.assertEqual(text.count(lazy), 1)
            cli.write_text(text.replace(lazy, lazy + '    sys.modules["threshold_lab.binomial_kernel"]\n'),
                           encoding="utf-8")
            done = _samecheck(copy, "HEAD", kinds=("cli", "fresh"))
        self.assertEqual(done.returncode, 1, done.stderr)
        named = [line[len("differs: "):] for line in done.stdout.splitlines() if line.startswith("differs: ")]
        self.assertEqual(named, ["fresh prep --p 0.05"])
        self.assertRegex(done.stdout, r"\n\+KeyError: 'threshold_lab.binomial_kernel'\n")

    def test_a_command_parser_that_reports_leftovers_itself_is_named(self):
        # the one-parser path doctored to parse_args alone: the command's usage and error replace the top level's
        # "unrecognized arguments", which only the edge matrix's calls with arguments left over show
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "copy"
            subprocess.run(["git", "clone", "-q", "--shared", str(ROOT), str(copy)], check=True)
            # the script and the whole package, committed or not: the parser alone may not run on HEAD's modules
            shutil.copy(ROOT / "samecheck.py", copy)
            shutil.rmtree(copy / "src" / "threshold_lab")
            shutil.copytree(ROOT / "src" / "threshold_lab", copy / "src" / "threshold_lab",
                            ignore=shutil.ignore_patterns("__pycache__"))
            cli = copy / "src" / "threshold_lab" / "cli.py"
            text = cli.read_text(encoding="utf-8")
            known = ".parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))\n"
            self.assertEqual(text.count(known), 1)
            cli.write_text(text.replace(known, ".parse_args(argv[1:], argparse.Namespace(command=argv[0])), []\n"),
                           encoding="utf-8")
            done = _samecheck(copy, "HEAD", kinds=("cli",))
        self.assertEqual(done.returncode, 1, done.stderr)
        named = [line[len("differs: "):] for line in done.stdout.splitlines() if line.startswith("differs: ")]
        want = [f"cli {' '.join(argv)} {extra}" for argv in GOLDEN_ARGV for extra in ("extra", "--bogus", "--", "-")]
        # sweep requires no flag, so every flag after its -- is left over too
        want += [f"cli sweep -- {' '.join(argv[1:])}" for argv in GOLDEN_ARGV if argv[0] == "sweep"]
        self.assertEqual(sorted(named), sorted(want))
        self.assertRegex(done.stdout, r"\n-threshold-lab: error: unrecognized arguments: extra\n")
        self.assertRegex(done.stdout, r"\n\+threshold-lab prep: error: unrecognized arguments: extra\n")

if __name__ == "__main__":
    unittest.main()
