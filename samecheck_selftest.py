"""Self-test of samecheck.py: no difference against HEAD, and the changed cases of a doctored copy named.

Run from the root of the checkout (about 20 s):

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

ROOT = Path(__file__).resolve().parent
COMMANDS = json.loads((ROOT / "tests" / "data" / "cli_surface.json").read_text(encoding="utf-8"))


def _samecheck(root: Path, rev: str, cli_only: bool = False) -> subprocess.CompletedProcess:
    """samecheck.py --against rev, or with cli_only its main() over the corpus's CLI cases alone."""
    if not cli_only:
        return subprocess.run([sys.executable, str(root / "samecheck.py"), "--against", rev],
                              capture_output=True, text=True)
    code = ("import sys, samecheck; full = samecheck.corpus; "
            "samecheck.corpus = lambda work: [case for case in full(work) if case[1] == 'cli']; "
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
            done = _samecheck(copy, "HEAD", cli_only=True)
        self.assertEqual(done.returncode, 1, done.stderr)
        named = [line[len("differs: "):] for line in done.stdout.splitlines() if line.startswith("differs: ")]
        self.assertEqual(sorted(named), sorted(["cli --help", *(f"cli -h {c}" for c in COMMANDS)]))
        self.assertRegex(done.stdout, r"\n-\s+crossing\s+first n whose posterior reaches a level\n")
        self.assertRegex(done.stdout, r"\n\+\s+crossing\s+first n whose posterior touches a level\n")
        self.assertRegex(done.stdout, rf"\nsamecheck: {len(named)} of \d+ cases differ against HEAD\n$")


if __name__ == "__main__":
    unittest.main()
