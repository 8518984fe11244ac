"""The suite's own pytest settings: a falsified property must be reported like any other failure."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).parent.parent / "pyproject.toml"

REPRO = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_a_falsified_property(x):
    assert x < 5


def test_a_plain_test_after_it():
    pass
'''


def test_a_falsified_property_does_not_abort_the_session(tmp_path):
    # Hypothesis explains a failure with libcst, whose import warns "mypy_extensions.TypedDict is deprecated";
    # under error::DeprecationWarning alone that was an INTERNALERROR, and no later test ran or was reported
    (tmp_path / "test_repro.py").write_text(REPRO, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path), "-q",
                          "-p", "no:cacheprovider", "test_repro.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout
