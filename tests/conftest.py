import math
from pathlib import Path

import pytest
from hypothesis import settings

from check import EXPECTED_DIR

from threshold_lab import SweepGrid, run_sweep

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def default_rows():
    """One shared evaluation of the built-in grid; several files assert on it."""
    return run_sweep(SweepGrid())


@pytest.fixture(scope="session")
def golden():
    """Text of a committed golden output under tests/data, byte for byte."""
    return lambda name: (Path(__file__).parent / "data" / name).read_bytes().decode("utf-8")


@pytest.fixture(scope="session")
def expected():
    """Text of one of the benchmark's answers under perfbench/expected, byte for byte: the only copy."""
    return lambda name: (EXPECTED_DIR / name).read_bytes().decode("utf-8")


def _counted(monkeypatch, name):
    """Counts calls to math.<name> from here to the end of the test; call the result to read the count."""
    calls = 0
    func = getattr(math, name)

    def counted(x):
        nonlocal calls
        calls += 1
        return func(x)

    monkeypatch.setattr(math, name, counted)
    return lambda: calls


@pytest.fixture
def lgamma_calls(monkeypatch):
    """Counts math.lgamma calls from here to the end of the test; call it to read the count."""
    return _counted(monkeypatch, "lgamma")


@pytest.fixture
def log1p_calls(monkeypatch):
    """Counts math.log1p calls, one per term a tail fold adds, as lgamma_calls counts lgamma."""
    return _counted(monkeypatch, "log1p")
