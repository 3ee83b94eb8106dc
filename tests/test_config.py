"""Checks on the project's pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x > 0


def test_runs_after():
    pass
'''


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # with every warning an error, hypothesis' failure report must not turn
    # into an INTERNALERROR that ends the run before the next test
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "FAILED test_pair.py::test_fails" in out, out
    assert "PASSED test_pair.py::test_runs_after" in out, out
    assert "1 failed, 1 passed" in out, out
