"""The dense digests do not depend on numpy's SIMD dispatch: they hold with
every dispatch target turned off, on numpy's baseline kernels alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def dispatch_targets() -> list[str]:
    """The SIMD targets numpy's kernels may dispatch to beyond its baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return list(getattr(umath, "__cpu_dispatch__", []))


def test_dense_digests_hold_on_the_baseline_dispatch():
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy reports no dispatch target to turn off")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_golden.py"), "-k", "dense"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
