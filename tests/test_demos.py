"""The demo scripts the README lists: each runs to the end and exits 0, and
those with a recorded output print it exactly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: the stdout of each model demo, one file per demo named after it
OUTPUTS = Path(__file__).parent / "demo_output"


def run(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    done = run(demo, tmp_path)
    assert done.returncode == 0, f"{demo.name} exited {done.returncode}:\n{done.stderr}"


@pytest.mark.parametrize("recorded", sorted(OUTPUTS.glob("*.txt")), ids=lambda path: path.stem)
def test_demo_prints_its_recorded_output(recorded, tmp_path):
    done = run(ROOT / "demos" / f"{recorded.stem}.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == recorded.read_text()
