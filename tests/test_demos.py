"""Every demo script runs to completion without a traceback and prints
exactly its golden output, tests/goldens/demos/<demo name>.txt."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDENS = ROOT / "tests" / "goldens" / "demos"


def test_every_demo_has_a_golden():
    assert sorted(g.stem for g in GOLDENS.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (GOLDENS / (demo.stem + ".txt")).read_text()
