"""Every demo script runs to the end without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
