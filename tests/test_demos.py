"""Every demo script runs to the end without writing to stderr."""

import subprocess
import sys
from pathlib import Path

import pytest

from child_env import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
