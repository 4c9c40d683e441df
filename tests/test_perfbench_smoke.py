"""The benchmark still runs against this tree.

``perfbench/selftest.py`` runs every workload untraced and traced at tiny
size and checks the metric names, the output checks and the traced
layers, so a renamed traced function (``parse_epiread_file``,
``extract_triplets``, ...) or a broken workload check fails here.  No
timing is gated.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
