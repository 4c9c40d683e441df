"""Self-test of the benchmark: every workload and every check, tiny inputs.

    python3 perfbench/selftest.py

Runs each workload untraced and traced on the tiny fixtures and checks
the result line against BENCHMARK.json (keys, metric names and units),
that every output check passed, and that the traced run sees the layers
each workload is meant to exercise.  It also checks that the benchmark
refuses to run without the latentw sources.  No timing is gated.
Takes well under a minute; exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "duplicate names"
    assert all(NAME.match(n) for n in names), names
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"]), m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
        assert UNIT.match(m["unit"]), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    return spec


def _run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    header = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, \
        (result, header["errors"])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}, \
        set(got) ^ {m["name"] for m in expected}
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], m
        assert isinstance(got[m["name"]]["value"], (int, float))
        if not trace:
            assert got[m["name"]]["value"] > 0, m
    env = header["env"]
    for key in ("commit", "nproc", "python", "numpy", "scipy", "seed",
                "threads", "fixture"):
        assert key in env, key
    assert header["sha256"] and all(header["sha256"].values())
    return {k: v["value"] for k, v in got.items()} | {"_env": env}


def check_layers(workload: str, m: dict) -> None:
    """The traced run sees the layers this workload exists to exercise."""
    fixture = m["_env"]["fixture"]
    if workload.startswith("meth-"):
        assert m["methylation.parse.reads"] == fixture["reads"], m
        assert m["methylation.extract.triplets_kept"] == \
            fixture["triplets_kept"], m
        assert m["exchangeable.tv.n8_ms"] > 0 and m["inference.estimate.s"] > 0
        assert m["methylation.report.threads"] >= 1
        assert m["product.starts"] == 0 and m["space.read_counts.s"] == 0
        # write_report_tsv re-enters itself; only the outer call is counted.
        assert m["methylation.write.bytes"] > 0
    else:
        assert m["product.starts"] > 0 and m["product.converged_ratio"] == 1
        assert m["methylation.parse.s"] == 0 and m["methylation.report.s"] == 0
        assert m["exchangeable.decompose.calls"] > 0
        assert m["space.read_counts.s"] > 0
    assert m["cli.self_s"] > 0 and m["trace.spans"] > 0
    assert m["cli.ops_failed_ratio"] == 0


def check_refuses_without_sources() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("meth-deep", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    spec = _spec()
    for w in spec["workloads"]:
        for trace in (0, 1):
            m = check_workload(spec, w["name"], trace)
            if trace:
                check_layers(w["name"], m)
            print(f"ok  {w['name']} trace={trace}", flush=True)
    check_refuses_without_sources()
    print("ok  refuses to run without src/latentw")
    return 0


if __name__ == "__main__":
    sys.exit(main())
