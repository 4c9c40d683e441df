"""latentw benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (``src/latentw`` must be there)::

    python3 perfbench/run.py --workload meth-deep --seed 1 --seconds 30 \
        --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``meth-deep``     ``meth triplets`` on 60k reads over 1 200 positions:
                    per-triplet statistics dominate.
* ``meth-shallow``  ``meth triplets`` on 300k reads over 180 000 positions,
                    few triplets covered: ingestion dominates.
* ``count-tables``  ``tv``, ``estimate``, ``decompose --exact`` and
                    ``classweight`` on Dirichlet-multinomial tables up to
                    k**d = 4096.

Steps: write the seeded fixtures and their oracle; time a cold CLI start
in fresh interpreters (``setup_s``); run the workload in one worker
process (``worker.py``) for ``--seconds``; check every output; print an
environment line, then one JSON result line.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Files go under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import fixtures
import workloads

WORKLOADS = ("meth-deep", "meth-shallow", "count-tables")
#: Fresh interpreters timed for setup_s.  Only the first start in a new
#: checkout compiles bytecode; the median absorbs it.
SETUP_REPEATS = 3
#: The whole run, fixtures and set-up included, ends within this.
RUN_LIMIT_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _child_env() -> dict:
    env = dict(os.environ)
    # One process, at most THREADS worker threads: no BLAS/OpenMP pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(src: str, spaces, deadline: float) -> list[float]:
    """Wall time of a cold CLI start: a fresh interpreter that imports
    ``latentw.cli`` and builds the orbit index of every workload space."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import latentw.cli; "
            "from latentw.space import SampleSpace; "
            f"[SampleSpace(k, d).orbit_index() for k, d in {spaces!r}]")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, src], cwd=ROOT,
                       env=_child_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - t0)
    return times


def _commit() -> str:
    """HEAD commit read from .git without running git; "unknown" outside
    a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest(src: str) -> str:
    """sha256 over the package sources, which identifies the code under
    test when there is no commit to name."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "latentw")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(oracle: dict, setup: list[float], res: dict,
              trace: bool) -> tuple[dict, dict]:
    """(metrics for the result line, informational detail)."""
    plain = [p for p in res["passes"] if not p["traced"]]
    detail: dict = {"passes": len(res["passes"]),
                    "untraced_passes": len(plain),
                    "pass_wall_s": [p["wall_s"] for p in res["passes"]]}
    # Per subcommand: seconds of one pass over its sizes, median over passes.
    for cmd in ("meth_triplets", "tv", "estimate", "decompose",
                "classweight"):
        per_pass = [sum(dt for name, dt in p["calls"].items()
                        if res["commands"][name] == cmd) for p in plain]
        if any(per_pass):
            detail[f"{cmd}_s"] = _median(per_pass)
    if "epireads" in oracle:
        epi = oracle["epireads"]
        meth_s = detail["meth_triplets_s"]
        detail["reads_per_s"] = epi["reads"] / meth_s
        detail["triplets_per_s"] = len(epi["triplets"]) / meth_s

    if trace:
        metrics = dict(res["layers"])
        metrics["cli.ops_failed_ratio"] = res["failed"] / res["attempted"]
        metrics["cli.reads_per_s"] = detail.get("reads_per_s", 0.0)
        metrics["cli.triplets_per_s"] = detail.get("triplets_per_s", 0.0)
    else:
        metrics = {
            "setup_s": _median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            # Each call at its median over passes: one slow stretch of the
            # machine during one call of one pass does not move the sum.
            "pass_s": sum(_median([p["calls"][name] for p in plain])
                          for name in plain[0]["calls"]),
        }
    return metrics, detail


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's fixtures (not for timing)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "latentw", "cli.py")):
        sys.stderr.write(f"perfbench: no latentw sources under {src}; run "
                         "from the root of a latentw checkout\n")
        return 2

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    oracle = fixtures.generate(args.workload, args.seed, args.size,
                               os.path.join(work, "in"))
    oracle_path = os.path.join(work, "oracle.json")
    with open(oracle_path, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh)

    setup = measure_setup(src, workloads.spaces(oracle), deadline)

    result_path = os.path.join(work, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--src", src, "--oracle", oracle_path,
           "--out-dir", os.path.join(work, "out"), "--result", result_path,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: workload process timed out\n")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: workload process exited "
                         f"{proc.returncode}\n")
        return 1
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    metrics, detail = summarize(oracle, setup, res, bool(args.trace))
    epi = oracle.get("epireads")
    env = {
        "commit": _commit(),
        "src_sha256": _src_digest(src),
        "nproc": os.cpu_count(),
        **res["versions"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "threads": workloads.THREADS,
        "fixture": ({"reads": epi["reads"], "bytes": epi["bytes"],
                     "triplets_covered": epi["triplets_covered"],
                     "triplets_kept": len(epi["triplets"])} if epi else
                    {name: {"k": t["k"], "d": t["d"], "n": sum(t["counts"])}
                     for name, t in oracle["tables"].items()}),
        "setup_runs_s": setup,
    }
    report = {"env": env, "detail": detail, "errors": res["errors"],
              "sha256": res["sha256"]}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)
    print(json.dumps(report))

    units = _units()
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
