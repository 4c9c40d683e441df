"""One workload process: runs the latentw CLI in-process, pass after pass.

Started by ``run.py`` with the fixture oracle already written.  A pass is
every CLI call of the workload, made through ``latentw.cli.main(argv)``;
each call is timed from outside, and its output file is checked against
the oracle after the pass, outside the timed region.  Passes repeat until
the next one would not fit in ``--seconds``.

With ``--trace 1`` passes alternate untraced and traced (the tracer's
wrappers are installed for the traced ones only), so one run gives both
the per-layer spans and the tracing overhead on the same inputs.

The result, with the process's peak RSS, goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracer as tr
import workloads


def _run_call(call: workloads.Call, trace: tr.Tracer | None, cli_main):
    """Time one CLI call; returns (seconds, error or None, stderr text)."""
    err = io.StringIO()
    span = trace.open("cli.main", command=call.command) if trace else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli_main(list(call.argv))
        error = None if rc == 0 else f"exit {rc}"
    except Exception as exc:            # noqa: BLE001 - counted as a failed op
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if span:
        trace.close(span)
    return dt, error, err.getvalue()


def _check(call: workloads.Call, error, stderr: str, state: dict) -> int:
    if error is not None:
        return call.ops
    try:
        return min(call.ops, call.check(call.out, stderr, state))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        state.setdefault("errors", []).append(f"{call.name}: {exc}")
        return call.ops


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--oracle", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import numpy
    import scipy
    import latentw
    import latentw.cli
    from latentw.space import SampleSpace
    if not os.path.abspath(latentw.__file__).startswith(args.src + os.sep):
        raise SystemExit(f"latentw imported from {latentw.__file__}, "
                         f"not from {args.src}")

    with open(args.oracle, encoding="utf-8") as fh:
        oracle = json.load(fh)
    calls = workloads.calls(oracle, args.seed, args.size, args.out_dir)
    tracer = tr.Tracer() if args.trace else None

    # Warm-up: build the orbit indices a CLI process builds on first use
    # (the cold cost is setup_s, measured in fresh interpreters).
    saved = tr.install(tracer) if tracer else None
    for k, d in workloads.spaces(oracle):
        SampleSpace(k, d).orbit_index()
    if tracer:
        tr.uninstall(saved)
        cold, tracer.spans = tracer.spans, []

    passes = []
    digests: dict[str, str | None] = {}
    attempted = failed = 0
    errors: list[str] = []
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        saved = tr.install(tracer) if traced else None
        p0 = time.perf_counter()
        timings = []
        for call in calls:
            dt, error, stderr = _run_call(call, tracer if traced else None,
                                          latentw.cli.main)
            timings.append((call, dt, error, stderr))
        if traced:
            tr.uninstall(saved)
        state: dict = {}
        pass_failed = 0
        for call, dt, error, stderr in timings:
            pass_failed += _check(call, error, stderr, state)
            digest = _sha256(call.out)
            # Same argv, same seed: the bytes must not change between passes.
            if call.name in digests and digests[call.name] != digest:
                pass_failed += 1
                errors.append(f"{call.name}: output bytes changed")
            digests[call.name] = digest
        errors.extend(state.get("errors", []))
        attempted += sum(c.ops for c in calls)
        failed += pass_failed
        passes.append({
            "traced": traced,
            "wall_s": sum(dt for _, dt, _, _ in timings),
            "calls": {c.name: dt for c, dt, _, _ in timings},
        })
        longest = max(longest, time.perf_counter() - p0)
        elapsed = time.perf_counter() - t_start
        need = 2 if tracer else 1
        if len(passes) >= need and elapsed + longest > args.seconds:
            break

    result = {
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "latentw": latentw.__version__},
        "commands": {c.name: c.command for c in calls},
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "sha256": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        n_traced = sum(p["traced"] for p in passes)
        covered = oracle.get("epireads", {}).get("triplets_covered", 0)
        layers = tr.layer_metrics(tracer.spans, n_traced, cold, covered)
        plain = [p["wall_s"] for p in passes if not p["traced"]]
        traced_s = [p["wall_s"] for p in passes if p["traced"]]
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_s) / statistics.median(plain) - 1.0)
        result["layers"] = layers
        tracer.dump(os.path.join(os.path.dirname(args.result),
                                 "trace.jsonl"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
