"""Spans around the calls into latentw's modules, recorded from outside.

The tracer replaces module attributes that callers look up at call time
(``latentw.methylation.estimate``, ``latentw.cli.read_counts``, ...) with
wrappers that open a span, call the original and close the span.  The
program itself is not changed; uninstalling puts the originals back.

A span records its name, start and end (``perf_counter``), the thread
CPU time it used (``thread_time``), its parent span on the same thread,
the thread id, and a few attributes read from the call's arguments or
result.  Spans stay in memory and are written out when the run ends.

Self time is a span's duration minus the time its children cover.
Children are only ever spans of the same thread, because the stack of
open spans is thread-local: with ``--threads 2`` the per-triplet spans of
the two pool threads overlap in time, and subtracting them from the
main thread's ``triplet_report`` span would count that time twice.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "tid", "t0", "t1", "cpu", "child_s",
                 "attrs")

    def __init__(self, name, parent, tid, attrs):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None,
                    threading.get_ident(), attrs)
        stack.append(span)
        span.cpu = time.thread_time()
        span.t0 = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().remove(span)
        if span.parent is not None:
            span.parent.child_s += span.dur
        self.spans.append(span)      # list.append is atomic under the GIL

    def is_open(self, name: str) -> bool:
        return any(s.name == name for s in self._stack())

    def dump(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name,
                    "parent": ids.get(id(s.parent)), "tid": s.tid,
                    "t0": s.t0, "t1": s.t1, "cpu_s": s.cpu,
                    "attrs": s.attrs}) + "\n")


# ------------------------------------------------------------ wrappers ----

def _wrap(tracer: Tracer, fn, name: str, before=None, after=None):
    """Span around ``fn``.  ``before(args, kwargs)`` and ``after(result)``
    return attributes for the span."""

    def traced(*args, **kwargs):
        # write_report_tsv(report, "path") calls itself through its module
        # global with the open file, which reaches this wrapper again: only
        # the outermost call is the stage, so nested calls run untraced.
        if tracer.is_open(name):
            return fn(*args, **kwargs)
        span = tracer.open(name, **(before(args, kwargs) if before else {}))
        try:
            result = fn(*args, **kwargs)
            if after:
                span.attrs.update(after(result))
            return result
        finally:
            tracer.close(span)

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, fn, name: str):
    """Span around a generator function.

    ``parse_epiread_file`` returns a lazy generator: calling it does no
    work, so the span opens when the first record is asked for and closes
    when the generator is exhausted or closed.  It therefore covers the
    point where the records are consumed; whatever the consumer does
    between two records falls inside it too.
    """

    def traced(*args, **kwargs):
        span = tracer.open(name)
        n = 0
        try:
            for item in fn(*args, **kwargs):
                n += 1
                yield item
        finally:
            span.attrs["reads"] = n
            tracer.close(span)

    traced.__wrapped__ = fn
    return traced


def _space_attrs(args, kwargs):
    space = args[0].space
    return {"k": space.k, "d": space.d}


def _estimate_attrs(args, kwargs):
    c = args[0]
    n_boot = kwargs.get("n_boot", args[1] if len(args) > 1 else 1000)
    return {"n_out": c.space.n_outcomes, "n_boot": n_boot}


def _class_weight_after(res):
    return {"converged": bool(res.converged),
            "starts": len(res.multistart_log),
            "margin": float(res.certificate_margin)}


#: (module, attribute, span name, hooks).  One entry per place a
#: caller looks a function up: cli reaches inference through the module
#: object, methylation imported ``estimate`` by name, and so on.
TARGETS = (
    ("latentw.cli", "read_counts", "space.read_counts", {}),
    # SampleSpace.orbit_index calls this on a cache miss only: cold builds.
    ("latentw.space", "build_orbit_index", "space.orbit_index", {}),
    ("latentw.methylation", "parse_epiread_file", "methylation.parse",
     {"generator": True}),
    ("latentw.methylation", "extract_triplets", "methylation.extract",
     {"after": lambda r: {"kept": len(r)}}),
    ("latentw.methylation", "triplet_report", "methylation.report",
     {"before": lambda a, kw: {"threads": kw.get("threads", 1)},
      "after": lambda r: {"failures": len(r.failures)}}),
    # Runs on the pool threads with --threads 2: its spans overlap across
    # threads and are attributed per thread (see the module docstring).
    ("latentw.methylation", "_triplet_row", "methylation.triplet", {}),
    ("latentw.methylation", "write_report_tsv", "methylation.write",
     {"before": lambda a, kw: {"target": a[1] if isinstance(a[1], str)
                               else None}}),
    ("latentw.methylation", "estimate", "inference.estimate",
     {"before": _estimate_attrs}),
    ("latentw.inference", "estimate", "inference.estimate",
     {"before": _estimate_attrs}),
    ("latentw.inference", "empirical_regularity", "inference.regularity", {}),
    ("latentw.inference", "exchangeable_weight_rows",
     "exchangeable.weight_rows",
     {"before": lambda a, kw: {"rows": len(a[1])}}),
    ("latentw.methylation", "decompose", "exchangeable.decompose", {}),
    ("latentw.exchangeable", "decompose", "exchangeable.decompose", {}),
    ("latentw.methylation", "tv_distance_to_exchangeable", "exchangeable.tv",
     {"before": _space_attrs}),
    ("latentw.exchangeable", "tv_distance_to_exchangeable",
     "exchangeable.tv", {"before": _space_attrs}),
    ("latentw.cli", "class_weight", "product.class_weight",
     {"before": lambda a, kw: {"k": a[0].space.k, "d": a[0].space.d,
                               "kind": a[1].kind},
      "after": _class_weight_after}),
)


def install(tracer: Tracer) -> list:
    """Put the wrappers in place; returns what :func:`uninstall` needs."""
    saved = []
    for mod_name, attr, name, hooks in TARGETS:
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, attr)
        if hooks.get("generator"):
            wrapped = _wrap_generator(tracer, orig, name)
        else:
            wrapped = _wrap(tracer, orig, name, hooks.get("before"),
                            hooks.get("after"))
        saved.append((mod, attr, orig))
        setattr(mod, attr, wrapped)
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, orig in reversed(saved):
        setattr(mod, attr, orig)


# --------------------------------------------------------- aggregation ----

#: N values whose per-call TV time is reported (8 is the triplet space).
TV_SIZES = (8, 256, 729, 1024, 4096)
CLASS_CELLS = tuple(f"{kind}_k{k}d{d}" for kind in ("iid", "product")
                    for k, d in ((2, 3), (3, 2), (2, 5)))
CLI_COMMANDS = ("meth_triplets", "tv", "estimate", "decompose", "classweight")


def layer_metrics(spans: list[Span], n_passes: int, cold: list[Span],
                  triplets_covered: int) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the spans of those passes.

    ``cold`` holds the spans of the warm-up (the cold orbit builds);
    ``triplets_covered`` is the oracle's count of distinct triplets with
    any coverage, the base of ``methylation.extract.kept_ratio``.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name, attr="dur"):
        return sum(getattr(s, attr) for s in by[name]) / n_passes

    def count(name, key=None):
        if key is None:
            return len(by[name]) / n_passes
        return sum(s.attrs.get(key, 0) for s in by[name]) / n_passes

    m: dict[str, float] = {}
    # methylation
    m["methylation.parse.s"] = total("methylation.parse")
    m["methylation.parse.reads"] = count("methylation.parse", "reads")
    m["methylation.extract.s"] = total("methylation.extract")
    kept = count("methylation.extract", "kept")
    m["methylation.extract.triplets_kept"] = kept
    m["methylation.extract.kept_ratio"] = (kept / triplets_covered
                                           if triplets_covered else 0.0)
    report_s = total("methylation.report")
    triplet_s = total("methylation.triplet")
    triplet_cpu = total("methylation.triplet", "cpu")
    threads = max([s.attrs.get("threads", 1)
                   for s in by["methylation.report"]], default=1)
    m["methylation.report.s"] = report_s
    m["methylation.report.cpu_s"] = triplet_cpu
    m["methylation.report.parallel_eff"] = (
        triplet_cpu / (report_s * threads) if report_s else 0.0)
    m["methylation.report.threads"] = float(
        len({s.tid for s in by["methylation.triplet"]}))
    m["methylation.report.failures"] = count("methylation.report",
                                             "failures")
    m["methylation.triplet.s"] = triplet_s
    write_bytes = 0
    for s in by["methylation.write"]:
        target = s.attrs.get("target")
        if target and os.path.exists(target):
            write_bytes += os.path.getsize(target)
    m["methylation.write.s"] = total("methylation.write")
    m["methylation.write.bytes"] = write_bytes / n_passes
    meth_cli = sum(s.dur for s in by["cli.main"]
                   if s.attrs.get("command") == "meth_triplets") / n_passes
    m["methylation.ingest_share"] = (
        (m["methylation.parse.s"] + m["methylation.extract.s"]) / meth_cli
        if meth_cli else 0.0)

    # Per-triplet statistics: only the spans nested in a triplet span.
    def in_triplets(name):
        return sum(s.dur for s in by[name] if _under(s, "methylation.triplet")
                   ) / n_passes
    m["methylation.triplet.stats_share"] = (
        (in_triplets("exchangeable.tv") + in_triplets("inference.estimate"))
        / triplet_s if triplet_s else 0.0)

    # inference
    est = by["inference.estimate"]
    m["inference.estimate.calls"] = count("inference.estimate")
    m["inference.estimate.s"] = total("inference.estimate")
    m["inference.estimate.self_s"] = total("inference.estimate", "self_s")
    m["inference.estimate.wait_s"] = sum(s.dur - s.cpu for s in est) / n_passes
    m["inference.regularity.s"] = total("inference.regularity")
    m["inference.boot_bytes_computed"] = sum(
        s.attrs["n_boot"] * s.attrs["n_out"] * 8 for s in est) / n_passes

    # exchangeable
    m["exchangeable.weight_rows.s"] = total("exchangeable.weight_rows")
    m["exchangeable.weight_rows.rows"] = count("exchangeable.weight_rows",
                                               "rows")
    tv = by["exchangeable.tv"]
    m["exchangeable.tv.s"] = total("exchangeable.tv")
    m["exchangeable.tv.calls"] = count("exchangeable.tv")
    for n in TV_SIZES:
        per_call = [s.dur * 1e3 for s in tv
                    if s.attrs["k"] ** s.attrs["d"] == n]
        m[f"exchangeable.tv.n{n}_ms"] = (statistics.median(per_call)
                                         if per_call else 0.0)
    # The LP's dense inequality matrix is 2N x (C+N) float64, C orbits.
    m["exchangeable.tv.lp_bytes_computed"] = sum(
        _lp_bytes(s.attrs["k"], s.attrs["d"]) for s in tv) / n_passes
    m["exchangeable.decompose.s"] = total("exchangeable.decompose")
    m["exchangeable.decompose.calls"] = count("exchangeable.decompose")

    # product
    cw = by["product.class_weight"]
    for cell in CLASS_CELLS:
        m[f"product.class_weight.{cell}_s"] = sum(
            s.dur for s in cw
            if f"{s.attrs['kind']}_k{s.attrs['k']}d{s.attrs['d']}" == cell
        ) / n_passes
    m["product.starts"] = count("product.class_weight", "starts")
    m["product.converged_ratio"] = (
        sum(s.attrs["converged"] for s in cw) / len(cw) if cw else 0.0)
    m["product.certificate_margin_min"] = min(
        [s.attrs["margin"] for s in cw], default=0.0)

    # space
    m["space.read_counts.s"] = total("space.read_counts")
    builds = [s for s in cold if s.name == "space.orbit_index"]
    m["space.orbit_index.s"] = sum(s.dur for s in builds)
    m["space.orbit_index.builds"] = float(len(builds))

    # cli
    m["cli.self_s"] = total("cli.main", "self_s")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = sum(s.dur for s in by["cli.main"]
                                if s.attrs.get("command") == cmd) / n_passes
    m["trace.spans"] = len(spans) / n_passes
    return m


def _under(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _lp_bytes(k: int, d: int) -> int:
    n = k**d
    return 2 * n * (math.comb(k + d - 1, d) + n) * 8
