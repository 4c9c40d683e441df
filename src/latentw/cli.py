"""Command line front end.

Subcommands: weight, decompose, bound, tv, classweight, estimate,
simulate, meth.  Exit codes: 0 success, 1 validation error, 2 I/O error.
Every structured output (JSON or TSV file) embeds the package version,
the seed, and a hash of the result-affecting configuration; thread count
is deliberately excluded from the hash because results do not depend on
it; ``--threads`` defaults to one worker per usable CPU.  All randomness
flows from ``--seed`` (default 0, never the clock; a negative seed is a
usage error).

A call builds the parser of the subcommand it names and of no other, as
most of a short call's time would otherwise go to building them all;
the help text, the usage errors and the parsed arguments are those of
the full parser, which a call naming no subcommand builds.  JSON
outputs are written by :func:`_json_text`: the bytes of
``json.dumps(payload, indent=2)``, with each top-level flat list, such
as a law's probabilities, rendered by the C encoder, which ``indent``
turns off.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import LatentwError
from .space import (_SYMBOL_CHARS, CountVector, empirical_distribution,
                     read_counts, utf8_lines)
from . import exchangeable as exch
from . import inference
from . import methylation as meth
from .product import ProductClassSpec, class_weight


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse exits 2 by default; we use 1
        raise _UsageError(message)


#: Arguments ``config_hash`` leaves out: the worker cap, which never
#: changes a result, and the input and output paths, so that the same call
#: on the same bytes gives the same hash from any directory.
_UNHASHED = {"threads", "out", "counts", "q0", "map", "epireads", "report",
             "covariate"}


def _config_hash(args: argparse.Namespace) -> str:
    items = {k: v for k, v in sorted(vars(args).items())
             if k not in _UNHASHED and not k.startswith("_") and k != "func"}
    blob = json.dumps(items, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(args, seed=None) -> dict:
    return {"version": __version__, "seed": seed,
            "config_hash": _config_hash(args)}


#: The types :func:`_json_text` gives the C encoder when a list holds only
#: them.
_SCALARS = {str, int, float, bool, type(None)}


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` of a dict with string keys.

    ``indent`` turns the C encoder off, so each top-level list of
    scalars, such as a law's probabilities, is rendered by the C encoder
    with separators that put each item on its own indented line; every
    other value goes through ``json.dumps(value, indent=2)``, indented
    one level further.
    """
    items = []
    for key, value in payload.items():
        if type(value) is list and value and set(map(type, value)) <= _SCALARS:
            body = json.dumps(value, separators=(",\n    ", ": "))[1:-1]
            text = f"[\n    {body}\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n" if items else "{}\n"


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _counts_arg(args) -> CountVector:
    return read_counts(args.counts, k=getattr(args, "k", None))


def _scalar_output(value, args, extra: dict | None = None, seed=None) -> str:
    if getattr(args, "json", False):
        payload = {"meta": _meta(args, seed=seed), "value": float(value)}
        if isinstance(value, Fraction):
            payload["exact"] = str(value)
        payload.update(extra or {})
        return _json_text(payload)
    if isinstance(value, Fraction):
        return f"{value}\n"
    return f"{float(value):.6f}\n"


# --------------------------------------------------------------- weight ----

def _cmd_weight(args) -> int:
    c = _counts_arg(args)
    p = empirical_distribution(c, exact=args.exact)
    lam = exch.exchangeable_weight(p)
    _emit(_scalar_output(lam, args), args.out)
    return 0


def _cmd_decompose(args) -> int:
    c = _counts_arg(args)
    p = empirical_distribution(c, exact=args.exact)
    dec = exch.decompose(p)
    space = p.space

    def vec(dist):
        return None if dist is None else dist.as_float().p.tolist()

    payload = {
        "meta": _meta(args),
        "lambda": float(dec.lam),
        "q": vec(dec.q),
        "r": vec(dec.r),
        "per_class_min": [float(v) for v in dec.per_class_min],
        "argmin_sets": [[space.outcome_str(i) for i in s]
                        for s in dec.argmin_sets],
    }
    if args.exact:
        payload["lambda_exact"] = str(dec.lam)
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_bound(args) -> int:
    c = _counts_arg(args)
    p = empirical_distribution(c, exact=args.exact)
    if args.bound_kind == "marginal":
        indices = _parse_int_list(args.indices, "indices")
        value = exch.marginal_weight_bound(p, indices)
    else:
        mapping = _read_symbol_map(args.map, p.space.k)
        value = exch.lumping_weight_bound(p, mapping)
    _emit(_scalar_output(value, args), args.out)
    return 0


def _cmd_tv(args) -> int:
    c = _counts_arg(args)
    p = empirical_distribution(c)
    dist, q = exch.tv_distance_to_exchangeable(p)
    extra = {"q": q.p.tolist()} if args.json else None
    _emit(_scalar_output(dist, args, extra=extra), args.out)
    return 0


def _cmd_classweight(args) -> int:
    if args.cls == "singleton" and not args.q0:
        raise _UsageError("--q0 is required for --class singleton")
    if args.cls != "singleton" and args.q0:
        raise _UsageError(f"--q0 applies to --class singleton only, not "
                          f"--class {args.cls}")
    p = empirical_distribution(_counts_arg(args))
    if args.q0:
        q0 = empirical_distribution(read_counts(args.q0, k=p.space.k))
        spec = ProductClassSpec(kind="singleton", q0=q0)
    else:
        spec = ProductClassSpec(kind=args.cls)
    res = class_weight(p, spec, args.grid)
    if args.json:
        payload = {
            "meta": _meta(args),
            "lambda": min(res.lam, 1.0),
            "lambda_raw": res.lam,
            "argmax_q": res.argmax_q.p.tolist(),
            "certificate_margin": res.certificate_margin,
            "converged": res.converged,
            "n_starts": len(res.multistart_log),
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(f"{min(res.lam, 1.0):.6f}\n", args.out)
        if not res.converged:
            sys.stderr.write(
                "latentw: warning: classweight did not converge: a compass "
                "search ran out of evaluations, so the weight may be below "
                "the class optimum\n")
    return 0


def _cmd_estimate(args) -> int:
    c = _counts_arg(args)
    # an empty sample fails in estimate, as E_EMPTY_SAMPLE
    n0 = inference.subsample_size(c.n) if args.subsample and c.n else None
    est = inference.estimate(c, n_boot=args.boot, resample_size=n0,
                             seed=args.seed)
    payload = {"meta": _meta(args, seed=args.seed)}
    payload.update({
        "lambda_hat": est.lambda_hat,
        "lambda_corrected": est.lambda_corrected,
        "se_boot": est.se_boot,
        "bias_boot": est.bias_boot,
        "n": est.n,
        "n_boot": est.n_boot,
        "resample_size": est.resample_size,
        "seed": est.seed,
        "regularity_flag": est.regularity_flag,
    })
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_simulate_size(args) -> int:
    from .space import SampleSpace

    space = SampleSpace(k=args.k, d=args.d)
    sizes = _parse_int_list(args.sizes, "sizes")
    rows = inference.sample_size_heuristic(space, sizes, reps=args.reps,
                                           seed=args.seed)
    lines = [f"# {k}={v}" for k, v in _meta(args, seed=args.seed).items()]
    lines.append("n\tmean_bias\tsd")
    for row in rows:
        lines.append(f"{row.n}\t{row.mean_bias:.6g}\t{row.sd:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_meth_triplets(args) -> int:
    paths = [p for p in args.epireads.split(",") if p]
    if not paths:
        raise _UsageError("--epireads names no file")
    records = itertools.chain.from_iterable(
        meth.parse_epiread_file(path) for path in paths)
    triplets = meth.extract_triplets(records,
                                     coverage_threshold=args.min_coverage)
    report = meth.triplet_report(triplets, n_boot=args.boot, seed=args.seed,
                                 threads=args.threads)
    meta_kv = {k: str(v) for k, v in _meta(args, seed=args.seed).items()}
    meth.write_report_tsv(report, args.out, meta=meta_kv)
    for f in report.failures:
        sys.stderr.write(f"latentw: warning: triplet {f.chrom}:{f.index} "
                         f"failed: {f.error}\n")
    return 0


def _cmd_meth_correlate(args) -> int:
    rows = meth.read_report_tsv(args.report)
    cov = _read_covariate(args.covariate)
    weights, values, groups = [], [], []
    for row in rows:
        key = (row["chrom"], row["index"])
        if key not in cov:
            continue
        weights.append(row["lambda_corrected"])
        values.append(cov[key])
        groups.append(row["chrom"] if args.group_by == "chrom" else "all")
    reports = meth.correlate(weights, values, groups)
    lines = [f"# {k}={v}" for k, v in _meta(args).items()]
    lines.append("group\tn\tpearson_r\tpearson_p\tspearman_rho\tspearman_p")
    for rep in reports:
        lines.append("\t".join([
            rep.group, str(rep.n), f"{rep.pearson_r:.6g}",
            f"{rep.pearson_p:.6g}", f"{rep.spearman_rho:.6g}",
            f"{rep.spearman_p:.6g}",
        ]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ------------------------------------------------------------- helpers ----

def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--{what} must be a comma-separated integer list")


def _read_symbol_map(path: str, k: int) -> dict[int, str]:
    """Symbol -> label rows of a map file: one row per symbol, each a
    single symbol character below ``k``, after an optional header on the
    first line that is not a comment."""
    rows = [(line_no, [f.strip() for f in line.split("\t")])
            for line_no, line in utf8_lines(path, "map file", LatentwError)
            if line.strip() and not line.lstrip().startswith("#")]
    if rows and rows[0][1] == ["from", "to"]:
        del rows[0]
    mapping: dict[int, str] = {}
    for line_no, fields in rows:
        where = f"map file line {line_no}"
        if len(fields) != 2:
            raise LatentwError(f"{where}: expected 'from<TAB>to'")
        sym = (_SYMBOL_CHARS.find(fields[0].upper())
               if len(fields[0]) == 1 else -1)
        if sym < 0:
            raise LatentwError(
                f"{where}: {fields[0]!r} is not a single symbol character")
        if sym >= k:
            raise LatentwError(f"{where}: symbol {fields[0]!r} is outside "
                               f"0..{k - 1} (k={k})")
        if sym in mapping:
            raise LatentwError(f"{where}: duplicate symbol {fields[0]!r}")
        mapping[sym] = fields[1]
    return mapping


def _read_covariate(path: str) -> dict[tuple[str, int], float]:
    """``(chrom, index) -> value`` rows of a covariate file, after the
    header ``chrom<TAB>index<TAB>value`` on the first line that is not
    blank or a comment: one row per key, each index a non-negative
    integer and each value a finite number."""
    rows = [(line_no, [f.strip() for f in line.split("\t")])
            for line_no, line in utf8_lines(path, "covariate file",
                                            LatentwError)
            if line.strip() and not line.lstrip().startswith("#")]
    if rows and rows[0][1] != ["chrom", "index", "value"]:
        raise LatentwError(f"covariate file line {rows[0][0]}: header must "
                           "be 'chrom<TAB>index<TAB>value'")
    out: dict[tuple[str, int], float] = {}
    for line_no, fields in rows[1:]:
        at = f"covariate file line {line_no}"
        if len(fields) != 3:
            raise LatentwError(f"{at}: expected 3 fields, got {len(fields)}")
        chrom, index, value = fields
        if not (index.isascii() and index.isdigit()):
            raise LatentwError(
                f"{at}: index {index!r} is not a non-negative integer")
        try:
            x = float(value)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise LatentwError(f"{at}: value {value!r} is not a finite number")
        if (chrom, int(index)) in out:
            raise LatentwError(f"{at}: duplicate row for {chrom}:{int(index)}")
        out[(chrom, int(index))] = x
    return out


# -------------------------------------------------------------- parser ----

#: The subcommands, in help order.
_SUBCOMMANDS = ("weight", "decompose", "bound", "tv", "classweight",
                "estimate", "simulate", "meth")


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or, given the name of one, of that
    one alone (with its nested subcommands), which parses, helps and
    fails on its command lines as the full parser does."""
    parser = _Parser(prog="latentw",
                     description="Latent-weight analysis of categorical data")
    parser.add_argument("--version", action="version",
                        version=f"latentw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in _SUBCOMMANDS

    def add_command(name, **kwargs):
        """The parser of subcommand ``name``, or None if it is left out."""
        return sub.add_parser(name, **kwargs) if every or name == command \
            else None

    def add_counts(p, exact=True, json=True):
        p.add_argument("--counts", required=True, help="counts TSV file")
        p.add_argument("--k", type=int, default=None,
                       help="alphabet size override")
        if exact:
            p.add_argument("--exact", action="store_true",
                           help="print exact fractions")
        if json:
            p.add_argument("--json", action="store_true",
                           help="structured JSON output")
        p.add_argument("--out", default=None, help="write output to file")

    if p := add_command("weight", help="exchangeable weight of the counts"):
        add_counts(p)
        p.set_defaults(func=_cmd_weight)

    if p := add_command("decompose",
                        help="exchangeable component + residual as JSON"):
        # decompose always writes JSON; ``json`` stays in its config_hash
        add_counts(p, json=False)
        p.set_defaults(func=_cmd_decompose, json=False)

    if p := add_command("bound",
                        help="upper bounds on the exchangeable weight"):
        bsub = p.add_subparsers(dest="bound_kind", required=True)
        bm = bsub.add_parser("marginal", help="weight of a marginal")
        add_counts(bm)
        bm.add_argument("--indices", required=True,
                        help="1-based coordinate list, e.g. 1,2")
        bm.set_defaults(func=_cmd_bound)
        bl = bsub.add_parser("lump", help="weight after symbol lumping")
        add_counts(bl)
        bl.add_argument("--map", required=True,
                        help="symbol map TSV (from, to)")
        bl.set_defaults(func=_cmd_bound)

    if p := add_command("tv", help="TV distance to the exchangeable class"):
        add_counts(p, exact=False)
        p.set_defaults(func=_cmd_tv)

    if p := add_command("classweight",
                        help="latent weight w.r.t. a product-form class"):
        add_counts(p, exact=False)
        p.add_argument("--class", dest="cls", required=True,
                       choices=["singleton", "iid", "product"])
        p.add_argument("--q0", default=None,
                       help="counts TSV defining the singleton model")
        p.add_argument("--grid", type=int, default=33)
        p.set_defaults(func=_cmd_classweight)

    if p := add_command("estimate",
                        help="bootstrap-corrected weight estimate"):
        p.add_argument("--counts", required=True)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--boot", type=int, default=1000)
        p.add_argument("--subsample", action="store_true",
                       help="use the 2*sqrt(n) subsample bootstrap")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_estimate)

    if p := add_command("simulate", help="simulation helpers"):
        ssub = p.add_subparsers(dest="simulate_kind", required=True)
        sz = ssub.add_parser("size", help="sample-size table from the "
                                          "worst-case test source")
        sz.add_argument("--k", type=int, required=True)
        sz.add_argument("--d", type=int, required=True)
        sz.add_argument("--sizes", required=True, help="e.g. 100,1000,10000")
        sz.add_argument("--reps", type=int, required=True)
        sz.add_argument("--seed", type=int, default=0)
        sz.add_argument("--out", default=None)
        sz.set_defaults(func=_cmd_simulate_size)

    if p := add_command("meth", help="methylation triplet pipeline"):
        msub = p.add_subparsers(dest="meth_kind", required=True)
        mt = msub.add_parser("triplets", help="per-triplet 21-column report")
        mt.add_argument("--epireads", required=True,
                        help="epiread file(s), comma separated")
        mt.add_argument("--min-coverage", type=int, default=100)
        mt.add_argument("--boot", type=int, default=1000)
        mt.add_argument("--seed", type=int, default=0)
        mt.add_argument("--threads", type=int, default=None)
        mt.add_argument("--out", required=True)
        mt.set_defaults(func=_cmd_meth_triplets)
        mc = msub.add_parser("correlate",
                             help="correlate report weights with a covariate")
        mc.add_argument("--report", required=True)
        mc.add_argument("--covariate", required=True,
                        help="TSV: chrom, index, value")
        mc.add_argument("--group-by", choices=["chrom", "dataset"],
                        default="chrom")
        mc.add_argument("--out", default=None)
        mc.set_defaults(func=_cmd_meth_correlate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise _UsageError("argument --seed: must be a non-negative "
                              f"integer, got {args.seed}")
        return args.func(args)
    except SystemExit as exc:      # --version and friends
        return int(exc.code or 0)
    except _UsageError as exc:
        sys.stderr.write(f"latentw: error [E_USAGE]: {exc}\n")
        return 1
    except LatentwError as exc:
        sys.stderr.write(f"latentw: error [{exc.code}]: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"latentw: error [E_VALIDATION]: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"latentw: error [E_IO]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
