"""The CLI calls each workload makes, and the checks on their outputs.

Nothing here imports latentw: every check compares the program's output
files with the fixture oracle or with quantities recomputed here in pure
Python (orbit minima, TV re-scoring).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

THREADS = 2          # worker threads of `meth triplets`: one per CPU of a 2-CPU host
N_BOOT = 1000

CONFIGS = tuple("".join(bits) for bits in itertools.product("01", repeat=3))
REPORT_COLUMNS = (("chrom", "index", "tv_dist", "lambda_corrected",
                   "lambda_sd") + tuple(f"n_{c}" for c in CONFIGS)
                  + tuple(f"q_{c}" for c in CONFIGS))
#: Orbits of {0,1}^3 with more than one member, as positions in CONFIGS.
TRIPLET_ORBITS = ((1, 2, 4), (3, 5, 6))

#: Tolerances, fixed from the float64 arithmetic of each output.
Q_SUM_TOL = 1e-5          # eight values at 6 significant digits
TV_RESCORE_TOL = 1e-7     # HiGHS LP optimality tolerance
TV_BOUND_TOL = 1e-7
LAMBDA_HAT_TOL = 1e-12
MARGIN_TOL = 1e-9
IID_EXCH_TOL = 1e-9
IID_PRODUCT_TOL = 1e-4    # the product search stops at a grid-refined optimum


@dataclass
class Call:
    """One CLI invocation of a pass.

    ``ops`` is how many operations it stands for: 1 for a counts-file
    subcommand, 1 + the expected report rows for ``meth triplets``.
    ``check(out_path, stderr, state)`` returns the number of failed ops.
    """

    name: str
    command: str
    argv: list[str]
    out: str
    ops: int
    check: Callable[[str, str, dict], int]


def spaces(oracle: dict) -> list[tuple[int, int]]:
    """The (k, d) spaces a workload touches, for set-up and warm-up."""
    if "epireads" in oracle:
        return [(2, 3)]
    return sorted({(t["k"], t["d"]) for t in oracle["tables"].values()},
                  key=lambda kd: kd[0]**kd[1])


def calls(oracle: dict, seed: int, size: str, out_dir: str) -> list[Call]:
    if "epireads" in oracle:
        return [_meth_call(oracle["epireads"], seed, out_dir)]
    tables = oracle["tables"]
    out = []
    for name in oracle["table_names"]:
        t = tables[name]
        base = ["--counts", t["path"], "--k", str(t["k"])]
        out.append(Call(f"tv/{name}", "tv",
                        ["tv", *base, "--json"], f"{out_dir}/tv-{name}.json",
                        1, _tv_check(t)))
        out.append(Call(f"estimate/{name}", "estimate",
                        ["estimate", *base, "--boot", str(N_BOOT),
                         "--seed", str(seed)],
                        f"{out_dir}/estimate-{name}.json", 1,
                        _estimate_check(t)))
        out.append(Call(f"decompose/{name}", "decompose",
                        ["decompose", *base, "--exact"],
                        f"{out_dir}/decompose-{name}.json", 1,
                        _decompose_check(t)))
    # The self-test shrinks the product grid; the full run keeps the default.
    grid = ["--grid", "9"] if size == "tiny" else []
    for name in oracle["class_names"]:
        t = tables[name]
        base = ["--counts", t["path"], "--k", str(t["k"])]
        for cls in ("iid", "product"):
            out.append(Call(f"classweight-{cls}/{name}", "classweight",
                            ["classweight", *base, "--class", cls, "--json",
                             *grid],
                            f"{out_dir}/classweight-{cls}-{name}.json", 1,
                            _classweight_check(t, name, cls)))
    for c in out:
        c.argv += ["--out", c.out]
    return out


# ------------------------------------------------------------ meth ----

def _meth_call(epi: dict, seed: int, out_dir: str) -> Call:
    expected = epi["triplets"]
    argv = ["meth", "triplets", "--epireads", epi["path"],
            "--boot", str(N_BOOT), "--threads", str(THREADS),
            "--min-coverage", "100", "--seed", str(seed)]
    out = f"{out_dir}/report.tsv"
    return Call("meth-triplets", "meth_triplets", argv + ["--out", out], out,
                1 + len(expected), lambda path, err, state:
                _check_report(path, err, expected, state))


def _check_report(path: str, stderr: str, expected: dict, state: dict) -> int:
    """Failed ops of one `meth triplets` call: the call itself, plus one per
    expected triplet that is missing, wrong, or reported as failed."""
    bad: set[str] = set()
    call_failed = False
    for line in stderr.splitlines():
        # "latentw: warning: triplet chr1:17 failed: ..."
        if " triplet " in line and " failed" in line:
            where = line.split(" triplet ", 1)[1].split()[0]
            chrom, _, index = where.rpartition(":")
            bad.add(f"{chrom}\t{index}")
    seen = set()
    header = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if header is None:
                header = tuple(fields)
                call_failed |= header != REPORT_COLUMNS
                continue
            key = f"{fields[0]}\t{fields[1]}"
            if key not in expected or key in seen:
                call_failed = True
                continue
            seen.add(key)
            if not _row_ok(fields, expected[key]):
                bad.add(key)
    bad |= set(expected) - seen
    if header is None:
        call_failed = True
    return int(call_failed) + len(bad & set(expected))


def _row_ok(fields: list[str], counts: list[int]) -> bool:
    if len(fields) != len(REPORT_COLUMNS):
        return False
    try:
        tv, lam, sd = (float(v) for v in fields[2:5])
        n = [int(v) for v in fields[5:13]]
        q = [float(v) for v in fields[13:21]]
    except ValueError:
        return False
    if n != counts or not (0.0 <= tv <= 1.0 and 0.0 <= lam <= 1.0
                           and sd >= 0.0):
        return False
    if all(v == 0.0 for v in q):
        return True
    return (abs(sum(q) - 1.0) <= Q_SUM_TOL and min(q) >= 0.0
            and all(len({q[i] for i in orbit}) == 1
                    for orbit in TRIPLET_ORBITS))


# ---------------------------------------------------- count tables ----

def orbits(t: dict) -> list[list[int]]:
    """Pure-Python permutation orbits of a table's outcomes, as lists of
    outcome indices (two outcomes share an orbit when their sorted digit
    tuples are equal)."""
    if "_orbits" not in t:
        k, d = t["k"], t["d"]
        by_key: dict[tuple, list[int]] = {}
        for i in range(len(t["counts"])):
            digits, x = [], i
            for _ in range(d):
                x, r = divmod(x, k)
                digits.append(r)
            by_key.setdefault(tuple(sorted(digits)), []).append(i)
        t["_orbits"] = list(by_key.values())
    return t["_orbits"]


def exchangeable_weight(t: dict) -> Fraction:
    """Exact exchangeable weight: sum over orbits of |z| * min count / n."""
    if "_lam" not in t:
        counts = t["counts"]
        t["_lam"] = Fraction(sum(len(z) * min(counts[i] for i in z)
                                 for z in orbits(t)), sum(counts))
    return t["_lam"]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tv_check(t: dict):
    def check(path, stderr, state):
        out = _load(path)
        tv, q = out["value"], out["q"]
        n = sum(t["counts"])
        lam = float(exchangeable_weight(t))
        rescored = 0.5 * math.fsum(abs(c / n - qi)
                                   for c, qi in zip(t["counts"], q))
        ok = (0.0 <= tv <= 1.0 - lam + TV_BOUND_TOL
              and len(q) == len(t["counts"]) and min(q) >= 0.0
              and all(len({q[i] for i in m}) == 1 for m in orbits(t))
              and abs(rescored - tv) <= TV_RESCORE_TOL)
        return int(not ok)
    return check


def _estimate_check(t: dict):
    def check(path, stderr, state):
        out = _load(path)
        ok = (abs(out["lambda_hat"] - float(exchangeable_weight(t)))
              <= LAMBDA_HAT_TOL
              and 0.0 <= out["lambda_corrected"] <= 1.0
              and out["n_boot"] == N_BOOT)
        return int(not ok)
    return check


def _decompose_check(t: dict):
    def check(path, stderr, state):
        out = _load(path)
        return int(Fraction(out["lambda_exact"]) != exchangeable_weight(t))
    return check


def _classweight_check(t: dict, name: str, cls: str):
    def check(path, stderr, state):
        out = _load(path)
        lam = out["lambda"]
        ok = out["certificate_margin"] >= -MARGIN_TOL and out["converged"]
        weights = state.setdefault("classweight", {}).setdefault(name, {})
        weights[cls] = lam
        if cls == "iid":
            ok = ok and lam <= float(exchangeable_weight(t)) + IID_EXCH_TOL
        if "iid" in weights and "product" in weights:
            ok = ok and weights["iid"] <= weights["product"] + IID_PRODUCT_TOL
        return int(not ok)
    return check
