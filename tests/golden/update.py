"""The golden manifest of the command line, and the script that rewrites it.

For each command line in :data:`CALLS`, ``manifest.json`` holds its exit
code and the sha256 of its stdout, its stderr and its ``--out`` file
(null when it writes none).  The calls run in-process through
``latentw.cli.main``, one after another, in a directory that holds the
fixtures of :func:`write_fixtures` and is the working directory, so each
file is named by a relative path and no output depends on where that
directory is.  The fixtures come from fixed seeds through Python's
``random``; the manifest keeps their sha256 too, so a fixture that
changes shows as such and not as a changed output.

A change that alters output bytes reruns this script and names each
changed entry, with its reason::

    python tests/golden/update.py

Before it rewrites the manifest, the script prints what changed against
the committed one: each changed call's argv with the fields (exit,
stdout, stderr, out) that changed, each call added or removed, and any
changed fixture or version.

A change that keeps the output bytes leaves the manifest as it is;
``tests/test_golden.py`` checks it.  Help text is formatted at 80
columns, and argparse formats it differently across Python versions, so
the manifest records the Python and numpy versions it was made with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shlex
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("manifest.json")

_SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _outcome(index: int, k: int, d: int) -> str:
    return "".join(_SYMBOLS[index // k**j % k] for j in range(d - 1, -1, -1))


def _table(seed: int, k: int, d: int, zeros: float = 0.0) -> list[tuple]:
    """``(outcome, count)`` of every outcome of a ``k**d`` table: counts
    from 0 to 59, a share ``zeros`` of them set to 0."""
    rng = random.Random(seed)
    rows = []
    for i in range(k**d):
        count = int(rng.random() * 60)
        rows.append((_outcome(i, k, d), 0 if rng.random() < zeros else count))
    return rows


def _tsv(rows, end="\n") -> str:
    return "".join(f"{o}\t{c}{end}" for o, c in [("outcome", "count"), *rows])


def _epireads(seed: int, reads: int, positions: int) -> str:
    """Reads of 3-7 CpGs on two chromosomes: half of them concordant (one
    draw sets every state), about 1 state in 8 ``N``, sorted by start."""
    rng = random.Random(seed)
    level = {c: [rng.random() for _ in range(positions + 8)]
             for c in ("chr1", "chr2")}
    lines = []
    for _ in range(reads):
        chrom = "chr1" if rng.random() < 0.5 else "chr2"
        start = int(rng.random() * positions)
        concordant = rng.random() < 0.5
        u = rng.random()
        states = []
        for i in range(start, start + 3 + int(rng.random() * 5)):
            x = u if concordant else rng.random()
            states.append("N" if rng.random() < 0.125
                          else "C" if x < level[chrom][i] else "T")
        lines.append((chrom, start, "".join(states)))
    lines.sort(key=lambda r: r[:2])
    return "".join(f"{c}\t{s}\t{t}\n" for c, s, t in lines)


def _spaced(text: str) -> str:
    """The reads of ``text`` as files may lay them out: ``\\x1c``, NBSP and
    U+3000 among the separators, leading white space, CRLF ends, blank
    and white-space-only lines between reads, and ``chr2`` renamed
    ``c\\x00``.  Sixty reads on the bare chromosome ``\\x00`` end it."""
    seps = (" ", "\x1c", "\xa0", "\u3000", " \t")
    leads = ("", " ", "\t", "\u3000")
    ends = ("\n", "\r\n", " \n")
    blanks = ("\n", "\t\n", "\u3000\r\n", "  \n")
    out = []
    for i, line in enumerate(text.replace("chr2", "c\x00").splitlines()):
        out.append(leads[i % 4] + seps[i % 5].join(line.split("\t"))
                   + ends[i % 3])
        if i % 7 == 0:
            out.append(blanks[i // 7 % 4])
    return "".join(out) + "\x00 2 CCTC\n" * 60


def write_fixtures(where: Path) -> dict[str, str]:
    """Write every input file of :data:`CALLS` into ``where``, and return
    the sha256 of each by name."""
    k2d3 = _table(1, 2, 3)
    text = {
        "k2d3.tsv": _tsv(k2d3),
        "k3d2.tsv": _tsv(_table(2, 3, 2, zeros=0.2)),
        "k2d5.tsv": _tsv(_table(3, 2, 5, zeros=0.1)),
        "k3d3.tsv": _tsv(_table(4, 3, 3, zeros=0.1)),
        "third.tsv": "outcome\tcount\n101\t100\n110\t100\n111\t100\n",
        "q0.tsv": _tsv(_table(5, 2, 3)),
        "lump.map": "from\tto\n0\ta\n1\ta\n2\tb\n",
        # the rows of k2d3, as files may lay them out
        "comments.tsv": ("# counts of k2d3\n\n  # indented comment\n"
                         + _tsv(k2d3[:4]) + "\n#\tx\ty\n"
                         + "".join(f"{o}\t{c}\n" for o, c in k2d3[4:])
                         + "   \n"),
        "crlf.tsv": _tsv(k2d3, end="\r\n"),
        "padded.tsv": "".join(f" {o} \t\u3000{c}  \n" for o, c in
                              [("outcome", "count"), *k2d3]),
        "noeol.tsv": _tsv(k2d3).rstrip("\n"),
        "mixed.tsv": ("\r\n# mixed\r\n outcome\t count\r\n"
                      + "".join(f"{o}\t{c:03d}\r\n" if i % 2 else
                                f"# row {i}\n{o} \t {c}\n"
                                for i, (o, c) in enumerate(k2d3))),
        "lower.tsv": "outcome\tcount\n0a\t3\n1ı\t4\nZ0\t2\n",
        # faulty files, one fault each
        "bad_header.tsv": "outcome\tcounts\n000\t1\n",
        "bad_count.tsv": "outcome\tcount\n000\t1\n001\t+3\n",
        "negative.tsv": "outcome\tcount\n# note\n000\t1\n001\t -2\n",
        "fields3.tsv": "outcome\tcount\n000\t1\t2\n",
        "fields1.tsv": "outcome\tcount\n\n000 1\n",
        "duplicate.tsv": "outcome\tcount\n000\t1\n001\t2\n000\t3\n",
        "lengths.tsv": "outcome\tcount\n000\t1\n01\t2\n",
        "symbol.tsv": "outcome\tcount\n0@0\t1\n",
        "total.tsv": f"outcome\tcount\n00\t{2**52}\n01\t{2**52}\n",
        "digits19.tsv": f"outcome\tcount\n00\t{10**18}\n",
        "header_only.tsv": "# nothing\noutcome\tcount\n\n",
        "empty.tsv": "",
        "huge.tsv": "outcome\tcount\n" + "01" * 20 + "\t5\n",
        "empty_outcome.tsv": "outcome\tcount\n\t5\n",
        "crlf_bad.tsv": "outcome\tcount\r\n000\t1\r\n001\tx\r\n",
        "reads.epiread": _epireads(6, 3000, 12),
        "reads2.epiread": _epireads(7, 600, 12),
        "bad_fields.epiread": "chr1\t0\tCCC\nchr1\t1\n",
        "bad_state.epiread": "chr1\t0\tCCC\nchr1 1 CXC\n",
        "spaced.epiread": _spaced(_epireads(8, 1500, 10)),
        # six fields over two lines, and a fourth field that is NUL
        "pooled.epiread": "a 5\nC b 6 T\n",
        "nul_field.epiread": "c 1 CC \x00\n2 CC\n",
        "cov.tsv": "chrom\tindex\tvalue\n" + "".join(
            f"{c}\t{i}\t{(i * 7 + len(c)) % 11 * 0.5}\n"
            for c in ("chr1", "chr2") for i in range(16)),
        "cov_dup.tsv": "chrom\tindex\tvalue\nchr1\t0\t1\nchr1\t0\t2\n",
        "bad_report.tsv": "chrom\tindex\n",
        "dup.map": "0\ta\n0\tb\n",
    }
    # 2**14 + 4 lines, read in two blocks; the bad one has its fault in the
    # second block
    k2d14 = _table(8, 2, 14, zeros=0.3)
    text["k2d14.tsv"] = "# two blocks\n" + _tsv(k2d14[:9000]) + "".join(
        f"{o}\t{c}\n" for o, c in k2d14[9000:]) + "\n# end\n"
    text["k2d14_bad.tsv"] = text["k2d14.tsv"].replace(
        f"\n{k2d14[-3][0]}\t", f"\n{k2d14[-3][0]}\t-")
    raw = {"latin1.tsv": b"outcome\tcount\n000\t4\n0\xff1\t2\n",
           "latin1.epiread": b"chr1\t0\tCCC\nchr1\t0\tC\xffC\n"}
    for name, body in text.items():
        raw[name] = body.encode("utf-8")
    for name, data in raw.items():
        (where / name).write_bytes(data)
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(raw.items())}


def _calls() -> list[list[str]]:
    calls = [["--help"], ["--version"], []]
    for prefix in (["weight"], ["decompose"], ["bound"], ["bound", "marginal"],
                   ["bound", "lump"], ["tv"], ["classweight"], ["estimate"],
                   ["simulate"], ["simulate", "size"], ["meth"],
                   ["meth", "triplets"], ["meth", "correlate"]):
        calls.append([*prefix, "--help"])
    tables = ("k2d3", "k3d2", "k2d5", "k3d3", "third")
    for name in tables:
        c = ["--counts", f"{name}.tsv"]
        calls += [["weight", *c], ["weight", *c, "--json"],
                  ["weight", *c, "--exact"],
                  ["weight", *c, "--exact", "--json"],
                  ["decompose", *c], ["decompose", *c, "--exact"],
                  ["bound", "marginal", *c, "--indices", "1,2"],
                  ["bound", "marginal", *c, "--indices", "2", "--json"],
                  ["bound", "marginal", *c, "--indices", "1,3", "--exact"],
                  ["tv", *c], ["tv", *c, "--json"],
                  ["estimate", *c], ["estimate", *c, "--subsample"],
                  ["estimate", *c, "--boot", "200", "--seed", "9"]]
    c = ["--counts", "k2d3.tsv"]
    calls += [
        ["weight", *c, "--k", "3", "--json"],
        ["weight", *c, "--out", "weight.out"],
        ["decompose", *c, "--exact", "--out", "decompose.out"],
        ["tv", *c, "--json", "--out", "tv.out"],
        ["estimate", *c, "--boot", "50", "--out", "estimate.out"],
        ["bound", "lump", "--counts", "k3d2.tsv", "--map", "lump.map"],
        ["bound", "lump", "--counts", "k3d3.tsv", "--map", "lump.map",
         "--exact", "--json"],
        ["classweight", *c, "--class", "singleton", "--q0", "q0.tsv"],
        ["classweight", *c, "--class", "singleton", "--q0", "q0.tsv",
         "--json"],
        ["classweight", *c, "--class", "singleton"],
        ["classweight", *c, "--class", "iid", "--json", "--out",
         "classweight.out"],
        ["classweight", "--counts", "k3d2.tsv", "--class", "iid"],
        ["classweight", "--counts", "k3d2.tsv", "--class", "product",
         "--json"],
        ["classweight", "--counts", "k2d5.tsv", "--class", "product",
         "--grid", "9"],
        ["classweight", "--counts", "k2d5.tsv", "--class", "iid", "--grid",
         "1", "--json"],
        ["classweight", "--counts", "k2d3.tsv", "--class", "product",
         "--grid", "0"],
        # --q0 names the singleton model only, even a file that is missing
        ["classweight", *c, "--class", "iid", "--q0", "q0.tsv"],
        ["classweight", *c, "--class", "product", "--q0", "missing.tsv",
         "--json"],
        ["decompose", *c, "--json"],
        ["simulate", "size", "--k", "2", "--d", "3", "--sizes",
         "10,100,1000", "--reps", "200", "--seed", "7"],
        ["simulate", "size", "--k", "3", "--d", "2", "--sizes", "50",
         "--reps", "100", "--out", "simulate.out"],
        ["simulate", "size", "--k", "2", "--d", "3", "--sizes", "10,x",
         "--reps", "2"],
        ["simulate", "size", "--k", "2", "--d", "3", "--sizes", "10",
         "--reps", "1"],
    ]
    # the bootstrap report at one and two workers, and its readers
    for threads in ("1", "2"):
        calls += [["meth", "triplets", "--epireads", "reads.epiread",
                   "--boot", "300", "--seed", "5", "--threads", threads,
                   "--out", f"report{threads}.tsv"],
                  ["meth", "triplets", "--epireads",
                   "reads.epiread,reads2.epiread", "--min-coverage", "150",
                   "--threads", threads, "--out", f"both{threads}.tsv"],
                  ["meth", "triplets", "--epireads", "spaced.epiread",
                   "--min-coverage", "50", "--boot", "100", "--threads",
                   threads, "--out", f"spaced{threads}.tsv"]]
    calls += [
        ["meth", "triplets", "--epireads", "reads2.epiread",
         "--min-coverage", "100000", "--out", "none.tsv"],
        ["meth", "correlate", "--report", "report1.tsv", "--covariate",
         "cov.tsv"],
        ["meth", "correlate", "--report", "report2.tsv", "--covariate",
         "cov.tsv", "--group-by", "dataset", "--out", "correlate.out"],
        ["meth", "triplets", "--epireads", "bad_fields.epiread", "--out",
         "bad1.tsv"],
        ["meth", "triplets", "--epireads", "bad_state.epiread", "--out",
         "bad2.tsv"],
        ["meth", "triplets", "--epireads", "latin1.epiread", "--out",
         "bad3.tsv"],
        ["meth", "triplets", "--epireads", ",", "--out", "bad4.tsv"],
        ["meth", "triplets", "--epireads", "pooled.epiread", "--out",
         "bad5.tsv"],
        ["meth", "triplets", "--epireads", "nul_field.epiread", "--out",
         "bad6.tsv"],
        ["meth", "correlate", "--report", "report1.tsv", "--covariate",
         "cov_dup.tsv"],
        ["meth", "correlate", "--report", "bad_report.tsv", "--covariate",
         "cov.tsv"],
        ["bound", "lump", "--counts", "k3d2.tsv", "--map", "dup.map"],
    ]
    # counts files as they may be laid out, and faulty ones
    for name in ("comments", "crlf", "padded", "noeol", "mixed", "lower",
                 "bad_header", "bad_count", "negative", "fields3", "fields1",
                 "duplicate", "lengths", "symbol", "total", "digits19",
                 "header_only", "empty", "huge", "empty_outcome", "crlf_bad",
                 "latin1", "missing", "k2d14", "k2d14_bad"):
        calls.append(["weight", "--counts", f"{name}.tsv", "--exact"])
    calls += [
        ["tv", "--counts", "mixed.tsv", "--json"],
        ["estimate", "--counts", "crlf.tsv", "--boot", "100"],
        ["weight", "--counts", "k3d2.tsv", "--k", "2"],
        ["classweight", *c, "--class", "singleton", "--q0", "latin1.tsv"],
        ["estimate", *c, "--seed", "-1"],
        ["estimate", *c, "--boot", "1"],
        ["weight", *c, "--bogus"],
        ["tv", *c, "--exact"],
        ["bound", "marginal", *c, "--indices", ""],
        ["bound", "marginal", *c, "--indices", "4"],
    ]
    return calls


#: Every command line of the manifest, in the order they run.
CALLS = _calls()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_calls(where: Path) -> list[dict]:
    """Run :data:`CALLS` in ``where`` (holding the fixtures), and return
    one manifest entry per call."""
    from latentw import cli

    entries, home = [], os.getcwd()
    os.chdir(where)
    try:
        for argv in CALLS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            out = _out_path(argv)
            entries.append({
                "argv": argv, "exit": code,
                "stdout": _sha(stdout.getvalue().encode("utf-8",
                                                        "surrogateescape")),
                "stderr": _sha(stderr.getvalue().encode("utf-8",
                                                        "surrogateescape")),
                "out": (_sha(Path(out).read_bytes())
                        if out and os.path.exists(out) else None)})
    finally:
        os.chdir(home)
    return entries


def versions() -> dict:
    import numpy

    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": numpy.__version__}


def build(where: Path) -> dict:
    """The manifest of a run in the empty directory ``where``."""
    fixtures = write_fixtures(where)
    return {**versions(), "fixtures": fixtures, "calls": run_calls(where)}


def changes(old: dict, new: dict) -> list[str]:
    """One line for each difference of manifest ``new`` from ``old``: a
    version, a fixture, a call whose result changed (with the fields that
    changed), a call added or removed."""
    lines = [f"{key}: {old.get(key)} -> {new[key]}"
             for key in ("python", "numpy") if old.get(key) != new[key]]
    fixtures = old.get("fixtures", {})
    lines += [f"fixture {name}: changed" if name in fixtures else
              f"fixture {name}: added"
              for name, sha in new["fixtures"].items()
              if fixtures.get(name) != sha]
    lines += [f"fixture {name}: removed" for name in fixtures
              if name not in new["fixtures"]]
    before = {shlex.join(e["argv"]): e for e in old.get("calls", [])}
    after = {shlex.join(e["argv"]): e for e in new["calls"]}
    for argv, entry in after.items():
        if argv not in before:
            lines.append(f"added: {argv}")
        elif entry != before[argv]:
            fields = [k for k in ("exit", "stdout", "stderr", "out")
                      if entry[k] != before[argv][k]]
            lines.append(f"changed ({', '.join(fields)}): {argv}")
    lines += [f"removed: {argv}" for argv in before if argv not in after]
    return lines


def main() -> int:
    src = Path(__file__).resolve().parents[2] / "src"
    sys.path.insert(0, str(src))
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        manifest = build(Path(tmp))
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for line in changes(old, manifest) or ["no entry changed"]:
        print(line)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest['calls'])} calls to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
