import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latentw
from latentw import (ProductClassSpec, class_weight, cli,
                     empirical_distribution, product, read_counts)
from latentw.cli import main
from latentw.methylation import REPORT_COLUMNS

from child_env import child_env


@pytest.fixture
def third_counts(tmp_path):
    path = tmp_path / "third.tsv"
    path.write_text("outcome\tcount\n101\t100\n110\t100\n111\t100\n")
    return str(path)


@pytest.fixture
def intro_counts(tmp_path):
    path = tmp_path / "intro.tsv"
    path.write_text("outcome\tcount\n00\t2\n01\t6\n10\t2\n11\t10\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeight:
    def test_prints_one_third(self, capsys, third_counts):
        code, out, _ = run(capsys, "weight", "--counts", third_counts)
        assert code == 0
        assert out == "0.333333\n"

    def test_exact_mode(self, capsys, third_counts):
        code, out, _ = run(capsys, "weight", "--counts", third_counts,
                           "--exact")
        assert code == 0
        assert out == "1/3\n"

    def test_json_output(self, capsys, third_counts):
        code, out, _ = run(capsys, "weight", "--counts", third_counts,
                           "--json")
        payload = json.loads(out)
        assert abs(payload["value"] - 1 / 3) < 1e-12
        assert payload["meta"]["version"]
        assert payload["meta"]["config_hash"]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "weight", "--counts",
                           str(tmp_path / "none.tsv"))
        assert code == 2
        assert "E_IO" in err

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("outcome\tcount\n01\t4\n01\t2\n")
        code, _, err = run(capsys, "weight", "--counts", str(bad))
        assert code == 1
        assert "E_COUNTS_FILE" in err

    def test_bad_usage_exits_1(self, capsys):
        code, _, err = run(capsys, "weight")
        assert code == 1
        assert "E_USAGE" in err


class TestVersion:
    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("latentw ")

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "latentw", "--version"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout.startswith("latentw ")


class TestImportBoundary:
    def test_cli_import_skips_scipy_optimize(self):
        # scipy.optimize costs ~0.5 s of every cold start; only tests use it
        code = ("import sys, latentw.cli; "
                "print('scipy.optimize' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_no_linprog_in_package(self):
        src = Path(latentw.__file__).parent
        hits = [path.name for path in src.rglob("*.py")
                if "linprog" in path.read_text()]
        assert hits == []

    def test_one_thread_pool_in_package(self):
        # the bootstrap's pool is the only one; callers pass a cap to it
        src = Path(latentw.__file__).parent
        hits = [path.name for path in src.rglob("*.py")
                if "ThreadPoolExecutor" in path.read_text()]
        assert hits == ["inference.py"]


class TestDecompose:
    def test_json_fields(self, capsys, third_counts, tmp_path):
        out_path = tmp_path / "dec.json"
        code, _, _ = run(capsys, "decompose", "--counts", third_counts,
                         "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"meta", "lambda", "q", "r", "per_class_min",
                                "argmin_sets"}
        assert abs(payload["lambda"] - 1 / 3) < 1e-12
        assert payload["q"][7] == 1.0
        assert abs(payload["r"][5] - 0.5) < 1e-12
        assert payload["argmin_sets"][3] == ["111"]

    def test_json_flag_is_gone(self, capsys, third_counts, tmp_path):
        # decompose always writes JSON, so --json is no option of it
        out_path = tmp_path / "dec.json"
        code, out, err = run(capsys, "decompose", "--counts", third_counts,
                             "--json", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == ("latentw: error [E_USAGE]: unrecognized arguments: "
                       "--json\n")
        assert not out_path.exists()


class TestBounds:
    def test_marginal(self, capsys, third_counts):
        code, out, _ = run(capsys, "bound", "marginal", "--counts",
                           third_counts, "--indices", "1,2")
        assert code == 0
        assert out == "0.666667\n"

    def test_marginal_exact(self, capsys, third_counts):
        code, out, _ = run(capsys, "bound", "marginal", "--counts",
                           third_counts, "--indices", "1,2", "--exact")
        assert out == "2/3\n"

    def test_lump(self, capsys, third_counts, tmp_path):
        map_path = tmp_path / "map.tsv"
        map_path.write_text("from\tto\n0\tx\n1\tx\n")
        code, out, _ = run(capsys, "bound", "lump", "--counts", third_counts,
                           "--map", str(map_path))
        assert code == 0
        assert out == "1.000000\n"

    @pytest.mark.parametrize("text", [
        "from\tto\n0\ta\n1\tb\n",
        "# a comment\n\nfrom\tto\n0\ta\n1\tb\n",   # header after it
        " 0 \t a \n1\tb\n",                         # no header, padded
    ])
    def test_lump_map_header_and_rows(self, capsys, tmp_path, text):
        counts = tmp_path / "c.tsv"
        counts.write_text("outcome\tcount\n00\t5\n01\t3\n10\t2\n11\t7\n")
        map_path = tmp_path / "map.tsv"
        map_path.write_text(text)
        code, out, err = run(capsys, "bound", "lump", "--counts", str(counts),
                             "--map", str(map_path))
        assert (code, out, err) == (0, "0.941176\n", "")

    @pytest.mark.parametrize("text,line,reason", [
        # a repeat used to override the first row: the bound became 1
        ("from\tto\n0\ta\n1\tb\n1\ta\n", 4, "duplicate symbol '1'"),
        ("0\ta\n1\tb\nz\tb\n", 3, "symbol 'z' is outside 0..1 (k=2)"),
        ("0\ta\n10\tb\n", 2, "'10' is not a single symbol character"),
        ("0\ta\n-\tb\n", 2, "'-' is not a single symbol character"),
        ("0\ta\n\tb\n", 2, "'' is not a single symbol character"),
        # the header is recognised only before the first row
        ("0\ta\nfrom\tto\n1\tb\n", 2,
         "'from' is not a single symbol character"),
        ("# a comment\nfrom\tto\nfrom\tto\n", 3,
         "'from' is not a single symbol character"),
        ("0\ta\tb\n", 1, "expected 'from<TAB>to'"),
    ])
    def test_lump_bad_map_exits_1(self, capsys, third_counts, tmp_path,
                                  text, line, reason):
        map_path = tmp_path / "map.tsv"
        map_path.write_text(text)
        code, out, err = run(capsys, "bound", "lump", "--counts", third_counts,
                             "--map", str(map_path))
        assert (code, out) == (1, "")
        assert err == (f"latentw: error [E_VALIDATION]: map file line {line}: "
                       f"{reason}\n")


class TestSpaceBudget:
    # The outcome is checked against the 2**24 budget before the count
    # vector is allocated.  The child runs under a 1 GiB address-space
    # limit, so a regression fails with a memory error instead of
    # allocating k**d cells.
    @staticmethod
    def run_limited(*argv, cpus=None):
        def limit_memory():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
            if cpus:    # each thread reserves stack and heap address space
                os.sched_setaffinity(
                    0, sorted(os.sched_getaffinity(0))[:cpus])

        return subprocess.run(
            [sys.executable, "-m", "latentw", *argv], capture_output=True,
            text=True, preexec_fn=limit_memory, timeout=120,
            env=child_env(OPENBLAS_NUM_THREADS="1"))

    @pytest.mark.parametrize("outcome", ["01" * 20, "Z" + "0" * 12],
                             ids=["binary-d40", "base36-d13"])
    def test_oversized_counts_file_exits_1(self, tmp_path, outcome):
        path = tmp_path / "big.tsv"
        path.write_text(f"outcome\tcount\n{outcome}\t5\n")
        proc = self.run_limited("weight", "--counts", str(path))
        assert proc.returncode == 1, proc.stderr
        assert "[E_SPACE_TOO_LARGE]" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs a CPU affinity call")
    def test_bootstrap_draws_in_bounded_memory(self, tmp_path):
        # 600 resamples of 2**17 cells: one array of all the draws and its
        # orbit-ordered copy would take 2 x 629 MB.  Drawn one resample
        # per chunk, two workers hold a few MB.
        lines = [f"{i * 3277 % 2**17:017b}\t{5 + i}" for i in range(40)]
        path = tmp_path / "cells17.tsv"
        path.write_text("outcome\tcount\n" + "\n".join(lines) + "\n")
        proc = self.run_limited("estimate", "--counts", str(path),
                                "--boot", "600", "--seed", "3", cpus=2)
        assert proc.returncode == 0, proc.stderr
        est = json.loads(proc.stdout)
        assert (est["n"], est["n_boot"]) == (980, 600)
        assert est["se_boot"] > 0.0
        assert 0.0 <= est["lambda_corrected"] <= 1.0

    @pytest.mark.parametrize("k,d", [(2, 40), (36, 13)])
    def test_oversized_simulation_exits_1(self, k, d):
        proc = self.run_limited("simulate", "size", "--k", str(k), "--d",
                                str(d), "--sizes", "10", "--reps", "2")
        assert proc.returncode == 1, proc.stderr
        assert "[E_SPACE_TOO_LARGE]" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSimulateBounds:
    # simulate size checks each size against 2**53 and the space against
    # the outcome budget before it draws or forms k**d
    @pytest.mark.parametrize("args,code", [
        (("--d", "3", "--sizes", "100000000000000000000"), "E_VALIDATION"),
        (("--d", "3", "--sizes", "9007199254740993"), "E_VALIDATION"),
        (("--d", "100000000000000000000", "--sizes", "10"),
         "E_SPACE_TOO_LARGE"),
    ], ids=["sizes-1e20", "sizes-2^53+1", "d-1e20"])
    def test_oversized_argument_exits_1(self, args, code):
        proc = TestSpaceBudget.run_limited("simulate", "size", "--k", "2",
                                           "--reps", "2", *args)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"latentw: error [{code}]: ")


class TestBootBounds:
    # --boot and --reps stay below 2**53; the bootstrap's chunk plan was
    # built whole before the first draw, and failed with a MemoryError
    # traceback under the child's 1 GiB limit
    @pytest.mark.parametrize("value", [2**53, 2**63, 10**20],
                             ids=["2^53", "2^63", "1e20"])
    @pytest.mark.parametrize("command", ["estimate", "simulate", "meth"])
    def test_huge_count_exits_1(self, tmp_path, command, value):
        counts = tmp_path / "c.tsv"
        counts.write_text("outcome\tcount\n000\t3\n011\t5\n101\t2\n")
        reads = tmp_path / "r.epiread"
        reads.write_text("chr1 0 CCT\nchr1 0 TCT\nchr1 1 CTC\n")
        argv = {"estimate": ["estimate", "--counts", str(counts), "--boot"],
                "simulate": ["simulate", "size", "--k", "2", "--d", "3",
                             "--sizes", "10", "--reps"],
                "meth": ["meth", "triplets", "--epireads", str(reads),
                         "--min-coverage", "1", "--out",
                         str(tmp_path / "o.tsv"), "--boot"]}[command]
        proc = TestSpaceBudget.run_limited(*argv, str(value))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        what = "reps" if command == "simulate" else "n_boot"
        assert line == (f"latentw: error [E_VALIDATION]: {what} must be "
                        "below 2**53")


#: The values every integer option is tried with.
CONTRACT_VALUES = (-1, 0, 1, 2**31, 2**53, 2**63, 10**20)

#: Calls left out of the contract sweep: 2**31 resamples run for minutes
#: (about 460 000 chunks), in memory that does not grow with them, and
#: are not an error.
CONTRACT_SLOW = {("estimate", "--boot", 2**31),
                 ("simulate size", "--reps", 2**31),
                 ("meth triplets", "--boot", 2**31)}

#: A child process that runs the calls of its stdin in turn through
#: cli.main, one JSON line each: exit code and stderr, or the exception
#: that escaped main.
CONTRACT_CHILD = """
import contextlib, io, json, sys, traceback
from latentw import cli
for line in sys.stdin:
    argv, err = json.loads(line), io.StringIO()
    print(json.dumps(argv), file=sys.stderr, flush=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code, err = None, io.StringIO(traceback.format_exc())
    print(json.dumps([argv, code, err.getvalue()]), flush=True)
"""


def _leaf_parsers(parser, prefix=()):
    """``(command words, parser)`` of every subcommand that runs."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, prefix + (name,))
    if parser.get_default("func"):
        yield " ".join(prefix), parser


class TestIntegerOptions:
    # Every integer option of the parser, but --threads (the test must
    # not ask for thousands of threads), is tried at each value on a
    # small valid input.  Each call exits 0, or 1 or 2 with one coded
    # error line; no exception escapes main, under a 1 GiB limit.
    def test_every_value_exits_cleanly(self, tmp_path):
        (tmp_path / "c.tsv").write_text(
            "outcome\tcount\n000\t3\n011\t5\n101\t2\n111\t4\n")
        (tmp_path / "m.tsv").write_text("0\ta\n1\tb\n")
        (tmp_path / "r.epiread").write_text(
            "chr1 0 CCTC\nchr1 0 TCTT\nchr1 1 CTC\nchr1 0 CCC\n")
        counts = ["--counts", "c.tsv"]
        base = {
            "weight": ["weight", *counts],
            "decompose": ["decompose", *counts],
            "bound marginal": ["bound", "marginal", *counts,
                               "--indices", "1,2"],
            "bound lump": ["bound", "lump", *counts, "--map", "m.tsv"],
            "tv": ["tv", *counts],
            "classweight": ["classweight", *counts, "--class", "iid"],
            "estimate": ["estimate", *counts, "--boot", "50"],
            "simulate size": ["simulate", "size", "--k", "2", "--d", "3",
                              "--sizes", "10,40", "--reps", "20"],
            "meth triplets": ["meth", "triplets", "--epireads", "r.epiread",
                              "--min-coverage", "1", "--boot", "50",
                              "--out", "o.tsv"],
        }
        calls = []
        for command, parser in _leaf_parsers(cli.build_parser()):
            options = [a.option_strings[0] for a in parser._actions
                       if a.type is int and a.dest != "threads"]
            if options:
                assert command in base, f"no valid call of {command}"
            for option, value in itertools.product(options, CONTRACT_VALUES):
                if (command, option, value) in CONTRACT_SLOW:
                    continue
                argv = list(base[command])
                if option in argv:
                    argv[argv.index(option) + 1] = str(value)
                else:
                    argv += [option, str(value)]
                calls.append(argv)

        def limit():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])

        try:
            proc = subprocess.run(
                [sys.executable, "-c", CONTRACT_CHILD], cwd=tmp_path,
                input="".join(json.dumps(a) + "\n" for a in calls),
                capture_output=True, text=True, preexec_fn=limit,
                timeout=120, env=child_env(OPENBLAS_NUM_THREADS="1"))
        except subprocess.TimeoutExpired as exc:
            started = (exc.stderr or b"").decode().splitlines()
            pytest.fail(f"timed out at {started[-1:]}")
        assert proc.returncode == 0, proc.stderr[-2000:]
        results = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [argv for argv, _, _ in results] == calls
        bad = [(argv, code, err) for argv, code, err in results
               if not (code == 0 or code in (1, 2) and re.fullmatch(
                   r"latentw: error \[E_[A-Z_]+\]: [^\n]*\n", err))]
        assert bad == []


class TestConfigHash:
    def test_same_bytes_from_two_directories(self, capsys, tmp_path):
        # input paths are not hashed: the same calls on the same bytes in
        # two directories give the same outputs
        outputs = []
        for name in ("a", "b"):
            where = tmp_path / name
            where.mkdir()
            files = {
                "counts": "outcome\tcount\n101\t100\n110\t100\n111\t100\n",
                "map": "from\tto\n0\tx\n1\tx\n",
                "reads": "\n".join(["chr1 0 CCC"] * 100 + ["chr1 1 CTC"] * 100
                                   + ["chr1 2 TCT"] * 100) + "\n",
                "cov": "chrom\tindex\tvalue\nchr1\t0\t1\nchr1\t1\t5\n"
                       "chr1\t2\t3\n",
            }
            path = {}
            for key, text in files.items():
                path[key] = str(where / key)
                (where / key).write_text(text)
            report = str(where / "report.tsv")
            calls = [
                ("weight", "--counts", path["counts"], "--json"),
                ("bound", "lump", "--counts", path["counts"], "--map",
                 path["map"], "--json"),
                ("classweight", "--counts", path["counts"], "--class",
                 "singleton", "--q0", path["counts"], "--grid", "5",
                 "--json"),
                ("estimate", "--counts", path["counts"], "--boot", "50"),
                ("meth", "triplets", "--epireads", path["reads"], "--boot",
                 "20", "--out", report),
                ("meth", "correlate", "--report", report, "--covariate",
                 path["cov"], "--group-by", "dataset"),
            ]
            got = [run(capsys, *argv) for argv in calls]
            assert all(code == 0 for code, _, _ in got)
            outputs.append((got, Path(report).read_text()))
        assert outputs[0] == outputs[1]


class TestCountBound:
    # Counts and their running total stay below 2**53, where float64 holds
    # integers exactly; above it a count could overflow int64 or wrap
    # the total.
    @pytest.mark.parametrize("rows,line", [
        ([("01", 10**20)], 2),
        ([("00", 2**62), ("01", 2**62), ("11", 2**62)], 2),
        ([("00", 2**52), ("01", 2**52 - 1), ("11", 1)], 4),
    ], ids=["count-1e20", "three-2^62", "running-total"])
    @pytest.mark.parametrize("command", ["weight", "tv", "estimate"])
    def test_count_at_2_53_exits_1(self, capsys, tmp_path, rows, line,
                                   command):
        path = tmp_path / "huge.tsv"
        path.write_text("outcome\tcount\n"
                        + "".join(f"{o}\t{c}\n" for o, c in rows))
        code, _, err = run(capsys, command, "--counts", str(path))
        assert code == 1
        assert f"[E_COUNTS_FILE]: line {line}:" in err
        assert "2**53" in err and "Traceback" not in err

    def test_total_just_below_2_53_is_read(self, capsys, tmp_path):
        path = tmp_path / "edge.tsv"
        path.write_text(f"outcome\tcount\n00\t{2**52}\n01\t{2**52 - 1}\n")
        code, out, _ = run(capsys, "weight", "--counts", str(path), "--exact")
        assert code == 0
        assert out == f"{2**52}/{2**53 - 1}\n"


class TestCountsEncoding:
    # Undecodable bytes fail as a counts-file error of their line, not
    # with the decoder's offset into its 8 KiB chunk.
    @pytest.mark.parametrize("flag", ["--counts", "--q0"])
    def test_bad_byte_on_line_3(self, capsys, tmp_path, intro_counts, flag):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"outcome\tcount\n0\t4\n1\xff\t2\n")
        argv = (["weight", "--counts", str(bad)] if flag == "--counts" else
                ["classweight", "--counts", intro_counts, "--class",
                 "singleton", "--q0", str(bad)])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("latentw: error [E_COUNTS_FILE]: line 3: 'utf-8' codec "
                       "can't decode byte 0xff in position 1: invalid start "
                       "byte\n")

    def test_bad_byte_past_8_kib(self, capsys, tmp_path):
        rows = "".join(f"{i:012b}\t{i}\n" for i in range(1500))
        data = ("outcome\tcount\n" + rows).encode()
        assert data[20000:20001] != b"\n"
        line = data[:20000].count(b"\n") + 1
        column = 20000 - (data.rfind(b"\n", 0, 20000) + 1)
        bad = tmp_path / "far.tsv"
        bad.write_bytes(data[:20000] + b"\xff" + data[20001:])
        code, out, err = run(capsys, "tv", "--counts", str(bad), "--json")
        assert (code, out) == (1, "")
        assert err == (f"latentw: error [E_COUNTS_FILE]: line {line}: 'utf-8' "
                       f"codec can't decode byte 0xff in position {column}: "
                       "invalid start byte\n")


class TestTextEncoding:
    # Report, covariate and map files name the line of a byte that is not
    # UTF-8, and its position within the line, as counts files do; before,
    # the position was counted from the start of the decoder's 8 KiB chunk
    # and no line was named.
    WHERE = {"report": "report line", "covariate": "covariate file line",
             "map": "map file line"}

    @staticmethod
    def valid(kind: str, rows: int) -> bytes:
        if kind == "report":
            return ("\t".join(REPORT_COLUMNS) + "\n" + "".join(
                "\t".join([f"chr{i}", "5"] + ["0.5"] * 3 + ["1"] * 8
                          + ["0.125"] * 8) + "\n"
                for i in range(rows))).encode()
        if kind == "covariate":
            return ("chrom\tindex\tvalue\n" + "".join(
                f"chr1\t{i}\t{i}\n" for i in range(rows))).encode()
        return ("from\tto\n0\ta\n1\tb\n"
                + "# a comment line\n" * rows).encode()

    @pytest.mark.parametrize("kind", ["report", "covariate", "map"])
    @pytest.mark.parametrize("far", [False, True], ids=["line-2", "byte-20000"])
    def test_bad_byte_names_line(self, capsys, tmp_path, third_counts, kind,
                                 far):
        data = self.valid(kind, 2000 if far else 2)
        at = 20000 if far else data.index(b"\n") + 3
        assert len(data) > at and data[at:at + 1] != b"\n"
        line = data[:at].count(b"\n") + 1
        column = at - (data.rfind(b"\n", 0, at) + 1)
        assert far or line == 2
        bad = tmp_path / f"{kind}.tsv"
        bad.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        if kind == "map":
            argv = ["bound", "lump", "--counts", third_counts, "--map",
                    str(bad)]
        else:
            files = {"report": tmp_path / "r.tsv", "covariate":
                     tmp_path / "c.tsv"}
            files["report"].write_bytes(self.valid("report", 2))
            files["covariate"].write_bytes(self.valid("covariate", 2))
            files[kind] = bad
            argv = ["meth", "correlate", "--report", str(files["report"]),
                    "--covariate", str(files["covariate"])]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"latentw: error [E_VALIDATION]: {self.WHERE[kind]} "
                       f"{line}: 'utf-8' codec can't decode byte 0xff in "
                       f"position {column}: invalid start byte\n")


class TestTv:
    def test_value(self, capsys, third_counts):
        code, out, _ = run(capsys, "tv", "--counts", third_counts)
        assert code == 0
        assert out == "0.222222\n"


class TestClassWeight:
    def test_product_class(self, capsys, intro_counts):
        code, out, _ = run(capsys, "classweight", "--counts", intro_counts,
                           "--class", "product")
        assert code == 0
        assert abs(float(out) - 0.96) <= 1e-4

    def test_not_converged_warns_on_stderr(self, capsys, intro_counts,
                                           monkeypatch):
        _, _, quiet = run(capsys, "classweight", "--counts", intro_counts,
                          "--class", "product")
        assert quiet == ""
        monkeypatch.setattr(product, "_MAX_EVALS_PER_START", 1)
        code, out, err = run(capsys, "classweight", "--counts", intro_counts,
                             "--class", "product")
        res = class_weight(empirical_distribution(read_counts(intro_counts)),
                           ProductClassSpec(kind="product"))
        assert code == 0
        assert not res.converged
        assert out == f"{min(res.lam, 1.0):.6f}\n"   # stdout: the bare number
        assert err.startswith("latentw: warning: classweight did not "
                              "converge")

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_bad_grid_is_a_validation_error(self, capsys, intro_counts,
                                            grid):
        code, out, err = run(capsys, "classweight", "--counts", intro_counts,
                             "--class", "product", "--grid", grid)
        assert (code, out) == (1, "")
        assert err == ("latentw: error [E_VALIDATION]: grid_points must be "
                       f">= 1, got {grid}\n")

    def test_singleton_requires_q0(self, capsys, intro_counts):
        code, _, err = run(capsys, "classweight", "--counts", intro_counts,
                           "--class", "singleton")
        assert code == 1
        assert "E_USAGE" in err

    @pytest.mark.parametrize("cls", ["iid", "product"])
    @pytest.mark.parametrize("q0", ["q0.tsv", "missing.tsv"])
    def test_q0_outside_singleton_is_a_usage_error(self, capsys,
                                                   intro_counts, tmp_path,
                                                   cls, q0):
        # found before any input is read, whether the file exists or not
        (tmp_path / "q0.tsv").write_text("outcome\tcount\n00\t1\n")
        code, out, err = run(capsys, "classweight", "--counts",
                             str(tmp_path / "none.tsv"), "--class", cls,
                             "--q0", str(tmp_path / q0))
        assert (code, out) == (1, "")
        assert err == ("latentw: error [E_USAGE]: --q0 applies to --class "
                       f"singleton only, not --class {cls}\n")

    def test_singleton_with_q0(self, capsys, intro_counts, tmp_path):
        q0 = tmp_path / "q0.tsv"
        # Bernoulli(3/5) x Bernoulli(4/5) as counts out of 25
        q0.write_text("outcome\tcount\n00\t2\n01\t8\n10\t3\n11\t12\n")
        code, out, _ = run(capsys, "classweight", "--counts", intro_counts,
                           "--class", "singleton", "--q0", str(q0), "--json")
        payload = json.loads(out)
        assert abs(payload["lambda"] - 5 / 6) < 1e-12
        assert payload["certificate_margin"] >= -1e-9


class TestEstimate:
    def test_json_mirrors_fields(self, capsys, third_counts):
        code, out, _ = run(capsys, "estimate", "--counts", third_counts,
                           "--boot", "200", "--seed", "5")
        payload = json.loads(out)
        for key in ("lambda_hat", "lambda_corrected", "se_boot", "bias_boot",
                    "n", "n_boot", "resample_size", "seed",
                    "regularity_flag"):
            assert key in payload
        assert payload["n"] == 300
        assert payload["resample_size"] == 300
        assert payload["seed"] == 5

    def test_subsample_flag(self, capsys, third_counts):
        code, out, _ = run(capsys, "estimate", "--counts", third_counts,
                           "--boot", "200", "--seed", "5", "--subsample")
        payload = json.loads(out)
        assert payload["resample_size"] == 35   # ceil(2*sqrt(300))

    def test_byte_identical_reruns(self, capsys, third_counts, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "estimate", "--counts", third_counts, "--boot", "300",
            "--seed", "9", "--out", str(a))
        run(capsys, "estimate", "--counts", third_counts, "--boot", "300",
            "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_size_table(self, capsys):
        code, out, _ = run(capsys, "simulate", "size", "--k", "2", "--d", "3",
                           "--sizes", "50,100", "--reps", "200", "--seed",
                           "1")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n\tmean_bias\tsd"
        assert len(lines) == 3
        n50 = lines[1].split("\t")
        assert n50[0] == "50"
        assert float(n50[1]) < 0  # negative bias


class TestMeth:
    @pytest.fixture
    def epireads(self, tmp_path):
        lines = (["chr1 0 CCC"] * 100
                 + ["chr1 10 CTC"] * 100 + ["chr1 10 CCT"] * 100
                 + ["chr1 10 CCC"] * 100
                 + ["chr2 4 TTT"] * 99)
        path = tmp_path / "reads.epiread"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_triplets_report(self, capsys, epireads, tmp_path):
        out = tmp_path / "report.tsv"
        code, _, _ = run(capsys, "meth", "triplets", "--epireads", epireads,
                         "--boot", "100", "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 3   # header + 2 triplets (99-coverage excluded)
        assert data[1].split("\t")[0] == "chr1"

    def test_threads_do_not_change_bytes(self, capsys, epireads, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run(capsys, "meth", "triplets", "--epireads", epireads, "--boot",
            "100", "--seed", "3", "--threads", "1", "--out", str(a))
        run(capsys, "meth", "triplets", "--epireads", epireads, "--boot",
            "100", "--seed", "3", "--threads", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_correlate(self, capsys, epireads, tmp_path):
        report = tmp_path / "report.tsv"
        run(capsys, "meth", "triplets", "--epireads", epireads, "--boot",
            "100", "--seed", "3", "--out", str(report))
        # three covariate rows so the pooled group has >= 3 points: add a
        # third triplet first
        extra = tmp_path / "extra.epiread"
        extra.write_text("\n".join(["chr3 7 TCT"] * 120) + "\n")
        run(capsys, "meth", "triplets", "--epireads",
            f"{epireads},{extra}", "--boot", "100", "--seed", "3", "--out",
            str(report))
        cov = tmp_path / "cov.tsv"
        cov.write_text("chrom\tindex\tvalue\n"
                       "chr1\t0\t100\nchr1\t10\t2000\nchr3\t7\t500\n")
        code, out, _ = run(capsys, "meth", "correlate", "--report",
                           str(report), "--covariate", str(cov),
                           "--group-by", "dataset")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0].startswith("group\tn\t")
        assert lines[1].split("\t")[0] == "all"
        assert lines[1].split("\t")[1] == "3"

    @pytest.mark.parametrize("boot", ["1", "0", "-5"])
    def test_boot_below_two_exits_1(self, capsys, epireads, tmp_path, boot):
        # fails once, before any report is written
        out = tmp_path / "r.tsv"
        code, stdout, err = run(capsys, "meth", "triplets", "--epireads",
                                epireads, "--boot", boot, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "latentw: error [E_VALIDATION]: n_boot must be >= 2\n"
        assert not out.exists()

    def test_negative_min_coverage_exits_1(self, capsys, epireads, tmp_path):
        out = tmp_path / "r.tsv"
        code, stdout, err = run(capsys, "meth", "triplets", "--epireads",
                                epireads, "--min-coverage", "-1", "--out",
                                str(out))
        assert (code, stdout) == (1, "")
        assert err == ("latentw: error [E_VALIDATION]: coverage_threshold "
                       "must be >= 0\n")
        assert not out.exists()

    def test_covariate_format(self, tmp_path):
        # blank and whitespace-only lines are skipped: the second line
        # used to be taken as the header
        cov = tmp_path / "cov.tsv"
        cov.write_text("# a comment\n \t \n\nchrom\tindex\tvalue\n"
                       "chr1\t0\t1.5\n\n chr2 \t 7 \t -2e3 \n")
        assert cli._read_covariate(str(cov)) == {("chr1", 0): 1.5,
                                                 ("chr2", 7): -2000.0}

    @pytest.mark.parametrize("text,line,reason", [
        # a repeat used to override the first row
        ("chrom\tindex\tvalue\nchr1\t0\t1\nchr1\t0\t5\n", 3,
         "duplicate row for chr1:0"),
        ("chrom\tindex\tvalue\nchr1\t0\t1\nchr1\t00\t5\n", 3,
         "duplicate row for chr1:0"),
        ("chrom\tindex\tvalue\nchr1\t0\n", 2, "expected 3 fields, got 2"),
        ("chrom\tindex\tvalue\nchr1\t0\t1\t2\n", 2,
         "expected 3 fields, got 4"),
        ("chrom\tindex\tvalue\nchr1\tx\t1\n", 2,
         "index 'x' is not a non-negative integer"),
        ("chrom\tindex\tvalue\nchr1\t1.0\t1\n", 2,
         "index '1.0' is not a non-negative integer"),
        ("chrom\tindex\tvalue\nchr1\t-3\t1\n", 2,
         "index '-3' is not a non-negative integer"),
        ("chrom\tindex\tvalue\nchr1\t0\tabc\n", 2,
         "value 'abc' is not a finite number"),
        # one nan used to turn every statistic into nan, with exit 0
        ("chrom\tindex\tvalue\nchr1\t0\tnan\n", 2,
         "value 'nan' is not a finite number"),
        ("chrom\tindex\tvalue\nchr1\t0\t-inf\n", 2,
         "value '-inf' is not a finite number"),
        ("chrom\tindex\tvalue\nchr1\t0\t1e400\n", 2,
         "value '1e400' is not a finite number"),
        ("# c\nchr1\t0\t1\n", 2,
         "header must be 'chrom<TAB>index<TAB>value'"),
    ])
    def test_bad_covariate_exits_1(self, capsys, tmp_path, text, line,
                                   reason):
        report = tmp_path / "report.tsv"
        report.write_text("\t".join(REPORT_COLUMNS) + "\n")
        cov = tmp_path / "cov.tsv"
        cov.write_text(text)
        out = tmp_path / "corr.tsv"
        code, stdout, err = run(capsys, "meth", "correlate", "--report",
                                str(report), "--covariate", str(cov),
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == (f"latentw: error [E_VALIDATION]: covariate file "
                       f"line {line}: {reason}\n")
        assert not out.exists()

    def test_parse_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.epiread"
        bad.write_text("chr1 zero CCC\n")
        code, _, err = run(capsys, "meth", "triplets", "--epireads",
                           str(bad), "--out", str(tmp_path / "r.tsv"))
        assert code == 1
        assert "E_PARSE" in err

    def test_parse_error_names_second_file(self, capsys, epireads, tmp_path):
        bad = tmp_path / "second.epiread"
        bad.write_text("chr1 0 CCC\n\nchr1 3 CCX\n")
        code, _, err = run(capsys, "meth", "triplets", "--epireads",
                           f"{epireads},{bad}", "--out",
                           str(tmp_path / "r.tsv"))
        assert code == 1
        assert f"[E_PARSE]: {bad}: line 3: " in err

    def test_start_past_largest_cpg_index_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "far.epiread"
        bad.write_text(f"chr1 0 CCC\nchr1 {2**63} CCC\n")
        code, _, err = run(capsys, "meth", "triplets", "--epireads", str(bad),
                           "--out", str(tmp_path / "r.tsv"))
        assert code == 1
        assert f"[E_PARSE]: {bad}: line 2: " in err

    def test_non_utf8_epireads_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "latin1.epiread"
        bad.write_bytes(b"chr1 0 CCC\nchr\xff 1 CCC\n")
        out = tmp_path / "r.tsv"
        code, stdout, err = run(capsys, "meth", "triplets", "--epireads",
                                str(bad), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == (f"latentw: error [E_PARSE]: {bad}: line 2: 'utf-8' "
                       "codec can't decode byte 0xff in position 3: invalid "
                       "start byte\n")
        assert not out.exists()

    @pytest.mark.parametrize("paths", [",", "", ",,"])
    def test_empty_epireads_list_exits_1(self, capsys, tmp_path, paths):
        out = tmp_path / "r.tsv"
        code, stdout, err = run(capsys, "meth", "triplets", "--epireads",
                                paths, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "latentw: error [E_USAGE]: --epireads names no file\n"
        assert not out.exists()

    @pytest.mark.parametrize("row, reason", [
        ("chr1\t0\t0.1", "expected 21 fields, got 3"),
        ("chr1\t0\t0.1\tx" + "\t1" * 17, "lambda_corrected 'x' is not a "
                                         "number"),
        ("chr1\t0\t0.1\t0.5\t0.1\t2.5" + "\t1" * 15,
         "n_000 '2.5' is not an integer"),
        ("chr1\tfirst" + "\t1" * 19, "index 'first' is not an integer"),
    ])
    def test_bad_report_row_exits_1(self, capsys, tmp_path, row, reason):
        report = tmp_path / "report.tsv"
        good = "\t".join(["chr1", "5"] + ["0.5"] * 3 + ["1"] * 8
                         + ["0.125"] * 8)
        report.write_text("# seed=0\n" + "\t".join(REPORT_COLUMNS) + "\n"
                          + good + "\n" + row + "\n")
        cov = tmp_path / "cov.tsv"
        cov.write_text("chrom\tindex\tvalue\nchr1\t0\t1\n")
        out = tmp_path / "corr.tsv"
        code, stdout, err = run(capsys, "meth", "correlate", "--report",
                                str(report), "--covariate", str(cov),
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == (f"latentw: error [E_VALIDATION]: report line 4: "
                       f"{reason}\n")
        assert not out.exists()

    def test_threads_default_and_below_one(self, capsys, epireads,
                                           tmp_path):
        # no flag means None, one thread per usable CPU, as for estimate
        # and triplet_report; below 1 runs serially
        args = cli.build_parser().parse_args(
            ["meth", "triplets", "--epireads", epireads, "--out", "r.tsv"])
        assert args.threads is None
        outputs = []
        for flag in ([], ["--threads", "1"], ["--threads", "0"],
                     ["--threads", "-2"]):
            path = tmp_path / f"r{len(outputs)}.tsv"
            code, _, err = run(capsys, "meth", "triplets", "--epireads",
                               epireads, "--boot", "100", "--seed", "3",
                               *flag, "--out", str(path))
            assert (code, err) == (0, "")
            outputs.append(path.read_bytes())
        assert outputs[1:] == outputs[:1] * 3


class TestSeed:
    # A negative seed is a usage error, found before any input is read:
    # the input files here do not exist.
    @pytest.mark.parametrize("argv", [
        ["estimate", "--counts", "none.tsv"],
        ["simulate", "size", "--k", "2", "--d", "3", "--sizes", "10",
         "--reps", "2"],
        ["meth", "triplets", "--epireads", "none.epiread"],
    ], ids=["estimate", "simulate-size", "meth-triplets"])
    def test_negative_seed_exits_1(self, capsys, tmp_path, argv):
        out = tmp_path / "out.txt"
        code, stdout, err = run(capsys, *argv, "--seed", "-1", "--out",
                                str(out))
        assert (code, stdout) == (1, "")
        assert err == ("latentw: error [E_USAGE]: argument --seed: must be a "
                       "non-negative integer, got -1\n")
        assert not out.exists()


#: One valid command line per subcommand, nested ones included.
VALID_ARGV = [
    ["weight", "--counts", "c.tsv", "--exact", "--json"],
    ["decompose", "--counts", "c.tsv", "--k", "3", "--out", "o.json"],
    ["bound", "marginal", "--counts", "c.tsv", "--indices", "1,2"],
    ["bound", "lump", "--counts", "c.tsv", "--map", "m.tsv", "--exact"],
    ["tv", "--counts", "c.tsv", "--json"],
    ["classweight", "--counts", "c.tsv", "--class", "iid", "--grid", "9"],
    ["estimate", "--counts", "c.tsv", "--boot", "50", "--subsample",
     "--seed", "4"],
    ["simulate", "size", "--k", "2", "--d", "3", "--sizes", "10",
     "--reps", "2"],
    ["meth", "triplets", "--epireads", "r.epiread", "--threads", "2",
     "--out", "r.tsv"],
    ["meth", "correlate", "--report", "r.tsv", "--covariate", "v.tsv",
     "--group-by", "dataset"],
]


class TestParser:
    # main() builds only the named subcommand's parser, which must parse,
    # help and fail as the parser of every subcommand does.
    def test_every_subcommand_is_named(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert "{" + ",".join(cli._SUBCOMMANDS) + "}" in out

    @pytest.mark.parametrize("argv", VALID_ARGV, ids=lambda a: a[0])
    def test_namespace_matches_full_parser(self, argv):
        one = cli.build_parser(argv[0]).parse_args(argv)
        assert vars(one) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("prefix", [
        [], ["weight"], ["decompose"], ["bound"], ["bound", "marginal"],
        ["bound", "lump"], ["tv"], ["classweight"], ["estimate"],
        ["simulate"], ["simulate", "size"], ["meth"], ["meth", "triplets"],
        ["meth", "correlate"],
    ], ids=lambda p: " ".join(p) or "top")
    def test_help_matches_full_parser(self, capsys, prefix):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([*prefix, "--help"])
        full = capsys.readouterr().out
        assert full.startswith(f"usage: {' '.join(['latentw', *prefix])}")
        assert run(capsys, *prefix, "--help") == (0, full, "")

    @pytest.mark.parametrize("argv", [
        [], ["nope"], ["--bogus"], ["weight"], ["weight", "--version"],
        ["weight", "--counts"], ["weight", "--counts", "c.tsv", "extra"],
        ["tv", "--counts", "c.tsv", "--exact"],
        ["classweight", "--counts", "c.tsv", "--class", "bad"],
        ["estimate", "--counts", "c.tsv", "--seed", "x"],
        ["bound"], ["bound", "foo"], ["bound", "lump", "--counts", "c.tsv"],
        ["simulate", "size", "--k", "x"], ["meth"], ["meth", "triplets"],
        ["meth", "correlate", "--report", "r", "--covariate", "v",
         "--group-by", "z"],
    ])
    def test_usage_errors_match_full_parser(self, capsys, argv):
        with pytest.raises(cli._UsageError) as exc:
            cli.build_parser().parse_args(argv)
        assert run(capsys, *argv) == (
            1, "", f"latentw: error [E_USAGE]: {exc.value}\n")


class TestJsonText:
    @pytest.mark.parametrize("payload", [
        {},
        {"meta": {"version": "0.1.0", "seed": None, "config_hash": "ab"},
         "value": 0.25, "exact": "1/4", "q": [0.1, 0.2, 0.7]},
        {"empty": [], "nested_empty": {"a": [], "b": {}}, "none": None},
        {"floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300,
                    0.1 + 0.2, 2**60, True, False, None]},
        {"sets": [["000"], ["001", "010", "100"], []], "mixed": [1, [2], 3],
         "tuple": (1, 2), "deep": {"x": [{"y": [1.5, None]}]}},
        {"text": ["ı", "é€", "\u0000\"\\\n"], "ünï": "ſ\t",
         "flag": True},
    ])
    def test_matches_stdlib_indent(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, indent=2) + "\n"
