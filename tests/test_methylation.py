import io
import os
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import latentw.inference as inference_mod
import latentw.methylation as meth_mod
from latentw import (CountVector, correlate, estimate, extract_triplets,
                     parse_epireads, triplet_report, write_report_tsv)
from latentw.errors import DegenerateGroupError, EpireadParseError
from latentw.methylation import (MAX_CPG_INDEX, REPORT_COLUMNS, TRIPLET_SPACE,
                                 EpireadRecord, parse_epiread_file,
                                 read_report_tsv)
from oracle_utils import (extract_triplets_oracle, parse_epireads_oracle,
                          triplet_row_oracle)


def records(*lines):
    return list(parse_epireads(lines))


class TestParseEpireads:
    def test_basic_record(self):
        recs = records("chr1 42 CCT")
        assert recs == [EpireadRecord("chr1", 42, "CCT")]

    def test_ambiguous_state_is_kept(self):
        recs = records("chr1 7 CNC")
        assert recs[0].states == "CNC"

    def test_non_integer_index(self):
        with pytest.raises(EpireadParseError, match="line 1"):
            records("chr1 x CC")

    def test_error_carries_line_number(self):
        with pytest.raises(EpireadParseError, match="line 3"):
            records("chr1 1 CC", "chr1 2 TT", "chr1 z CC")

    def test_invalid_state_characters(self):
        with pytest.raises(EpireadParseError, match="invalid characters"):
            records("chr1 5 CAT")

    def test_field_count(self):
        with pytest.raises(EpireadParseError, match="3 fields"):
            records("chr1 5")
        with pytest.raises(EpireadParseError, match="3 fields"):
            records("chr1 5 CC extra")

    def test_negative_index(self):
        with pytest.raises(EpireadParseError, match="negative"):
            records("chr1 -3 CC")

    def test_blank_lines_skipped(self):
        assert len(records("", "chr1 0 CC", "   ", "chr2 1 TT")) == 2

    def test_start_past_largest_cpg_index(self):
        # the last CpG of a read must fit the packed window key
        last = MAX_CPG_INDEX - 2
        assert records(f"chr1 {last} CCC")[0].start_cpg == last
        for start in (last + 1, 10**30):
            with pytest.raises(EpireadParseError, match="line 2") as err:
                records("chr1 0 CCC", f"chr1 {start} CCC")
            assert err.value.line_number == 2
            assert "largest supported CpG index" in err.value.reason

    def test_file_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "reads.epiread"
        path.write_text("chr1 0 CCC\nchr1 1 CAT\n")
        with pytest.raises(EpireadParseError) as err:
            list(parse_epiread_file(str(path)))
        assert err.value.line_number == 2
        assert err.value.path == str(path)
        assert str(err.value).startswith(f"{path}: line 2: ")


def _parse_until_error(lines):
    """Records of ``parse_epireads`` up to its error, and that error's
    ``(line_number, reason)`` or None."""
    got = []
    try:
        for rec in parse_epireads(lines):
            assert type(rec) is EpireadRecord and type(rec.start_cpg) is int
            got.append(tuple(rec))
    except EpireadParseError as exc:
        return got, (exc.line_number, exc.reason)
    return got, None


_SEPARATORS = st.sampled_from([" ", "\t", "\x1c", "\x85", "\xa0", "\u3000",
                               " \t\u3000"])
_GOOD_CHROMS = st.sampled_from(["chr1", "chrX", "染色体2", "chrÅ", "c\x00"])
_GOOD_STARTS = st.one_of(st.integers(0, 40).map(str),
                         st.sampled_from(["+5", "1_0", "٣", "007",
                                          str(MAX_CPG_INDEX - 3)]))
_GOOD_STATES = st.text("CTN", min_size=1, max_size=6)
_BAD_STARTS = st.one_of(
    st.integers(-10**30, -1).map(str),
    st.sampled_from(["x", "1.5", "1__0", "٣x"]),
    st.integers(MAX_CPG_INDEX - 5, MAX_CPG_INDEX + 5).map(str),
    st.integers(2**63 - 8, 2**63 + 8).map(str),     # where int64 ends
    st.sampled_from([str(10**30), str(-10**30)]))
_BAD_STATES = st.sampled_from(["CAT", "c", "CÇC", "-", "T.C"])
_good_fields = st.tuples(_GOOD_CHROMS, _GOOD_STARTS, _GOOD_STATES)
_bad_fields = st.one_of(
    st.tuples(st.just("chr\udcff"), _GOOD_STARTS, _GOOD_STATES),
    st.tuples(_GOOD_CHROMS, _BAD_STARTS, _GOOD_STATES),
    st.tuples(_GOOD_CHROMS, _GOOD_STARTS, _BAD_STATES),
    # several faults at once: the first check that fails names the reason
    st.tuples(st.sampled_from(["chr1", "chr\udcff"]), _BAD_STARTS,
              _BAD_STATES),
    st.lists(st.sampled_from(["chr1", "3", "CC"]), max_size=5).map(tuple))


@st.composite
def _epiread_line(draw, fields):
    sep = draw(_SEPARATORS)
    body = sep.join(draw(fields))
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + body + draw(st.sampled_from(["", "\n", "\r\n", " \n"]))


_good_lines = st.lists(
    st.one_of(_epiread_line(_good_fields), _epiread_line(_good_fields),
              st.sampled_from(["", "\n", "  \t\n", "\u3000", "\r\n"])),
    max_size=8)
# good lines, then up to two bad ones, then good lines
_epiread_lines = st.builds(
    lambda head, bad, tail: head + bad + tail, _good_lines,
    st.lists(_epiread_line(_bad_fields), max_size=2), _good_lines)


class TestBlockParser:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_epiread_lines)
    def test_matches_line_by_line_reference(self, lines):
        expected = parse_epireads_oracle(lines, MAX_CPG_INDEX)
        for block in (1, 2, 3, meth_mod._BLOCK_LINES):
            with mock.patch.object(meth_mod, "_BLOCK_LINES", block), \
                    mock.patch.object(meth_mod, "_check_line",
                                      wraps=meth_mod._check_line) as rescan:
                assert _parse_until_error(lines) == expected
            # only a block that holds a bad line is checked line by line
            assert rescan.called == (expected[1] is not None)

    @pytest.mark.parametrize("lines, bad_line", [
        (["c 1 CC", "c 2 C C", "1 C"], 2),
        (["c 1", "C c 2 C", "c 3 CC"], 1),
        (["c 1 C C", "c 2", "c 3 CC"], 1),
        (["c 1 CC", "", "c 2 C C T", "c"], 3),
        # a field that is the block check's line marker, "\x00"
        (["c 1 CC \x00", "2 CC"], 1),
        (["\x00 1 CC", "c 2 T"], None),
        # blank lines only
        (["", " \t", "\u3000\r\n"], None),
    ])
    def test_fields_do_not_pool_across_lines(self, lines, bad_line):
        # fields split unevenly over lines, at every block size
        expected = parse_epireads_oracle(lines, MAX_CPG_INDEX)
        assert (expected[1] or (None,))[0] == bad_line
        marker = "\x00" in " ".join(lines).split()
        for block in (1, 2, 3, meth_mod._BLOCK_LINES):
            with mock.patch.object(meth_mod, "_BLOCK_LINES", block), \
                    mock.patch.object(meth_mod, "_check_line",
                                      wraps=meth_mod._check_line) as rescan:
                assert _parse_until_error(lines) == expected
            # blank lines stay on the bulk path; a marker field leaves it
            assert rescan.called == (bad_line is not None or marker)

    @pytest.mark.parametrize("start", [2**63 - 6, 2**63 - 1, 2**63])
    def test_read_ending_past_int64(self, start):
        # start + length - 1 does not fit an int64 even where start does
        lines = ["chr1 0 CCC", f"chr1 {start} CCCCCC"]
        assert _parse_until_error(lines) == parse_epireads_oracle(
            lines, MAX_CPG_INDEX) == ([("chr1", 0, "CCC")], (2, (
                f"read at start index {start} runs past the largest "
                f"supported CpG index {MAX_CPG_INDEX}")))

    def test_bad_line_in_second_block(self, tmp_path):
        n = meth_mod._BLOCK_LINES
        lines = [f"chr1 {i % 50} CTCN" for i in range(n + 4)]
        lines[n + 2] = "chr1 7 CCX"
        path = tmp_path / "reads.epiread"
        path.write_text("\n".join(lines) + "\n")
        got = []
        with pytest.raises(EpireadParseError) as err:
            got.extend(parse_epiread_file(str(path)))
        assert (err.value.path, err.value.line_number) == (str(path), n + 3)
        assert err.value.reason == "states contain invalid characters ['X']"
        # the records of the lines before it come first, in both blocks
        assert got == [EpireadRecord("chr1", i % 50, "CTCN")
                       for i in range(n + 2)]

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "reads.epiread"
        path.write_bytes(b"chr1 0 CCC\r\nchr1 \xff CCC\n")
        with pytest.raises(EpireadParseError) as err:
            list(parse_epiread_file(str(path)))
        assert str(err.value) == (
            f"{path}: line 2: 'utf-8' codec can't decode byte 0xff in "
            "position 5: invalid start byte")


class TestExtractTriplets:
    def test_hundred_reads_single_config(self):
        trip = extract_triplets(records(*["chr1 0 CCC"] * 100))
        assert set(trip) == {("chr1", 0)}
        counts = trip[("chr1", 0)].counts
        assert counts[7] == 100 and counts.sum() == 100

    def test_coverage_threshold_is_exact(self):
        assert extract_triplets(records(*["chr1 0 CCC"] * 99)) == {}
        assert len(extract_triplets(records(*["chr1 0 CCC"] * 99),
                                    coverage_threshold=99)) == 1

    def test_negative_threshold_raises(self):
        with pytest.raises(ValueError, match="coverage_threshold must be "
                                             ">= 0"):
            extract_triplets(records("chr1 0 CCC"), coverage_threshold=-1)

    def test_ambiguity_blocks_affected_windows(self):
        # CNCC covers CpGs 0..3; both windows (0,1,2) and (1,2,3) include
        # the N at position 1, so the read contributes nothing
        assert extract_triplets(records(*["chr1 0 CNCC"] * 200)) == {}
        # CCCN contributes only the window (0,1,2)
        trip = extract_triplets(records(*["chr1 0 CCCN"] * 100))
        assert set(trip) == {("chr1", 0)}

    def test_overlapping_windows_all_count(self):
        trip = extract_triplets(records(*["chr1 10 CTCT"] * 100),
                                coverage_threshold=1)
        assert set(trip) == {("chr1", 10), ("chr1", 11)}
        assert trip[("chr1", 10)].counts[TRIPLET_SPACE.index_of("101")] == 100
        assert trip[("chr1", 11)].counts[TRIPLET_SPACE.index_of("010")] == 100

    def test_reads_shorter_than_three_ignored(self):
        assert extract_triplets(records("chr1 0 CC", "chr1 5 T"),
                                coverage_threshold=1) == {}

    def test_chromosomes_kept_separate(self):
        trip = extract_triplets(
            records(*(["chr1 0 CCC"] * 60 + ["chr2 0 CCC"] * 60)),
            coverage_threshold=50)
        assert set(trip) == {("chr1", 0), ("chr2", 0)}

    def test_configuration_bit_order(self):
        # first CpG is the most significant bit: TTC -> 001
        trip = extract_triplets(records("chr1 0 TTC"), coverage_threshold=1)
        assert trip[("chr1", 0)].counts[1] == 1

    def test_window_accounting(self):
        # contributions = sum over reads of max(0, len-2) minus N-blocked
        rng = np.random.default_rng(2)
        lines = []
        expected = 0
        for _ in range(300):
            start = int(rng.integers(0, 40))
            length = int(rng.integers(1, 9))
            states = "".join(rng.choice(["C", "T", "N"], size=length,
                                        p=[0.45, 0.45, 0.1]))
            lines.append(f"chrX {start} {states}")
            for off in range(max(0, length - 2)):
                if "N" not in states[off:off + 3]:
                    expected += 1
        trip = extract_triplets(records(*lines), coverage_threshold=1)
        total = sum(int(c.counts.sum()) for c in trip.values())
        assert total == expected


def _as_counts(triplets):
    return {key: tuple(c.counts.tolist()) for key, c in triplets.items()}


_reads = st.lists(
    st.tuples(st.sampled_from(["chr1", "chr2", "chrX"]),
              st.integers(0, 25),
              st.one_of(st.text("CTN", min_size=1, max_size=12),
                        st.integers(1, 12).map(lambda n: "N" * n)),
              st.integers(1, 60)),                 # copies of the read
    max_size=30)


class TestExtractMatchesOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_reads, st.sampled_from([0, 1, 100]),
           st.sampled_from([1, 7, 2**14]))
    def test_random_reads(self, reads, threshold, chunk):
        recs = [EpireadRecord(chrom, start, states)
                for chrom, start, states, copies in reads
                for _ in range(copies)]
        with mock.patch.object(meth_mod, "_CHUNK_READS", chunk):
            got = extract_triplets(iter(recs), coverage_threshold=threshold)
        assert _as_counts(got) == extract_triplets_oracle(recs, threshold)
        assert all(type(pos) is int for _, pos in got)

    def test_empty_input(self):
        assert extract_triplets([]) == {}
        assert extract_triplets([], coverage_threshold=0) == {}

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_triplet_spans_chunks(self, monkeypatch, chunk):
        # the 100 reads of chr1:4 reach the threshold only once the
        # parts of many chunks are merged
        monkeypatch.setattr(meth_mod, "_CHUNK_READS", chunk)
        lines = (["chr1 4 CTCN", "chr2 0 TTTT", "chr1 2 NNCCTC"] * 50
                 + ["chr1 5 TCC"] * 50)
        got = extract_triplets(records(*lines))
        assert set(got) == {("chr1", 4), ("chr1", 5)}
        assert _as_counts(got) == extract_triplets_oracle(records(*lines), 100)

    def test_largest_cpg_index_is_counted(self):
        last = MAX_CPG_INDEX - 2
        got = extract_triplets(records(f"chr1 {last} CTC", f"chr2 {last} TTT",
                                       "chr1 0 CCC"), coverage_threshold=1)
        assert _as_counts(got) == {("chr1", last): (0,) * 5 + (1, 0, 0),
                                   ("chr2", last): (1,) + (0,) * 7,
                                   ("chr1", 0): (0,) * 7 + (1,)}

    @pytest.mark.parametrize("states", ["CAT", "ccc", "CNA", "A", "CÇC"])
    def test_invalid_states_raise(self, states):
        # also where every window holds an N or there is no window at all
        with pytest.raises(ValueError, match="other than C, T and N"):
            extract_triplets([EpireadRecord("chr1", 0, "CCC"),
                              EpireadRecord("chr1", 0, states)])

    @pytest.mark.parametrize("start", [-1, MAX_CPG_INDEX - 1, 2**63, 10**30])
    def test_start_out_of_range_raises(self, start):
        with pytest.raises(ValueError, match="CpG index"):
            extract_triplets([EpireadRecord("chr1", start, "CCC")])

    def test_too_many_chromosomes_raise(self, monkeypatch):
        monkeypatch.setattr(meth_mod, "_CHROM_BITS", 1)
        extract_triplets(records("a 0 CCC", "b 0 CCC"))
        with pytest.raises(ValueError, match="more than 2 chromosome names"):
            extract_triplets(records("a 0 CCC", "b 0 CCC", "c 0 CCC"))


class TestTripletReport:
    def test_point_mass_row(self):
        trip = extract_triplets(records(*["chr1 0 CCC"] * 100))
        report = triplet_report(trip, n_boot=100, seed=0)
        (rec,) = report.records
        assert rec.lam_corrected == 1.0
        assert rec.lam_sd == 0.0
        assert rec.tv_dist == 0.0
        assert rec.counts == (0, 0, 0, 0, 0, 0, 0, 100)
        assert rec.q == (0, 0, 0, 0, 0, 0, 0, 1.0)

    def test_one_third_row(self):
        lines = (["chr1 4 CTC"] * 100 + ["chr1 4 CCT"] * 100
                 + ["chr1 4 CCC"] * 100)
        report = triplet_report(extract_triplets(records(*lines)),
                                n_boot=400, seed=1)
        (rec,) = report.records
        assert abs(rec.tv_dist - 2 / 9) < 1e-8
        assert rec.q == (0, 0, 0, 0, 0, 0, 0, 1.0)
        assert rec.counts[5] == rec.counts[6] == rec.counts[7] == 100

    def test_matches_module_level_estimate(self):
        # row fields must equal direct estimate() calls bit for bit,
        # reconstructing the per-triplet seed streams
        lines = (["chr1 0 CCC"] * 120 + ["chr1 7 TCT"] * 80
                 + ["chr1 7 TTT"] * 40 + ["chr2 3 CTC"] * 200)
        trip = extract_triplets(records(*lines))
        report = triplet_report(trip, n_boot=300, seed=99)
        keys = sorted(trip)
        children = np.random.SeedSequence(99).spawn(len(keys))
        for rec, key, child in zip(report.records, keys, children):
            assert (rec.chrom, rec.index) == key
            est = estimate(trip[key], n_boot=300, seed=child)
            assert rec.lam_corrected == est.lambda_corrected
            assert rec.lam_sd == est.se_boot

    def test_zero_weight_sentinel(self):
        lines = ["chr1 0 CTT"] * 100   # single non-constant config: weight 0
        report = triplet_report(extract_triplets(records(*lines)),
                                n_boot=50, seed=3)
        (rec,) = report.records
        assert rec.q == (0.0,) * 8
        assert rec.lam_corrected == 0.0

    def test_rows_sorted(self):
        lines = (["chr2 5 CCC"] * 100 + ["chr1 9 CCC"] * 100
                 + ["chr1 2 TTT"] * 100)
        report = triplet_report(extract_triplets(records(*lines)),
                                n_boot=50, seed=4)
        assert [(r.chrom, r.index) for r in report.records] == \
            [("chr1", 2), ("chr1", 9), ("chr2", 5)]

    def test_thread_count_does_not_change_output(self):
        rng = np.random.default_rng(8)
        lines = []
        for i in range(12):
            config = rng.choice(["CCC", "CTC", "TCT", "CCT", "TTT"], size=150)
            lines += [f"chr{1 + i % 3} {i * 4} {c}" for c in config]
        trip = extract_triplets(records(*lines))
        serial = triplet_report(trip, n_boot=200, seed=5, threads=1)
        threaded = triplet_report(trip, n_boot=200, seed=5, threads=8)
        assert serial == threaded

    def test_default_workers_match_estimate(self):
        # threads=None is one worker per usable CPU, as in estimate; a
        # SeedSequence root gives the report of its integer seed
        trip = extract_triplets(records(*(["chr1 0 CCTC"] * 60
                                          + ["chr1 0 CTCT"] * 70
                                          + ["chr1 0 TCCC"] * 50)))
        assert triplet_report(trip, n_boot=50, seed=np.random.SeedSequence(
            4)) == triplet_report(trip, n_boot=50, seed=4, threads=1)

    def test_rows_equal_single_triplet_functions(self, monkeypatch):
        # every field of every row equals estimate(), decompose() and
        # tv_distance_to_exchangeable() on that triplet bit for bit, with
        # rows spread over several chunks and two threads; laws include
        # zero weight, weight 1 and ties
        rng = np.random.default_rng(21)
        laws = [np.eye(8)[7], np.eye(8)[3], np.full(8, 1 / 8),
                np.array([0, 0, 0, 0, 0, 1, 1, 1]) / 3]
        laws += [rng.dirichlet(np.full(8, 0.4)) for _ in range(26)]
        trip = {(f"chr{i % 3}", i): CountVector(
                    TRIPLET_SPACE, rng.multinomial(int(rng.integers(1, 900)),
                                                   law))
                for i, law in enumerate(laws)}
        monkeypatch.setattr(inference_mod, "_BLOCK_CELLS", 3 * 8 * 60)
        report = triplet_report(trip, n_boot=60, seed=31, threads=2)
        keys = sorted(trip)
        children = np.random.SeedSequence(31).spawn(len(keys))
        assert report.records == tuple(
            triplet_row_oracle(key, trip[key], 60, child)
            for key, child in zip(keys, children))

    def test_empty_triplet_fails_alone(self):
        # an all-zero count vector fails its estimate; the other triplets
        # of its block keep their rows, and nothing divides by its zero
        trip = {("chr1", i): CountVector(TRIPLET_SPACE, [i % 3 * 20] * 8)
                for i in range(6)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = triplet_report(trip, n_boot=30, seed=3, threads=2)
        children = np.random.SeedSequence(3).spawn(6)
        assert [f.index for f in report.failures] == [0, 3]
        assert report.failures[0].error == (
            "EmptySampleError: cannot estimate from an empty sample")
        assert report.records == tuple(
            triplet_row_oracle(("chr1", i), trip[("chr1", i)], 30,
                               children[i]) for i in (1, 2, 4, 5))

    def test_many_threads_on_few_cpus(self, monkeypatch):
        # more workers than CPUs, one triplet per chunk and a short switch
        # interval: the rows must still come out as in a serial run
        rng = np.random.default_rng(5)
        trip = {("chr1", i): CountVector(
                    TRIPLET_SPACE, rng.multinomial(150, rng.dirichlet(
                        np.ones(8)))) for i in range(24)}
        serial = triplet_report(trip, n_boot=30, seed=8)
        monkeypatch.setattr(inference_mod, "_BLOCK_CELLS", 8 * 30)
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 12)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert triplet_report(trip, n_boot=30, seed=8,
                                      threads=12) == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("per_block", [1, 3])
    def test_block_size_does_not_change_output(self, monkeypatch, per_block):
        rng = np.random.default_rng(9)
        trip = {("chr1", 4 * i): CountVector(
                    TRIPLET_SPACE, rng.multinomial(200, rng.dirichlet(
                        np.ones(8)))) for i in range(10)}
        whole = triplet_report(trip, n_boot=40, seed=2)
        monkeypatch.setattr(inference_mod, "_BLOCK_CELLS", per_block * 8 * 40)
        for threads in (1, 2):
            assert triplet_report(trip, n_boot=40, seed=2,
                                  threads=threads) == whole

    def test_pool_is_capped(self, monkeypatch):
        # threads=10**6 must not become 10**6 OS threads: the pool gets at
        # most one worker per CPU and per chunk.  The recording executor
        # starts no thread.
        import concurrent.futures

        made = []

        class Recorder:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            Recorder)
        trip = {("chr1", i): CountVector(TRIPLET_SPACE, [10] * 8)
                for i in range(12)}
        # 2 triplets per chunk: 6 chunks
        monkeypatch.setattr(inference_mod, "_BLOCK_CELLS", 2 * 8 * 20)
        serial = triplet_report(trip, n_boot=20, seed=1, threads=1)
        assert made == []
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 4)
        assert triplet_report(trip, n_boot=20, seed=1,
                              threads=10**6) == serial
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 64)
        assert triplet_report(trip, n_boot=20, seed=1,
                              threads=10**6) == serial
        assert made == [4, 6]

    def test_usable_cpus(self, monkeypatch):
        # the affinity mask counts, not the CPUs of the host; without an
        # affinity call the CPU count, and 1 when that is unknown.  The
        # report keeps no plan or pool of its own.
        assert not hasattr(meth_mod, "_usable_cpus")
        assert not hasattr(meth_mod, "_BLOCK_CELLS")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert inference_mod._usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert inference_mod._usable_cpus() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert inference_mod._usable_cpus() == 1

    def test_empty_mapping(self):
        report = triplet_report({}, n_boot=20, seed=1, threads=2)
        assert report.records == () and report.failures == ()

    def test_every_draw_failing(self):
        # a bad n_boot fails the report once, not each triplet
        trip = extract_triplets(records(*["chr1 0 CCC"] * 100,
                                        *["chr2 0 TTT"] * 100))
        with pytest.raises(ValueError, match="^n_boot must be >= 2$"):
            triplet_report(trip, n_boot=1, seed=6, threads=2)

    def test_row_invariants_random_batch(self):
        # every emitted row: counts at/above threshold, tv and corrected
        # weight in [0,1], sd >= 0, q constant within orbits and summing
        # to 1 (or the all-zero sentinel)
        rng = np.random.default_rng(17)
        lines = []
        for i in range(10):
            law = rng.dirichlet(np.full(8, 0.5))
            counts = rng.multinomial(int(rng.integers(100, 400)), law)
            for config, cnt in enumerate(counts):
                states = "".join("C" if b == "1" else "T"
                                 for b in TRIPLET_SPACE.outcome_str(config))
                lines += [f"chr{i % 2} {i * 5} {states}"] * int(cnt)
        report = triplet_report(extract_triplets(records(*lines)),
                                n_boot=100, seed=18)
        index = TRIPLET_SPACE.orbit_index()
        assert report.records
        for rec in report.records:
            assert sum(rec.counts) >= 100
            assert 0.0 <= rec.tv_dist <= 1.0
            assert 0.0 <= rec.lam_corrected <= 1.0
            assert rec.lam_sd >= 0.0
            q = np.array(rec.q)
            if np.all(q == 0.0):
                continue
            assert abs(q.sum() - 1.0) < 1e-9
            for z in range(index.n_classes):
                members = index.members(z)
                assert np.ptp(q[members]) < 1e-12

    def test_planted_distribution_roundtrip(self, space23):
        # synthesize reads from a known triplet law; counts must match the
        # multinomial exactly and the corrected weight must approach the
        # true weight at high coverage
        rng = np.random.default_rng(11)
        p = np.array([0, 0, 0, 0, 0, 1 / 3, 1 / 3, 1 / 3])
        n = 10**4
        counts = rng.multinomial(n, p)
        lines = []
        for idx, cnt in enumerate(counts):
            states = "".join("C" if b == "1" else "T"
                             for b in TRIPLET_SPACE.outcome_str(idx))
            lines += [f"chr1 0 {states}"] * int(cnt)
        rng.shuffle(lines)
        trip = extract_triplets(records(*lines))
        assert np.array_equal(trip[("chr1", 0)].counts, counts)
        report = triplet_report(trip, n_boot=500, seed=12)
        assert abs(report.records[0].lam_corrected - 1 / 3) <= 0.02


class TestReportTsv:
    def test_roundtrip_and_header(self):
        lines = ["chr1 0 CCC"] * 100 + ["chr1 5 CTC"] * 150
        report = triplet_report(extract_triplets(records(*lines)),
                                n_boot=100, seed=7)
        buf = io.StringIO()
        write_report_tsv(report, buf, meta={"seed": "7"})
        text = buf.getvalue()
        assert text.startswith("# seed=7\n")
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert tuple(header.split("\t")) == REPORT_COLUMNS
        assert len(REPORT_COLUMNS) == 21
        rows = read_report_tsv(io.StringIO(text))
        assert len(rows) == 2
        assert rows[0]["n_111"] == 100

    def test_six_significant_digits(self):
        lines = ["chr1 4 CTC"] * 100 + ["chr1 4 CCT"] * 100 \
            + ["chr1 4 CCC"] * 100
        report = triplet_report(extract_triplets(records(*lines)),
                                n_boot=100, seed=8)
        buf = io.StringIO()
        write_report_tsv(report, buf)
        row = [l for l in buf.getvalue().splitlines()
               if not l.startswith(("#", "chrom"))][0]
        tv_field = row.split("\t")[2]
        assert tv_field == "0.222222"


class TestCorrelate:
    def test_identity_is_perfect_positive(self):
        w = [0.1, 0.2, 0.5, 0.7, 0.9]
        (rep,) = correlate(w, w)
        assert rep.pearson_r == 1.0 and rep.spearman_rho == 1.0
        assert rep.pearson_p == 0.0 and rep.spearman_p == 0.0

    def test_reversed_is_perfect_negative(self):
        w = [0.1, 0.2, 0.5, 0.7, 0.9]
        (rep,) = correlate(w, w[::-1])
        assert rep.spearman_rho == -1.0
        assert rep.pearson_r < -0.9

    def test_constant_group_degenerate(self):
        with pytest.raises(DegenerateGroupError):
            correlate([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateGroupError):
            correlate([0.1, 0.5, 0.9], [2.0, 2.0, 2.0])

    def test_small_group_degenerate(self):
        with pytest.raises(DegenerateGroupError):
            correlate([0.1, 0.2], [1.0, 2.0])

    def test_groups_split(self):
        w = [0.1, 0.2, 0.3, 0.9, 0.8, 0.7]
        x = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        g = ["a", "a", "a", "b", "b", "b"]
        reports = {r.group: r for r in correlate(w, x, g)}
        assert reports["a"].pearson_r == 1.0
        assert reports["b"].pearson_r == -1.0

    def test_against_scipy(self):
        rng = np.random.default_rng(13)
        w = rng.uniform(size=60)
        x = 0.4 * w + rng.normal(size=60) * 0.2
        (rep,) = correlate(w, x)
        r_ref, p_ref = stats.pearsonr(w, x)
        rho_ref, rho_p_ref = stats.spearmanr(w, x)
        assert abs(rep.pearson_r - r_ref) < 1e-12
        assert abs(rep.pearson_p - p_ref) < 1e-9
        assert abs(rep.spearman_rho - rho_ref) < 1e-12
        assert abs(rep.spearman_p - rho_p_ref) < 1e-9
