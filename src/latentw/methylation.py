"""Epiread ingestion, CpG-triplet extraction, and per-triplet reports.

Epiread lines are whitespace-separated ``chrom  start_cpg  states`` where
``start_cpg`` is the ordinal index of the first CpG covered by the read
and ``states`` is a string over {C, T, N}: C = methylated, T =
unmethylated, N = ambiguous.  Lines are parsed a block at a time: each
block's field counts, starts and states are checked in bulk, and a block
that fails is checked line by line, so an error names its line.  Records
stream from the parser into the extraction, which keeps only the columns
of a bounded chunk of reads, never a list of records.

Every window of three consecutive CpG ordinals fully covered by a read
with no N in those three positions contributes one observation of a
binary triplet configuration (C -> 1, T -> 0).  Triplets jointly covered
by at least ``min_coverage`` such observations get a 21-field report
row: exchangeability estimates, configuration counts, and the
exchangeable component.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateGroupError, EpireadParseError
# The report does not call decompose; the benchmark's tracer wraps it here.
from .exchangeable import (decompose, exchangeable_component_rows,  # noqa: F401
                           tv_distance_to_exchangeable)
from .inference import WeightEstimate, estimate
from .space import (_IS_SPACE, CountVector, SampleSpace,
                    empirical_distribution, utf8_error, utf8_lines)

TRIPLET_SPACE = SampleSpace(k=2, d=3)
CONFIGS = tuple(TRIPLET_SPACE.outcome_str(i) for i in range(8))  # 000..111

REPORT_COLUMNS = (
    ("chrom", "index", "tv_dist", "lambda_corrected", "lambda_sd")
    + tuple(f"n_{c}" for c in CONFIGS)
    + tuple(f"q_{c}" for c in CONFIGS)
)

#: Lines of an epiread stream checked in one bulk pass of
#: :func:`parse_epireads`.
_BLOCK_LINES = 2**14

#: Reads taken into one numpy pass of :func:`extract_triplets`; bounds the
#: memory of the pass whatever the input size.
_CHUNK_READS = 2**14

#: A window's key packs (chromosome id, first CpG, configuration) into one
#: int64: 3 bits of configuration, 36 of CpG index and 24 of chromosome id.
_POS_BITS = 36
_CHROM_BITS = 24
MAX_CPG_INDEX = 2**_POS_BITS - 1

#: State codes: T = 0 and C = 1 are the configuration bits; N = 8 makes
#: the window sum ``4a + 2b + c`` at least 8, so ``config < 8`` means "no
#: N".  Every other byte is invalid.
_INVALID_CODE = 255
_STATE_CODES = np.full(256, _INVALID_CODE, dtype=np.uint8)
_STATE_CODES[[ord("T"), ord("C"), ord("N")]] = (0, 1, 8)

_DROP_STATES = str.maketrans("", "", "CTN")


class EpireadRecord(NamedTuple):
    chrom: str
    start_cpg: int
    states: str


def parse_epireads(stream: Iterable[str]) -> Iterator[EpireadRecord]:
    """Yield validated epiread records from a line iterator.

    Lines are read ``_BLOCK_LINES`` at a time and each block is checked
    in bulk; a block that fails a check is checked again line by line,
    so its records up to the first bad line are yielded and that line
    raises.  Fields are separated by the characters ``str.split()``
    splits on, and blank lines are skipped.  A malformed line, or one
    that is not UTF-8 text (a lone surrogate, as a file's undecodable
    bytes become under the ``surrogateescape`` error handler), raises
    :class:`EpireadParseError` carrying the 1-based line number.
    """
    lines = iter(stream)
    line_no = 1
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        records = _block_records(block)
        if records is None:
            records = filter(None, map(_check_line, itertools.count(line_no),
                                       block))
        yield from records
        line_no += len(block)


def _block_records(block: list[str]) -> Iterator[EpireadRecord] | None:
    """Records of a block of lines, or None if some line of it is bad.

    The lines are joined with a newline after each, so each line owns
    the code points from its start to the end of its newline: its field
    count is the number of non-space code points there that follow a
    space (or start the block).
    """
    text = "\n".join(block) + "\n"
    try:
        points = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    except UnicodeEncodeError:                  # a lone surrogate
        return None
    space = np.take(_IS_SPACE, points, mode="clip")
    first = ~space
    first[1:] &= space[:-1]
    span = np.fromiter(map(len, block), dtype=np.int64, count=len(block)) + 1
    fields = np.add.reduceat(first, np.cumsum(span) - span, dtype=np.int64)
    if np.any((fields != 3) & (fields != 0)):
        return None
    tokens = text.split()
    chroms, states = tokens[0::3], tokens[2::3]
    try:
        starts = list(map(int, tokens[1::3]))
        start = np.array(starts, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    length = np.fromiter(map(len, states), dtype=np.int64, count=len(states))
    if (np.any((start < 0) | (start > MAX_CPG_INDEX + 1 - length))
            or "".join(states).translate(_DROP_STATES)):
        return None
    return map(tuple.__new__, itertools.repeat(EpireadRecord),
               zip(chroms, starts, states))


def _check_line(line_no: int, raw: str) -> EpireadRecord | None:
    """The record of one line, or None for a blank line; raises
    :class:`EpireadParseError` naming the first thing wrong with it."""
    if bad := utf8_error(raw):
        raise EpireadParseError(line_no, bad)
    fields = raw.split()
    if not fields:
        return None
    if len(fields) != 3:
        raise EpireadParseError(line_no,
                                f"expected 3 fields, got {len(fields)}")
    chrom, start_s, states = fields
    try:
        start = int(start_s)
    except ValueError:
        raise EpireadParseError(line_no,
                                f"start index {start_s!r} is not an integer")
    if start < 0:
        raise EpireadParseError(line_no, f"negative start index {start}")
    if start + len(states) - 1 > MAX_CPG_INDEX:
        raise EpireadParseError(
            line_no, f"read at start index {start} runs past the largest "
                     f"supported CpG index {MAX_CPG_INDEX}")
    bad = states.translate(_DROP_STATES)
    if bad:
        raise EpireadParseError(line_no, "states contain invalid "
                                f"characters {sorted(set(bad))}")
    return EpireadRecord(chrom, start, states)


def parse_epiread_file(path: str) -> Iterator[EpireadRecord]:
    """Records of one epiread file; a parse error names the file.  Bytes
    that are not UTF-8 fail as a parse error of their line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            yield from parse_epireads(fh)
        except EpireadParseError as exc:
            raise EpireadParseError(exc.line_number, exc.reason,
                                    path=path) from None


def extract_triplets(records: Iterable[EpireadRecord],
                     coverage_threshold: int = 100,
                     ) -> dict[tuple[str, int], CountVector]:
    """Aggregate per-triplet configuration counts from reads.

    Every window of three consecutive CpG ordinals (i, i+1, i+2) within
    one chromosome picks up one count from each read that covers all
    three positions with no ambiguous (N) state among them; overlapping
    windows of a long read all count.  Only triplets with total coverage
    at or above the threshold are returned.

    Reads are consumed ``_CHUNK_READS`` at a time, and each record is
    taken apart as it arrives: its chromosome id, start and states go
    into the chunk's columns, so no list of records is held.  Each chunk
    is reduced in numpy to sorted unique window keys with counts, and at
    the end one stable sort merges the parts into one table of counts
    per covered triplet.

    Raises
    ------
    ValueError
        If a record's states hold a character other than C, T and N, a
        CpG index is negative or above :data:`MAX_CPG_INDEX`, or there
        are more than ``2**24`` chromosome names.
    """
    chrom_ids: dict[str, int] = {}
    chrom_id = chrom_ids.setdefault
    key_parts, count_parts = [], []
    reads = iter(records)
    while True:
        ids, starts, states = array("q"), [], []
        add_id, add_start, add_states = (ids.append, starts.append,
                                         states.append)
        for chrom, start, read_states in itertools.islice(reads, _CHUNK_READS):
            add_id(chrom_id(chrom, len(chrom_ids)))
            add_start(start)
            add_states(read_states)
        if not starts:
            break
        if len(chrom_ids) > 2**_CHROM_BITS:
            raise ValueError(f"more than {2**_CHROM_BITS} chromosome names")
        keys, counts = np.unique(_window_keys(ids, starts, states),
                                 return_counts=True)
        key_parts.append(keys)
        count_parts.append(counts)
    if not key_parts:
        return {}

    # The parts are sorted runs, which a stable sort merges; a triplet's
    # keys then sit together, and its row starts where ``keys >> 3`` does.
    keys = np.concatenate(key_parts)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:] >> 3, keys[:-1] >> 3, out=first[1:])
    triplets = keys[first] >> 3
    table = np.zeros((len(triplets), 8), dtype=np.int64)
    np.add.at(table.reshape(-1), (np.cumsum(first) - 1) * 8 + (keys & 7),
              np.concatenate(count_parts)[order])
    keep = table.sum(axis=1) >= coverage_threshold

    names = list(chrom_ids)
    kept = triplets[keep]
    return {
        (names[c], pos): CountVector(TRIPLET_SPACE, bins)
        for c, pos, bins in zip((kept >> _POS_BITS).tolist(),
                                (kept & MAX_CPG_INDEX).tolist(), table[keep])
    }


def _window_keys(ids: array, starts: list[int],
                 states: list[str]) -> np.ndarray:
    """Packed ``(chrom id, first CpG, config)`` keys of the valid windows
    of a chunk of reads, given as the columns of their chromosome ids
    (``array('q')``), starts and states.

    The states are joined with an ``N`` after every read, so a window
    that spans two reads holds an ``N`` and is dropped with the windows
    that hold an ambiguous state.
    """
    if min(starts) < 0 or max(starts) > MAX_CPG_INDEX:
        raise ValueError(f"start index outside the CpG index range "
                         f"[0, {MAX_CPG_INDEX}]")
    joined = ("N".join(states) + "N").encode("ascii", "replace")
    codes = _STATE_CODES[np.frombuffer(joined, dtype=np.uint8)]
    if np.any(codes == _INVALID_CODE):
        raise ValueError("states contain characters other than C, T and N")
    span = np.fromiter(map(len, states), dtype=np.int64,
                       count=len(states)) + 1     # states and the separator
    start = np.array(starts, dtype=np.int64)
    if np.any(start + span - 2 > MAX_CPG_INDEX):
        raise ValueError(f"a read runs past CpG index {MAX_CPG_INDEX}")

    config = 4 * codes[:-2] + 2 * codes[1:-1] + codes[2:]
    valid = np.flatnonzero(config < 8)
    # key of the window at joined offset i of read r:
    # (id << 39) + ((start[r] + i - first[r]) << 3) + config
    first = np.cumsum(span) - span
    base = ((np.frombuffer(ids, dtype=np.int64) << (_POS_BITS + 3))
            + ((start - first) << 3))
    return (np.repeat(base, span)[valid] + (valid << 3)
            + config[valid].astype(np.int64))


@dataclass(frozen=True)
class TripletRecord:
    """One report row; the 21 fields in column order are ``chrom``,
    ``index``, ``tv_dist``, ``lam_corrected``, ``lam_sd``, eight
    configuration counts (000..111) and the eight exchangeable-component
    probabilities (all zero when the plug-in weight is 0)."""

    chrom: str
    index: int
    tv_dist: float
    lam_corrected: float
    lam_sd: float
    counts: tuple[int, ...]
    q: tuple[float, ...]


@dataclass(frozen=True)
class TripletFailure:
    chrom: str
    index: int
    error: str


@dataclass(frozen=True)
class TripletReport:
    records: tuple[TripletRecord, ...]
    failures: tuple[TripletFailure, ...]


def _triplet_row(c: CountVector, n_boot: int,
                 seeds: Sequence[np.random.SeedSequence],
                 threads: int | None) -> WeightEstimate:
    """:func:`estimate` of the report's stack of triplets, each drawing its
    resamples from its own stream, on at most ``threads`` workers."""
    return estimate(c, n_boot=n_boot, seed=seeds, threads=threads)


def triplet_report(triplets: Mapping[tuple[str, int], CountVector],
                   n_boot: int = 1000, seed=0, threads: int = 1,
                   ) -> TripletReport:
    """Run per-triplet estimation and assemble report rows.

    Rows come out sorted by ``(chrom, index)``; each triplet gets its own
    RNG stream spawned from the master seed in that sorted order, so the
    output is identical whatever the thread count.  A triplet with no
    observation is recorded as a failure entry instead of a row.

    All other triplets are estimated as one stack, whose draws run on at
    most ``threads`` workers (see :func:`estimate`); their exchangeable
    components and TV distances are computed on the same stack.

    Raises
    ------
    ValueError
        If ``n_boot`` is below 2 and some triplet has an observation.
    """
    keys = sorted(triplets.keys())
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    children = root.spawn(len(keys))
    counts = np.array([triplets[key].counts for key in keys],
                      dtype=np.int64).reshape(len(keys), len(CONFIGS))
    seen = counts.sum(axis=1) > 0
    failures = tuple(
        TripletFailure(chrom=chrom, index=index, error="EmptySampleError: "
                       "cannot estimate from an empty sample")
        for (chrom, index), kept in zip(keys, seen) if not kept)
    if not seen.any():
        return TripletReport(records=(), failures=failures)

    stack = CountVector(TRIPLET_SPACE, counts[seen])
    est = _triplet_row(stack, n_boot, list(itertools.compress(children, seen)),
                       threads)
    tv, _ = tv_distance_to_exchangeable(empirical_distribution(stack))
    _, q, _ = exchangeable_component_rows(TRIPLET_SPACE, stack.counts)
    rows = zip(itertools.compress(keys, seen), tv.tolist(),
               est.lambda_corrected.tolist(), est.se_boot.tolist(),
               stack.counts.tolist(), q.tolist())
    records = tuple(
        TripletRecord(chrom=key[0], index=key[1], tv_dist=t,
                      lam_corrected=lc, lam_sd=s, counts=tuple(c),
                      q=tuple(qs))
        for key, t, lc, s, c, qs in rows)
    return TripletReport(records=records, failures=failures)


def write_report_tsv(report: TripletReport, target: str | IO[str],
                     meta: Mapping[str, str] | None = None) -> None:
    """Write report rows as TSV: optional ``# key=value`` metadata
    comments, a header naming all 21 columns, floats at 6 significant
    digits."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            write_report_tsv(report, fh, meta=meta)
        return
    for key, value in (meta or {}).items():
        target.write(f"# {key}={value}\n")
    target.write("\t".join(REPORT_COLUMNS) + "\n")
    for rec in report.records:
        parts = [rec.chrom, str(rec.index), _fmt(rec.tv_dist),
                 _fmt(rec.lam_corrected), _fmt(rec.lam_sd)]
        parts.extend(str(v) for v in rec.counts)
        parts.extend(_fmt(v) for v in rec.q)
        target.write("\t".join(parts) + "\n")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def read_report_tsv(source: str | IO[str]) -> list[dict]:
    """Read back a report TSV as a list of column dicts (numbers parsed).

    Raises
    ------
    ValueError
        If the header is not the 21 report columns, or a row, named as
        ``report line N``, has another field count, a count or index that
        is not an integer, another number field that is not a number, or
        (read from a path) bytes that are not UTF-8.
    """
    lines = (utf8_lines(source, "report") if isinstance(source, str)
             else enumerate(source, start=1))
    rows = []
    header: list[str] | None = None
    for line_no, raw in lines:
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if header is None:
            header = fields
            if tuple(header) != REPORT_COLUMNS:
                raise ValueError(f"unexpected report header {header}")
            continue
        at = f"report line {line_no}"
        if len(fields) != len(REPORT_COLUMNS):
            raise ValueError(f"{at}: expected {len(REPORT_COLUMNS)} fields, "
                             f"got {len(fields)}")
        row: dict = {"chrom": fields[0]}
        for name, val in zip(REPORT_COLUMNS[1:], fields[1:]):
            exact = name == "index" or name.startswith("n_")
            try:
                row[name] = int(val) if exact else float(val)
            except ValueError:
                raise ValueError(f"{at}: {name} {val!r} is not "
                                 f"{'an integer' if exact else 'a number'}"
                                 ) from None
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Correlation of triplet exchangeability against a numeric covariate.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    group: str
    n: int
    pearson_r: float
    pearson_p: float
    spearman_rho: float
    spearman_p: float


def correlate(weights: Sequence[float], covariate: Sequence[float],
              groups: Sequence | None = None) -> list[CorrelationReport]:
    """Per-group Pearson and Spearman correlation with two-sided tests.

    The Pearson test is the Wald t-test ``t = r*sqrt((m-2)/(1-r^2))``
    against a t distribution with ``m-2`` degrees of freedom; the
    Spearman test applies the same statistic to rank-transformed data.

    Raises
    ------
    DegenerateGroupError
        If either variable is constant within a group (< 3 points also
        counts as degenerate: no test is possible).
    """
    from scipy import stats

    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(covariate, dtype=np.float64)
    if w.shape != x.shape:
        raise ValueError("weights and covariate must have equal length")
    if groups is None:
        key_arr = np.array(["all"] * len(w))
    else:
        key_arr = np.asarray([str(g) for g in groups])
        if key_arr.shape != w.shape:
            raise ValueError("groups must match weights in length")

    out = []
    for key in sorted(set(key_arr.tolist())):
        mask = key_arr == key
        wg, xg = w[mask], x[mask]
        m = len(wg)
        if m < 3:
            raise DegenerateGroupError(
                f"group {key!r} has {m} < 3 observations")
        if np.ptp(wg) == 0.0 or np.ptp(xg) == 0.0:
            raise DegenerateGroupError(
                f"group {key!r} has a constant variable")
        r, r_p = _corr_t_test(wg, xg, m)
        rho, rho_p = _corr_t_test(stats.rankdata(wg), stats.rankdata(xg), m)
        out.append(CorrelationReport(group=key, n=m, pearson_r=r,
                                     pearson_p=r_p, spearman_rho=rho,
                                     spearman_p=rho_p))
    return out


def _corr_t_test(a: np.ndarray, b: np.ndarray, m: int) -> tuple[float, float]:
    from scipy import stats

    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a @ a) * (b @ b))
    r = float(np.clip((a @ b) / denom, -1.0, 1.0))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * np.sqrt((m - 2) / (1.0 - r * r))
    p = float(2.0 * stats.t.sf(abs(t), df=m - 2))
    return r, min(p, 1.0)
