"""Seeded input files for the perfbench workloads, with their oracles.

This module does not import latentw: the program under test receives
only the files written here, and the expected results come from an
independent tally made while the files are generated.

* Epiread files (``meth-deep``, ``meth-shallow``): reads of 3-11 CpGs,
  about 1/6 of the states ``N``.  While the reads are drawn, every
  window of three consecutive CpGs with no ``N`` is tallied into its
  ``n_000..n_111`` counts, so the triplets that reach the coverage
  threshold, and their counts, are known before the program runs.
* Counts tables (``count-tables``): Dirichlet(1)-multinomial samples,
  one TSV per ``(k, d)``, all ``k**d`` outcomes listed.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

MIN_COVERAGE = 100
MAX_READ_CPGS = 11
N_FRACTION = 1.0 / 6.0

#: Epiread shapes.  ``hot_spots`` reads share a few start positions so
#: that, on a sparse file, some triplets still reach the threshold.
EPIREAD_SHAPES = {
    "full": {
        "meth-deep": dict(chroms=3, positions=400, reads=60_000,
                          hot_spots=0, hot_fraction=0.0),
        "meth-shallow": dict(chroms=3, positions=60_000, reads=300_000,
                             hot_spots=40, hot_fraction=0.10),
    },
    "tiny": {
        "meth-deep": dict(chroms=2, positions=12, reads=1_500,
                          hot_spots=0, hot_fraction=0.0),
        "meth-shallow": dict(chroms=2, positions=3_000, reads=6_000,
                             hot_spots=2, hot_fraction=0.10),
    },
}

#: (k, d) of the tables that tv, estimate and decompose --exact run on.
TABLE_SPACES = {
    "full": ((2, 3), (4, 4), (3, 6), (2, 10), (4, 6)),
    "tiny": ((2, 3), (3, 3)),
}
#: (k, d) of the tables that classweight runs on (iid and product class).
CLASS_SPACES = {
    "full": ((2, 3), (3, 2), (2, 5)),
    "tiny": ((2, 3),),
}

_SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def outcome_str(index: int, k: int, d: int) -> str:
    digits = []
    for _ in range(d):
        index, r = divmod(index, k)
        digits.append(_SYMBOLS[r])
    return "".join(reversed(digits))


def write_epireads(path: str, seed_seq: np.random.SeedSequence, chroms: int,
                   positions: int, reads: int, hot_spots: int,
                   hot_fraction: float) -> dict:
    """Write an epiread file and return its oracle.

    Methylation follows a per-CpG level drawn from Beta(1/2, 1/2); half
    of the reads are concordant (one uniform draw decides every CpG of
    the read), the other half draw each CpG independently, so triplet
    laws range from exchangeable to far from it.
    """
    rng = np.random.default_rng(seed_seq)
    span = positions + MAX_READ_CPGS
    chrom = rng.integers(0, chroms, reads)
    start = rng.integers(0, positions, reads)
    n_hot = int(round(hot_fraction * reads))
    if n_hot:
        # Hot spots sit on a regular grid, far enough apart that their
        # triplets never overlap.
        gap = positions // hot_spots
        spot = rng.integers(0, hot_spots, n_hot)
        chrom[:n_hot] = spot % chroms
        start[:n_hot] = (spot * gap + gap // 2 + rng.integers(0, 3, n_hot))
    length = rng.integers(3, MAX_READ_CPGS + 1, reads)

    level = rng.beta(0.5, 0.5, size=(chroms, span))
    cpg = start[:, None] + np.arange(MAX_READ_CPGS)
    concordant = rng.random(reads) < 0.5
    u = np.where(concordant[:, None], rng.random(reads)[:, None],
                 rng.random((reads, MAX_READ_CPGS)))
    codes = (u < level[chrom[:, None], cpg]).astype(np.int64)   # T=0, C=1
    codes[rng.random((reads, MAX_READ_CPGS)) < N_FRACTION] = 2   # N

    order = np.lexsort((start, chrom))
    chrom, start, length, codes = (chrom[order], start[order], length[order],
                                   codes[order])

    # Oracle: per (chrom, window start) counts of the 8 configurations.
    tally = np.zeros(chroms * span * 8, dtype=np.int64)
    for off in range(MAX_READ_CPGS - 2):
        win = codes[:, off:off + 3]
        ok = (off + 3 <= length) & np.all(win != 2, axis=1)
        config = win[:, 0] * 4 + win[:, 1] * 2 + win[:, 2]
        key = (chrom * span + start + off) * 8 + config
        tally += np.bincount(key[ok], minlength=tally.size)
    tally = tally.reshape(chroms * span, 8)
    coverage = tally.sum(axis=1)
    kept = np.flatnonzero(coverage >= MIN_COVERAGE)
    expected = {f"chr{c // span + 1}\t{c % span}": tally[c].tolist()
                for c in kept.tolist()}

    letters = np.frombuffer(b"TCN", dtype=np.uint8)[codes].tobytes()
    width = MAX_READ_CPGS
    with open(path, "w", encoding="ascii") as fh:
        for i, (c, s, n) in enumerate(zip(chrom.tolist(), start.tolist(),
                                          length.tolist())):
            states = letters[i * width:i * width + n].decode()
            fh.write(f"chr{c + 1}\t{s}\t{states}\n")
    return {
        "reads": reads,
        "bytes": os.path.getsize(path),
        "triplets_covered": int(np.count_nonzero(coverage)),
        "triplets": expected,
    }


def write_counts_table(path: str, seed_seq: np.random.SeedSequence, k: int,
                       d: int) -> dict:
    """Write a Dirichlet(1)-multinomial counts TSV and return its oracle."""
    rng = np.random.default_rng(seed_seq)
    n_out = k**d
    n = max(1000, 50 * n_out)
    counts = rng.multinomial(n, rng.dirichlet(np.ones(n_out)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("outcome\tcount\n")
        for i, c in enumerate(counts.tolist()):
            fh.write(f"{outcome_str(i, k, d)}\t{c}\n")
    return {"k": k, "d": d, "path": path, "counts": counts.tolist()}


def generate(workload: str, seed: int, size: str, out_dir: str) -> dict:
    """Write the input files of ``workload`` into ``out_dir``.

    Returns the oracle: the file paths the program is given and the
    results expected of it.  The same seed gives the same bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    # The workload name enters the seed, so two workloads with one seed differ.
    root = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    if workload.startswith("meth-"):
        path = os.path.join(out_dir, f"{workload}.epiread")
        shape = EPIREAD_SHAPES[size][workload]
        oracle = write_epireads(path, root, **shape)
        oracle["path"] = path
        return {"epireads": oracle}
    spaces = TABLE_SPACES[size]
    cls_spaces = CLASS_SPACES[size]
    all_spaces = sorted(set(spaces) | set(cls_spaces), key=lambda s: s[0]**s[1])
    children = dict(zip(all_spaces, root.spawn(len(all_spaces))))
    tables = {}
    for k, d in all_spaces:
        name = f"k{k}d{d}"
        tables[name] = write_counts_table(
            os.path.join(out_dir, f"{name}.tsv"), children[(k, d)], k, d)
    return {
        "tables": tables,
        "table_names": [f"k{k}d{d}" for k, d in spaces],
        "class_names": [f"k{k}d{d}" for k, d in cls_spaces],
    }
