"""Finite product sample spaces, permutation orbits, and distributions.

The basic objects are:

* :class:`SampleSpace` -- the product space of ``d`` coordinates, each
  taking one of ``k`` symbols ``0..k-1``, enumerated lexicographically.
* :class:`OrbitIndex` -- the partition of the space into permutation
  orbits (outcomes that are coordinate permutations of one another),
  precomputed once so that per-orbit minima cost O(|space|).
* :class:`Distribution` / :class:`CountVector` -- an exact probability
  vector, respectively observed multinomial counts, over the space.

Distributions come in two numeric modes.  The default is float64.  If the
probability vector is built from :class:`fractions.Fraction` entries the
distribution is *exact* and downstream closed-form operations (weights,
decompositions, bounds) stay in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import CountsFileError, EmptySampleError, SpaceTooLargeError

#: Hard default on the number of outcomes we are willing to materialize.
DEFAULT_MAX_OUTCOMES = 2**24

#: Tolerance for float probability vectors summing to one.
NORMALIZATION_ATOL = 1e-12

_SYMBOL_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class SampleSpace:
    """The space of length-``d`` sequences over symbols ``0..k-1``.

    Outcomes are indexed ``0 .. k**d - 1`` in lexicographic order of their
    symbol tuples, i.e. index ``i`` decodes to the base-``k`` digits of
    ``i`` (most significant coordinate first).
    """

    k: int
    d: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"alphabet size k must be >= 2, got {self.k}")
        if self.d < 2:
            raise ValueError(f"dimension d must be >= 2, got {self.d}")

    @property
    def n_outcomes(self) -> int:
        return self.k**self.d

    def decode(self, index: int) -> tuple[int, ...]:
        """Symbol tuple of the outcome with the given lexicographic index."""
        if not 0 <= index < self.n_outcomes:
            raise ValueError(f"outcome index {index} out of range")
        syms = []
        for j in range(self.d - 1, -1, -1):
            syms.append((index // self.k**j) % self.k)
        return tuple(syms)

    def encode(self, outcome: Sequence[int]) -> int:
        """Lexicographic index of a symbol tuple."""
        if len(outcome) != self.d:
            raise ValueError(f"outcome length {len(outcome)} != d={self.d}")
        idx = 0
        for s in outcome:
            s = int(s)
            if not 0 <= s < self.k:
                raise ValueError(f"symbol {s} outside 0..{self.k - 1}")
            idx = idx * self.k + s
        return idx

    def index_of(self, outcome: str | Sequence[int]) -> int:
        """Outcome index from either a symbol tuple or a string like ``'011'``.

        String symbols are the characters ``0-9A-Z`` (so k <= 36).
        """
        if isinstance(outcome, str):
            return self.encode(tuple(_parse_symbol(c) for c in outcome))
        return self.encode(outcome)

    def outcome_str(self, index: int) -> str:
        return "".join(_SYMBOL_CHARS[s] for s in self.decode(index))

    def outcome_matrix(self, max_outcomes: int | None = None) -> np.ndarray:
        """All outcomes as an ``(n_outcomes, d)`` integer matrix, row ``i``
        being the symbol tuple of index ``i``."""
        n = self.check_budget(max_outcomes)
        idx = np.arange(n)
        dtype = np.min_scalar_type(self.k - 1)
        cols = [((idx // self.k**j) % self.k).astype(dtype)
                for j in range(self.d - 1, -1, -1)]
        return np.stack(cols, axis=1)

    def check_budget(self, max_outcomes: int | None = None) -> int:
        """The number of outcomes, once it is known to fit the budget.

        Raises
        ------
        SpaceTooLargeError
            If ``k**d`` exceeds ``max_outcomes`` (default ``2**24``).
        """
        limit = DEFAULT_MAX_OUTCOMES if max_outcomes is None else max_outcomes
        n = self.n_outcomes
        if n > limit:
            raise SpaceTooLargeError(
                f"k^d = {self.k}^{self.d} = {n} exceeds outcome budget {limit}"
            )
        return n

    def orbit_index(self, max_outcomes: int | None = None) -> "OrbitIndex":
        """The (cached) orbit partition of this space."""
        key = (self.k, self.d)
        index = _ORBIT_CACHE.get(key)
        if index is None:
            index = build_orbit_index(self, max_outcomes=max_outcomes)
            _ORBIT_CACHE[key] = index
        return index


_ORBIT_CACHE: dict[tuple[int, int], "OrbitIndex"] = {}


def _parse_symbol(c: str) -> int:
    v = _SYMBOL_CHARS.find(c.upper())
    if v < 0:
        raise ValueError(f"invalid symbol character {c!r}")
    return v


@dataclass(frozen=True)
class OrbitIndex:
    """Partition of a sample space into permutation-equivalence orbits.

    Orbits are numbered ``0 .. n_classes-1`` in lexicographic order of
    their canonical representatives (the sorted symbol tuple shared by all
    members).  ``order`` lists all outcome indices grouped by class and
    ``starts[z]`` is the offset of class ``z`` inside ``order``, so that
    per-class reductions over a probability vector ``p`` are
    ``np.minimum.reduceat(p[order], starts)``.
    """

    space: SampleSpace
    class_of: np.ndarray          # (n_outcomes,) outcome -> class id
    reps: tuple[tuple[int, ...], ...]   # canonical sorted tuple per class
    sizes: np.ndarray             # (n_classes,) orbit sizes
    order: np.ndarray             # outcome indices grouped by class
    starts: np.ndarray            # (n_classes,) offsets into `order`

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    def members(self, z: int) -> np.ndarray:
        """Outcome indices belonging to class ``z`` (ascending)."""
        lo = self.starts[z]
        hi = self.starts[z + 1] if z + 1 < self.n_classes else len(self.order)
        return self.order[lo:hi]

    def class_minima(self, p: np.ndarray) -> np.ndarray:
        """Per-class minimum of a float vector over the space."""
        return np.minimum.reduceat(p[self.order], self.starts)

    def class_minima_rows(self, rows: np.ndarray) -> np.ndarray:
        """Per-class minima along the last axis of a ``(..., n_outcomes)``
        float array."""
        return np.minimum.reduceat(np.take(rows, self.order, axis=-1),
                                   self.starts, axis=-1)


def build_orbit_index(space: SampleSpace,
                      max_outcomes: int | None = None) -> OrbitIndex:
    """Enumerate the permutation orbits of ``space``.

    Raises
    ------
    SpaceTooLargeError
        If ``k**d`` exceeds the outcome budget (default ``2**24``).
    """
    mat = space.outcome_matrix(max_outcomes=max_outcomes)
    sorted_rows = np.sort(mat, axis=1)
    # np.unique sorts rows lexicographically, which is exactly the class
    # numbering we promise (canonical representative order).
    reps_arr, class_of = np.unique(sorted_rows, axis=0, return_inverse=True)
    class_of = class_of.astype(np.int64).ravel()
    sizes = np.bincount(class_of, minlength=len(reps_arr)).astype(np.int64)
    order = np.argsort(class_of, kind="stable").astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    reps = tuple(tuple(int(s) for s in row) for row in reps_arr)
    for arr in (class_of, sizes, order, starts):
        arr.setflags(write=False)
    return OrbitIndex(space=space, class_of=class_of, reps=reps,
                      sizes=sizes, order=order, starts=starts)


class Distribution:
    """A probability vector over a :class:`SampleSpace`.

    Parameters
    ----------
    space : SampleSpace
    p : sequence of floats or Fractions
        Probabilities in outcome-index order.  Must be finite,
        non-negative and sum to one (within ``1e-12`` for floats, exactly
        for Fractions).
        A float ``(n, k**d)`` array is a stack of ``n`` laws, one per
        row; only ``tv_distance_to_exchangeable`` takes stacks.
    """

    __slots__ = ("space", "p", "is_exact")

    def __init__(self, space: SampleSpace, p):
        self.space = space
        exact = _looks_exact(p)
        if exact:
            vec = np.array([_as_fraction(v) for v in p], dtype=object)
            if len(vec) != space.n_outcomes:
                raise ValueError("probability vector has wrong length")
            if any(v < 0 for v in vec):
                raise ValueError("negative probability")
            total = sum(vec)
            if total != 1:
                raise ValueError(f"exact probabilities sum to {total}, not 1")
        else:
            vec = np.asarray(p, dtype=np.float64).copy()
            if vec.ndim not in (1, 2) or vec.shape[-1] != space.n_outcomes:
                raise ValueError("probability vector has wrong length")
            if not np.all(np.isfinite(vec)):
                raise ValueError("probabilities must be finite")
            if np.any(vec < 0):
                raise ValueError("negative probability")
            total = np.atleast_1d(vec.sum(axis=-1))
            off = total[np.abs(total - 1.0) > NORMALIZATION_ATOL]
            if len(off):
                raise ValueError(f"probabilities sum to {float(off[0])}, "
                                 "not 1")
        vec.setflags(write=False)
        self.p = vec
        self.is_exact = exact

    @classmethod
    def uniform(cls, space: SampleSpace, exact: bool = False) -> "Distribution":
        n = space.n_outcomes
        if exact:
            return cls(space, [Fraction(1, n)] * n)
        return cls(space, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, space: SampleSpace, outcome,
                   exact: bool = False) -> "Distribution":
        i = space.index_of(outcome)
        if exact:
            p = [Fraction(0)] * space.n_outcomes
            p[i] = Fraction(1)
            return cls(space, p)
        p = np.zeros(space.n_outcomes)
        p[i] = 1.0
        return cls(space, p)

    @classmethod
    def from_mapping(cls, space: SampleSpace, mapping: Mapping,
                     exact: bool = False) -> "Distribution":
        """Build from ``{outcome: probability}``; unlisted outcomes get 0."""
        if exact:
            p = [Fraction(0)] * space.n_outcomes
            for outcome, prob in mapping.items():
                p[space.index_of(outcome)] = _as_fraction(prob)
            return cls(space, p)
        p = np.zeros(space.n_outcomes)
        for outcome, prob in mapping.items():
            p[space.index_of(outcome)] = float(prob)
        return cls(space, p)

    def as_float(self) -> "Distribution":
        """Float64 copy of this distribution (identity if already float)."""
        if not self.is_exact:
            return self
        return Distribution(self.space, np.array([float(v) for v in self.p]))

    def __getitem__(self, outcome):
        return self.p[self.space.index_of(outcome)
                      if not isinstance(outcome, (int, np.integer)) else outcome]

    def __repr__(self):
        mode = "exact" if self.is_exact else "float"
        return (f"Distribution(k={self.space.k}, d={self.space.d}, "
                f"{mode}, p={list(self.p)!r})")


def _looks_exact(p) -> bool:
    if isinstance(p, np.ndarray) and p.dtype != object:
        return False
    return any(isinstance(v, Fraction) for v in p)


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    raise ValueError(f"exact mode requires Fraction/int entries, got {type(v)}")


class CountVector:
    """Observed multinomial counts over a sample space; an ``(n, k**d)``
    array is a stack of ``n`` samples, which only ``estimate`` takes."""

    __slots__ = ("space", "counts")

    def __init__(self, space: SampleSpace, counts):
        arr = np.asarray(counts)
        if arr.ndim not in (1, 2) or arr.shape[-1] != space.n_outcomes:
            raise ValueError("count vector has wrong length")
        if not np.issubdtype(arr.dtype, np.integer):
            raised = arr.astype(np.int64)
            if not np.array_equal(raised, arr):
                raise ValueError("counts must be integers")
            arr = raised
        if np.any(arr < 0):
            raise ValueError("negative count")
        arr = arr.astype(np.int64).copy()
        arr.setflags(write=False)
        self.space = space
        self.counts = arr

    @property
    def n(self):
        """The sample size (of each row, for a stack)."""
        total = self.counts.sum(axis=-1)
        return int(total) if total.ndim == 0 else total

    @classmethod
    def from_mapping(cls, space: SampleSpace, mapping: Mapping) -> "CountVector":
        c = np.zeros(space.n_outcomes, dtype=np.int64)
        for outcome, count in mapping.items():
            c[space.index_of(outcome)] = int(count)
        return cls(space, c)

    def __repr__(self):
        return (f"CountVector(k={self.space.k}, d={self.space.d}, "
                f"n={self.n})")


def empirical_distribution(c: CountVector, exact: bool = False) -> Distribution:
    """The empirical measure ``counts / n``.

    Raises
    ------
    EmptySampleError
        If the total count is zero.
    """
    n = c.n
    if n == 0:
        raise EmptySampleError("cannot normalize an empty sample")
    if exact:
        return Distribution(c.space,
                            [Fraction(int(v), n) for v in c.counts])
    return Distribution(c.space, c.counts / n)


# ---------------------------------------------------------------------------
# Counts file I/O.
#
# Format: TSV with a header line naming exactly the columns `outcome` and
# `count`.  `outcome` is a symbol string such as `011`; unlisted outcomes
# default to count 0; listing an outcome twice is an error.
# ---------------------------------------------------------------------------

def read_counts(source: str | IO[str], k: int | None = None) -> CountVector:
    """Read a counts TSV file into a :class:`CountVector`.

    ``k`` overrides alphabet-size inference (by default the smallest
    alphabet containing every symbol seen, and at least 2).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return read_counts(fh, k=k)
    rows: list[tuple[str, int]] = []
    header: list[str] | None = None
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if header is None:
            header = [f.strip() for f in fields]
            if header != ["outcome", "count"]:
                raise CountsFileError(
                    f"line {line_no}: header must be 'outcome<TAB>count', "
                    f"got {header}")
            continue
        if len(fields) != 2:
            raise CountsFileError(f"line {line_no}: expected 2 fields, "
                                  f"got {len(fields)}")
        outcome, count_s = fields[0].strip(), fields[1].strip()
        try:
            count = int(count_s)
        except ValueError:
            raise CountsFileError(
                f"line {line_no}: count {count_s!r} is not an integer")
        if count < 0:
            raise CountsFileError(f"line {line_no}: negative count {count}")
        rows.append((outcome, count))
    if header is None or not rows:
        raise CountsFileError("counts file has no data rows")

    lengths = {len(o) for o, _ in rows}
    if len(lengths) != 1:
        raise CountsFileError(f"inconsistent outcome lengths {sorted(lengths)}")
    d = lengths.pop()
    try:
        symbol_rows = [tuple(_parse_symbol(c) for c in o) for o, _ in rows]
    except ValueError as exc:
        raise CountsFileError(str(exc))
    max_sym = max(max(r) for r in symbol_rows)
    inferred_k = max(max_sym + 1, 2)
    if k is None:
        k = inferred_k
    elif k < inferred_k:
        raise CountsFileError(
            f"k={k} too small for symbols in file (need >= {inferred_k})")
    space = SampleSpace(k=k, d=d)

    counts = np.zeros(space.check_budget(), dtype=np.int64)
    seen: set[int] = set()
    for (outcome, count), syms in zip(rows, symbol_rows):
        idx = space.encode(syms)
        if idx in seen:
            raise CountsFileError(f"duplicate outcome row {outcome!r}")
        seen.add(idx)
        counts[idx] = count
    return CountVector(space, counts)


def write_counts(c: CountVector, target: str | IO[str]) -> None:
    """Write a counts TSV (all outcomes, including zero counts)."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            write_counts(c, fh)
        return
    target.write("outcome\tcount\n")
    for i in range(c.space.n_outcomes):
        target.write(f"{c.space.outcome_str(i)}\t{int(c.counts[i])}\n")
