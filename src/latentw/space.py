"""Finite product sample spaces, permutation orbits, and distributions.

The basic objects are:

* :class:`SampleSpace` -- the product space of ``d`` coordinates, each
  taking one of ``k`` symbols ``0..k-1``, enumerated lexicographically.
* :class:`OrbitIndex` -- the partition of the space into permutation
  orbits (outcomes that are coordinate permutations of one another),
  precomputed once so that per-orbit minima cost O(|space|).
* :class:`Distribution` / :class:`CountVector` -- a probability law,
  respectively observed multinomial counts, over the space.

A distribution keeps its law as numerators over one denominator, and the
closed forms downstream (weights, decompositions, bounds, the TV
projection) divide once, through :func:`ratio`: an *exact* law gets
Fractions back, any other law the correctly rounded floats.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import CountsFileError, EmptySampleError, SpaceTooLargeError

#: The most outcomes we are willing to materialize.
DEFAULT_MAX_OUTCOMES = 2**24

#: Tolerance for float probability vectors summing to one.
NORMALIZATION_ATOL = 1e-12

#: Counts and their totals stay below this bound.  Integers below it are
#: exact in float64, so numpy divides them correctly rounded.
MAX_COUNT = 2**53

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

    def outcome_matrix(self) -> np.ndarray:
        """All outcomes as an ``(n_outcomes, d)`` integer matrix, row ``i``
        being the symbol tuple of index ``i``."""
        n = self.check_budget()
        idx = np.arange(n)
        dtype = np.min_scalar_type(self.k - 1)
        cols = [((idx // self.k**j) % self.k).astype(dtype)
                for j in range(self.d - 1, -1, -1)]
        return np.stack(cols, axis=1)

    def check_budget(self) -> int:
        """The number of outcomes, once it is known to fit the budget.

        Raises
        ------
        SpaceTooLargeError
            If ``k**d`` exceeds ``DEFAULT_MAX_OUTCOMES`` (``2**24``).
        """
        # k**d >= 2**(d * floor(log2 k)): past 1024 bits it is not formed
        if self.d * (int(self.k).bit_length() - 1) > 1024:
            raise SpaceTooLargeError(f"k^d = {self.k}^{self.d} exceeds "
                                     f"outcome budget {DEFAULT_MAX_OUTCOMES}")
        n = self.n_outcomes
        if n > DEFAULT_MAX_OUTCOMES:
            raise SpaceTooLargeError(f"k^d = {self.k}^{self.d} = {n} exceeds "
                                     f"outcome budget {DEFAULT_MAX_OUTCOMES}")
        return n

    def orbit_index(self) -> "OrbitIndex":
        """The (cached) orbit partition of this space."""
        key = (self.k, self.d)
        index = _ORBIT_CACHE.get(key)
        if index is None:
            index = build_orbit_index(self)
            _ORBIT_CACHE[key] = index
        return index


_ORBIT_CACHE: dict[tuple[int, int], "OrbitIndex"] = {}


def _parse_symbol(c: str) -> int:
    v = _SYMBOL_CHARS.find(c.upper())
    if v < 0:
        raise ValueError(f"invalid symbol character {c!r}")
    return v


#: The symbol of each code point below 128, -1 for none; index 128 stands
#: for every code point above.
_ASCII_SYMBOLS = np.full(129, -1, dtype=np.int8)
_ASCII_SYMBOLS[[ord(c) for c in _SYMBOL_CHARS + _SYMBOL_CHARS.lower()]] = (
    np.arange(72) % 36)


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

    def class_minima_rows(self, rows: np.ndarray) -> np.ndarray:
        """Per-class minima along the last axis of a ``(..., n_outcomes)``
        array (of ints, Python ints or floats)."""
        return np.minimum.reduceat(np.take(rows, self.order, axis=-1),
                                   self.starts, axis=-1)


def build_orbit_index(space: SampleSpace) -> OrbitIndex:
    """Enumerate the permutation orbits of ``space``.

    Raises
    ------
    SpaceTooLargeError
        If ``k**d`` exceeds the outcome budget (``2**24``).
    """
    mat = space.outcome_matrix()
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


def ratio(num, den, exact: bool = False):
    """``num / den`` elementwise, divided once: Fractions when ``exact``
    and both are integers, the correctly rounded floats otherwise.

    Both are non-negative.  Integers are numpy ints or Python ints (object
    arrays).  numpy divides integers below ``2**53`` correctly rounded, as
    float64 holds them exactly; larger ones are divided as Python ints,
    which round correctly at any size.  A float operand, such as a float
    law's values, gives floats.
    """
    num, den = np.asarray(num), np.asarray(den)
    ints = num.dtype.kind in "iuO" and den.dtype.kind in "iuO"
    if exact and ints:
        num, den = np.broadcast_arrays(num, den)
        out = np.array([Fraction(int(a), int(b))
                        for a, b in zip(num.flat, den.flat)],
                       dtype=object).reshape(num.shape)
    else:
        if ints and max(num.max(initial=0), den.max(initial=0)) >= MAX_COUNT:
            num, den = num.astype(object), den.astype(object)
        out = np.asarray(num / den, dtype=np.float64)
    return out.item() if out.ndim == 0 else out


class Distribution:
    """A probability law over a :class:`SampleSpace`.

    Parameters
    ----------
    space : SampleSpace
    p : sequence of floats or Fractions
        Probabilities in outcome-index order.  Must be finite,
        non-negative and sum to one (within ``1e-12`` for floats, exactly
        for Fractions).  Fraction entries make an exact law.

    The law is kept as numerators ``num`` over one denominator ``den``:
    Python ints over their common denominator for Fractions, float64
    values over 1 for floats, and counts over the sample size for
    :func:`empirical_distribution`, the only source of a stack of laws
    (``(n, k**d)`` counts over ``(n,)`` totals).  ``p`` holds the
    probabilities, divided by :func:`ratio`.
    """

    __slots__ = ("space", "num", "den", "is_exact", "_p")

    def __init__(self, space: SampleSpace, p):
        exact = _looks_exact(p)
        if exact:
            fracs = [_as_fraction(v) for v in p]
            den = math.lcm(*(f.denominator for f in fracs))
            num = np.array([f.numerator * (den // f.denominator)
                            for f in fracs], dtype=object)
            total = Fraction(sum(num), den)
        else:
            num, den = np.array(p, dtype=np.float64), 1
            if not np.all(np.isfinite(num)):
                raise ValueError("probabilities must be finite")
            total = num.sum()
        if num.shape != (space.n_outcomes,):
            raise ValueError("probability vector has wrong length")
        if np.any(num < 0):
            raise ValueError("negative probability")
        if abs(total - 1) > (0 if exact else NORMALIZATION_ATOL):
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._fill(space, num, den, exact)

    @classmethod
    def _of(cls, space: SampleSpace, num: np.ndarray, den,
            exact: bool) -> "Distribution":
        """The law ``num / den`` of numerators known to be valid."""
        law = object.__new__(cls)
        law._fill(space, num, den, exact)
        return law

    def _fill(self, space, num, den, exact):
        if num.dtype.kind == "f":       # a float law is over 1
            num, den = ratio(num, den), 1
        num.setflags(write=False)
        self.space, self.num, self.den, self.is_exact = space, num, den, exact
        self._p = num if num.dtype.kind == "f" else None

    @property
    def p(self) -> np.ndarray:
        """The probabilities: Fractions for an exact law, else floats."""
        if self._p is None:
            self._p = ratio(self.num, np.expand_dims(self.den, -1),
                            self.is_exact)
            self._p.setflags(write=False)
        return self._p

    def ratio(self, num, den):
        """:func:`ratio` with this law's exactness."""
        return ratio(num, den, self.is_exact)

    def law(self, num: np.ndarray, den, space: SampleSpace | None = None,
            ) -> "Distribution":
        """The law ``num / den`` on ``space`` (default: this law's), exact
        when this law is, of valid (non-negative, summing) numerators."""
        return Distribution._of(space or self.space, num, den, self.is_exact)

    def slack(self, tol):
        """``tol`` for a float law; integer numerators compare exactly."""
        return tol if self.num.dtype.kind == "f" else 0

    @classmethod
    def uniform(cls, space: SampleSpace, exact: bool = False) -> "Distribution":
        n = space.check_budget()
        return cls(space, [Fraction(1, n)] * n if exact else np.full(n, 1 / n))

    @classmethod
    def point_mass(cls, space: SampleSpace, outcome,
                   exact: bool = False) -> "Distribution":
        return cls.from_mapping(space, {outcome: 1}, exact=exact)

    @classmethod
    def from_mapping(cls, space: SampleSpace, mapping: Mapping,
                     exact: bool = False) -> "Distribution":
        """Build from ``{outcome: probability}``; unlisted outcomes get 0."""
        as_prob = _as_fraction if exact else float
        p = [as_prob(0)] * space.check_budget()
        for outcome, prob in mapping.items():
            p[space.index_of(outcome)] = as_prob(prob)
        return cls(space, p)

    def as_float(self) -> "Distribution":
        """Float64 copy of this law (identity for a float law); a law of
        counts gives ``counts / n``."""
        if self.num.dtype.kind == "f":
            return self
        return Distribution._of(
            self.space, ratio(self.num, np.expand_dims(self.den, -1)), 1,
            False)

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
    array is a stack of ``n`` samples.  Every total is below ``2**53``."""

    __slots__ = ("space", "counts")

    def __init__(self, space: SampleSpace, counts):
        arr = np.asarray(counts)
        if arr.ndim not in (1, 2) or arr.shape[-1] != space.n_outcomes:
            raise ValueError("count vector has wrong length")
        # NaN passes the sign and sum checks, and inf fails the sum check
        # under the wrong name; checked first, neither reaches the cast.
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError("counts must be finite")
        if arr.min(initial=0) < 0:
            raise ValueError("negative count")
        # A float sum of non-negative integers reaches 2**53 exactly when
        # their sum does, so this check cannot wrap.
        if arr.sum(axis=-1, dtype=np.float64).max(initial=0) >= MAX_COUNT:
            raise ValueError("counts sum to 2**53 or more")
        arr64 = arr.astype(np.int64)    # always a new array
        if (not np.issubdtype(arr.dtype, np.integer)
                and not np.array_equal(arr64, arr)):
            raise ValueError("counts must be integers")
        arr64.setflags(write=False)
        self.space = space
        self.counts = arr64

    @property
    def n(self):
        """The sample size (of each row, for a stack)."""
        total = self.counts.sum(axis=-1)
        return int(total) if total.ndim == 0 else total

    @classmethod
    def from_mapping(cls, space: SampleSpace, mapping: Mapping) -> "CountVector":
        c = np.zeros(space.check_budget(), dtype=np.int64)
        for outcome, count in mapping.items():
            c[space.index_of(outcome)] = int(count)
        return cls(space, c)

    def __repr__(self):
        return (f"CountVector(k={self.space.k}, d={self.space.d}, "
                f"n={self.n})")


def empirical_distribution(c: CountVector, exact: bool = False) -> Distribution:
    """The empirical measure, kept as the counts over ``n``; a stack of
    samples gives a stack of laws.

    Raises
    ------
    EmptySampleError
        If a total count is zero.
    """
    n = c.n
    if np.asarray(n).min() == 0:
        raise EmptySampleError("cannot normalize an empty sample")
    return Distribution._of(c.space, c.counts, n, exact)


# ---------------------------------------------------------------------------
# Counts file I/O.
#
# Format: TSV with a header line naming exactly the columns `outcome` and
# `count`.  `outcome` is a symbol string such as `011`; unlisted outcomes
# default to count 0; listing an outcome twice is an error.
# ---------------------------------------------------------------------------

#: Lines of a counts file checked in one bulk pass of :func:`read_counts`.
_BLOCK_LINES = 2**14


def read_counts(source: str | IO[str], k: int | None = None) -> CountVector:
    """Read a counts TSV file into a :class:`CountVector`.

    ``k`` overrides alphabet-size inference (by default the smallest
    alphabet containing every symbol seen, and at least 2).

    Blank lines and lines whose first non-space character is ``#`` are
    skipped, and the first other line is the header.  A row has two
    tab-separated fields, each stripped of surrounding white space: the
    outcome, and its count in ASCII decimal digits.  The running total
    of the counts stays below ``2**53``.  A file is read as UTF-8.

    Lines are read ``_BLOCK_LINES`` at a time, and each block is checked
    in bulk; only the code points of its outcomes, their lengths and its
    counts are kept.  A block that fails a check is checked again line
    by line, so the :class:`CountsFileError` names the first bad line,
    such as one that is not UTF-8 text.  The checks on the whole table
    (outcome lengths, symbols, ``k``, the outcome budget, duplicates)
    run once, at the end.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            return read_counts(fh, k=k)
    lines = iter(source)
    header, total, line_no, parts = False, 0, 1, []
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        header, *part = (_block_rows(block, header, total)
                         or _line_rows(block, line_no, header, total))
        parts.append(part)
        total += int(part[2].sum())
        line_no += len(block)
    if not any(part[2].size for part in parts):
        raise CountsFileError("counts file has no data rows")
    codes, lengths, values = map(np.concatenate, zip(*parts))
    del parts                           # free the blocks' arrays

    if lengths.min() != lengths.max():
        raise CountsFileError(
            f"inconsistent outcome lengths {np.unique(lengths).tolist()}")
    d = int(lengths[0])
    # Symbols as _parse_symbol reads them: ASCII through the table, others
    # (such as 'ı', which upper-cases to I) one by one.
    symbols = np.take(_ASCII_SYMBOLS, codes, mode="clip")
    for i in np.flatnonzero(codes >= 128):
        symbols[i] = _SYMBOL_CHARS.find(chr(codes[i]).upper())
    bad = np.flatnonzero(symbols < 0)
    if bad.size:
        raise CountsFileError(
            f"invalid symbol character {chr(codes[bad[0]])!r}")
    symbols = symbols.reshape(values.size, d)
    inferred_k = max(int(symbols.max(initial=-1)) + 1, 2)
    if k is None:
        k = inferred_k
    elif k < inferred_k:
        raise CountsFileError(
            f"k={k} too small for symbols in file (need >= {inferred_k})")
    space = SampleSpace(k=k, d=d)

    counts = np.zeros(space.check_budget(), dtype=np.int64)
    idx = np.zeros(values.size, dtype=np.int64)
    for column in symbols.T:
        idx *= k
        idx += column
    # A stable sort puts each repeat after the row it repeats; the first
    # repeat in file order is the earliest of those.
    order = np.argsort(idx, kind="stable")
    repeats = order[1:][idx[order[1:]] == idx[order[:-1]]]
    if repeats.size:
        outcome = "".join(map(chr, codes.reshape(-1, d)[repeats.min()]))
        raise CountsFileError(f"duplicate outcome row {outcome!r}")
    counts[idx] = values
    return CountVector(space, counts)


def _block_rows(block: list[str], header: bool, total: int):
    """:func:`_line_rows` of a block of lines, or None if a line of it
    fails a check here; :func:`_line_rows` then reads the block and
    names the bad line.

    The block is read as one string, with no lone surrogate.  Its lines
    are split at tabs and newlines, which must alternate, so that each
    holds exactly one tab, and every field is stripped.  A block holding
    ``#``, or whose lines do not split so or give an empty count, is
    split again without its blank and comment lines.  The counts must
    be ASCII digits, and ``np.fromstring`` reads them: a count past
    int64 reads as ``2**63 - 1``, which fails the total.
    """
    text = "".join(block)
    try:
        text.encode()                           # a lone surrogate fails
    except UnicodeEncodeError:
        return None
    text += "" if text.endswith("\n") else "\n"
    rows = None if "#" in text else _split_rows(text)
    if rows is None or "" in rows[1]:
        # drop the blank lines and those whose first non-space is "#"
        rows = _split_rows(re.sub(r"\n[^\S\n]*(?:#[^\n]*)?(?=\n)", "",
                                  "\n" + text)[1:])
        if rows is None:
            return None
    outcomes, counts = rows
    if not header and counts:
        if (outcomes[0], counts[0]) != ("outcome", "count"):
            return None
        header, outcomes, counts = True, outcomes[1:], counts[1:]
    digits = "".join(counts)
    if counts and not (digits.isascii() and digits.isdigit()):
        return None
    values = np.fromstring(" ".join(counts), dtype=np.int64, sep=" ")
    if (values.size != len(counts)             # an empty count
            or total + values.sum(dtype=np.float64) >= MAX_COUNT):
        return None
    return (header, np.frombuffer("".join(outcomes).encode("utf-32-le"),
                                  dtype=np.uint32),
            np.fromiter(map(len, outcomes), np.int64, len(outcomes)), values)


def _split_rows(text: str):
    """The stripped outcomes and counts of the lines of ``text`` (each
    ended by a newline), or None unless each line holds one tab."""
    other = bytes.maketrans(b"", b"").replace(b"\t\n", b"")
    separators = text.encode().translate(None, other)
    if separators != b"\t\n" * (len(separators) // 2):
        return None
    fields = list(map(str.strip, text.replace("\n", "\t").split("\t")))
    return fields[0:-1:2], fields[1::2]


def _line_rows(block: list[str], line_no: int, header: bool, total: int):
    """The rows of a block of lines, checked one line at a time, as
    ``(header, outcome code points, outcome lengths, counts)``.

    ``line_no`` is the number of the block's first line, ``header`` says
    whether the header has been read (before the block, and then after
    it), and ``total`` is the sum of the counts before the block.  A bad
    line raises :class:`CountsFileError` naming it.
    """
    outcomes, counts = [], []
    for line_no, raw in enumerate(block, start=line_no):
        if bad := utf8_error(raw):
            raise CountsFileError(f"line {line_no}: {bad}")
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if not header:
            if fields != ["outcome", "count"]:
                raise CountsFileError(
                    f"line {line_no}: header must be 'outcome<TAB>count', "
                    f"got {fields}")
            header = True
            continue
        if len(fields) != 2:
            raise CountsFileError(f"line {line_no}: expected 2 fields, "
                                  f"got {len(fields)}")
        outcome, count_s = fields
        digits = count_s[1:] if count_s.startswith("-") else count_s
        if not (digits.isascii() and digits.isdigit()):
            raise CountsFileError(
                f"line {line_no}: count {count_s!r} is not an integer")
        count = int(count_s)
        if count < 0:
            raise CountsFileError(f"line {line_no}: negative count {count}")
        total += count
        if total >= MAX_COUNT:
            raise CountsFileError(f"line {line_no}: count {count} brings "
                                  "the total to 2**53 or more")
        outcomes.append(outcome)
        counts.append(count)
    return (header, np.frombuffer("".join(outcomes).encode("utf-32-le"),
                                  dtype=np.uint32),
            np.array(list(map(len, outcomes)), dtype=np.int64),
            np.array(counts, dtype=np.int64))


def utf8_error(raw: str) -> str | None:
    """Why a line read with ``errors="surrogateescape"`` is not UTF-8 (the
    decoder's message, with the position in the line), or None."""
    try:
        raw.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError as exc:
        return str(exc)
    return None


def utf8_lines(path: str, where: str, error: type = ValueError):
    """``(line number, line)`` of the UTF-8 file ``path``; a line holding
    other bytes raises ``error`` naming ``where``, the line and the byte."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if bad := utf8_error(raw):
                raise error(f"{where} line {line_no}: {bad}")
            yield line_no, raw


def write_counts(c: CountVector, target: str | IO[str]) -> None:
    """Write a counts TSV (all outcomes, including zero counts)."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            write_counts(c, fh)
        return
    target.write("outcome\tcount\n")
    for i in range(c.space.n_outcomes):
        target.write(f"{c.space.outcome_str(i)}\t{int(c.counts[i])}\n")
