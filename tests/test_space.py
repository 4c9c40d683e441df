import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentw import (CountVector, Distribution, SampleSpace,
                     build_orbit_index, empirical_distribution, read_counts,
                     write_counts)
from latentw import space as space_module
from latentw.space import _SYMBOL_CHARS, _parse_symbol, ratio
from latentw.errors import (CountsFileError, EmptySampleError,
                            LatentwError, SpaceTooLargeError)

from oracle_utils import brute_orbits, multinomial_orbit_size


class TestSampleSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSpace(k=1, d=3)
        with pytest.raises(ValueError):
            SampleSpace(k=2, d=1)

    def test_encode_decode_roundtrip(self):
        for k, d in [(2, 2), (2, 3), (3, 3), (4, 2), (5, 3)]:
            space = SampleSpace(k, d)
            for i in range(space.n_outcomes):
                assert space.encode(space.decode(i)) == i

    def test_lexicographic_enumeration(self, space23):
        # index 0 is 000, index 5 is 101, index 7 is 111
        assert space23.decode(0) == (0, 0, 0)
        assert space23.decode(5) == (1, 0, 1)
        assert space23.outcome_str(5) == "101"
        assert space23.index_of("110") == 6

    def test_outcome_matrix_matches_decode(self):
        space = SampleSpace(3, 3)
        mat = space.outcome_matrix()
        for i in range(space.n_outcomes):
            assert tuple(int(v) for v in mat[i]) == space.decode(i)

    def test_symbol_bounds(self, space22):
        with pytest.raises(ValueError):
            space22.encode((0, 2))
        with pytest.raises(ValueError):
            space22.encode((0,))


class TestOrbitIndex:
    def test_small_binary_space(self, space23):
        # (k=2, d=3): binom(4, 3) = 4 classes with orbit sizes {1, 3, 3, 1}
        index = build_orbit_index(space23)
        assert index.n_classes == 4
        assert sorted(index.sizes.tolist()) == [1, 1, 3, 3]
        assert index.reps == ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))

    def test_k2_d2_classes(self, space22):
        # Three classes: {00}, {01, 10}, {11}
        index = build_orbit_index(space22)
        assert index.n_classes == 3
        members = [sorted(index.members(z).tolist())
                   for z in range(index.n_classes)]
        assert members == [[0], [1, 2], [3]]

    def test_k4_d3_against_enumeration(self):
        # 20 classes; orbit sizes sum to 64 (derived by brute enumeration)
        space = SampleSpace(4, 3)
        index = build_orbit_index(space)
        oracle = brute_orbits(4, 3)
        assert index.n_classes == len(oracle) == 20
        assert int(index.sizes.sum()) == 64
        for z in range(index.n_classes):
            rep = index.reps[z]
            assert sorted(tuple(space.decode(i)) for i in index.members(z)) \
                == sorted(oracle[rep])

    @pytest.mark.parametrize("k,d", [(2, 5), (3, 4), (5, 3), (7, 2), (2, 12)])
    def test_structure_invariants(self, k, d):
        space = SampleSpace(k, d)
        index = build_orbit_index(space)
        assert index.n_classes == math.comb(k + d - 1, d)
        assert int(index.sizes.sum()) == k**d
        for z in range(index.n_classes):
            assert index.sizes[z] == multinomial_orbit_size(index.reps[z], k)
        # membership: sorted symbol tuple matches the class representative
        for i in range(space.n_outcomes):
            z = index.class_of[i]
            assert tuple(sorted(space.decode(i))) == index.reps[z]

    def test_class_ids_lexicographic(self):
        index = build_orbit_index(SampleSpace(3, 3))
        assert list(index.reps) == sorted(index.reps)

    def test_space_too_large(self, monkeypatch):
        with pytest.raises(SpaceTooLargeError):
            build_orbit_index(SampleSpace(2, 30))
        # the budget is read when the index is built
        monkeypatch.setattr(space_module, "DEFAULT_MAX_OUTCOMES", 16)
        with pytest.raises(SpaceTooLargeError):
            build_orbit_index(SampleSpace(2, 5))


class TestDistribution:
    def test_validation(self, space22):
        with pytest.raises(ValueError):
            Distribution(space22, [0.5, 0.5, 0.1, 0.0])
        with pytest.raises(ValueError):
            Distribution(space22, [0.5, 0.6, -0.1, 0.0])
        with pytest.raises(ValueError):
            Distribution(space22, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("p", [
        [np.nan] * 4, [0.5, np.nan, 0.5, 0.0], [np.inf, 0.0, 0.0, 0.0],
        [[0.25] * 4, [np.nan, 0.5, 0.5, 0.0]]],
        ids=["all-nan", "one-nan", "inf", "stack-nan-row"])
    def test_non_finite_rejected(self, space22, p):
        # NaN passes both the sign check and the sum check, so it is
        # caught first; the message names it in place of a NaN sum
        with pytest.raises(ValueError, match="must be finite"):
            Distribution(space22, p)

    def test_exact_mode(self, space22):
        p = Distribution(space22, [Fraction(1, 2), Fraction(1, 2), 0, 0])
        assert p.is_exact
        assert p["01"] == Fraction(1, 2)
        with pytest.raises(ValueError):
            Distribution(space22, [Fraction(1, 2), Fraction(1, 3), 0, 0])

    def test_immutable(self, space22):
        p = Distribution.uniform(space22)
        with pytest.raises(ValueError):
            p.p[0] = 0.7

    def test_point_mass_and_uniform(self, space23):
        pm = Distribution.point_mass(space23, "111")
        assert pm["111"] == 1.0 and pm["000"] == 0.0
        u = Distribution.uniform(space23)
        assert np.allclose(u.p, 1 / 8)


class TestRatio:
    def test_correctly_rounded_past_2_53(self):
        # int64 operands at or above 2**53 are not exact in float64: they
        # divide as Python ints, which round correctly
        num = np.array([2**53 + 1, 2**62 + 1, 7])
        den = np.array([3, 2**62 + 3, 2**53 + 1])
        assert ratio(num, den).tolist() == [
            (2**53 + 1) / 3, (2**62 + 1) / (2**62 + 3), 7 / (2**53 + 1)]
        assert ratio(num[0], den[0]) == (2**53 + 1) / 3
        assert ratio(2**70 + 1, 3 * 2**70) == (2**70 + 1) / (3 * 2**70)

    def test_exact_and_float_operands(self):
        assert ratio(3, 6, exact=True) == Fraction(1, 2)
        assert ratio(np.array([1, 2]), 4, exact=True).tolist() == [
            Fraction(1, 4), Fraction(1, 2)]
        # a float operand gives floats, exact or not
        assert ratio(np.array([0.5]), 1, exact=True).tolist() == [0.5]


class TestStacks:
    def test_distribution_stack_checks_every_row(self, space22):
        # a stack of laws is made of counts, one sample per row
        stack = empirical_distribution(
            CountVector(space22, [[1, 1, 1, 1], [3, 0, 0, 0]]))
        assert stack.p.tolist() == [[0.25] * 4, [1.0, 0, 0, 0]]
        with pytest.raises(EmptySampleError):
            empirical_distribution(CountVector(space22, [[1] * 4, [0] * 4]))
        with pytest.raises(ValueError, match="wrong length"):
            CountVector(space22, np.ones((1, 2, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="negative"):
            CountVector(space22, [[1] * 4, [2, -1, 0, 0]])
        with pytest.raises(ValueError, match="2\\*\\*53"):
            CountVector(space22, [[1] * 4, [2**52, 2**52, 0, 0]])
        # float probabilities make single laws only
        with pytest.raises(ValueError, match="wrong length"):
            Distribution(space22, [[0.25] * 4, [1.0, 0, 0, 0]])

    def test_totals_below_2_53(self, space22):
        # a total at 2**53 is refused before any int64 sum could wrap
        assert CountVector(space22, [2**53 - 1, 0, 0, 0]).n == 2**53 - 1
        for counts in ([2**53, 0, 0, 0], [10**20, 0, 0, 0], [2**62] * 3 + [0]):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                CountVector(space22, counts)

    def test_count_stack_sizes_per_row(self, space22):
        c = CountVector(space22, [[1, 2, 3, 4], [0, 0, 0, 5]])
        assert c.n.tolist() == [10, 5]
        assert CountVector(space22, [1, 2, 3, 4]).n == 10
        with pytest.raises(ValueError, match="wrong length"):
            CountVector(space22, [[1, 2, 3]])


def test_count_vector_copies_once():
    # 2^20 int64 counts (8 MiB): the stored copy is the only allocation
    space = SampleSpace(2, 20)
    counts = np.arange(space.n_outcomes, dtype=np.int64)
    tracemalloc.start()
    try:
        cv = CountVector(space, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * counts.nbytes
    assert np.array_equal(cv.counts, counts)
    assert not np.shares_memory(cv.counts, counts)
    assert not cv.counts.flags.writeable


class TestEmpiricalDistribution:
    def test_basic(self, space22):
        c = CountVector(space22, [2, 1, 1, 0])
        p = empirical_distribution(c)
        assert np.array_equal(p.p, [0.5, 0.25, 0.25, 0.0])

    def test_point_mass(self, space23):
        c = CountVector.from_mapping(space23, {"000": 7})
        p = empirical_distribution(c)
        assert p["000"] == 1.0 and p.p.sum() == 1.0

    def test_uniform(self, space22):
        p = empirical_distribution(CountVector(space22, [1, 1, 1, 1]))
        assert np.allclose(p.p, 0.25)

    def test_empty_sample(self, space22):
        with pytest.raises(EmptySampleError):
            empirical_distribution(CountVector(space22, [0, 0, 0, 0]))

    def test_exact(self, space22):
        c = CountVector(space22, [1, 2, 0, 0])
        p = empirical_distribution(c, exact=True)
        assert p.p[0] == Fraction(1, 3) and p.p[1] == Fraction(2, 3)

    def test_as_float_divides_counts(self, space23):
        # a law of counts keeps the counts over n; its float view is
        # counts / n, exact or not
        counts = np.array([3, 0, 5, 7, 11, 13, 1, 2])
        c = CountVector(space23, counts)
        for exact in (False, True):
            p = empirical_distribution(c, exact=exact)
            assert p.num.tolist() == counts.tolist() and p.den == 42
            assert np.array_equal(p.as_float().p, counts / 42)
            assert not p.as_float().is_exact


class TestCountsFile:
    def test_roundtrip(self, space23):
        c = CountVector.from_mapping(space23, {"101": 5, "111": 2})
        buf = io.StringIO()
        write_counts(c, buf)
        back = read_counts(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.counts, c.counts)
        assert back.space == space23

    def test_unlisted_outcomes_default_zero(self):
        c = read_counts(io.StringIO("outcome\tcount\n01\t4\n"))
        assert c.space.n_outcomes == 4
        assert c.counts.tolist() == [0, 4, 0, 0]

    def test_duplicate_outcome_is_error(self):
        with pytest.raises(CountsFileError, match="duplicate"):
            read_counts(io.StringIO("outcome\tcount\n01\t4\n01\t1\n"))

    def test_bad_header(self):
        with pytest.raises(CountsFileError, match="header"):
            read_counts(io.StringIO("outc\tcount\n01\t4\n"))

    def test_bad_count(self):
        with pytest.raises(CountsFileError, match="integer"):
            read_counts(io.StringIO("outcome\tcount\n01\tx\n"))
        with pytest.raises(CountsFileError, match="negative"):
            read_counts(io.StringIO("outcome\tcount\n01\t-2\n"))

    def test_k_inference_and_override(self):
        c = read_counts(io.StringIO("outcome\tcount\n012\t3\n"))
        assert c.space.k == 3
        c4 = read_counts(io.StringIO("outcome\tcount\n012\t3\n"), k=4)
        assert c4.space.k == 4
        with pytest.raises(CountsFileError, match="too small"):
            read_counts(io.StringIO("outcome\tcount\n012\t3\n"), k=2)

    def test_inconsistent_lengths(self):
        with pytest.raises(CountsFileError, match="lengths"):
            read_counts(io.StringIO("outcome\tcount\n01\t1\n011\t1\n"))

    def test_empty_outcomes_name_the_dimension(self):
        with pytest.raises(ValueError, match="d must be >= 2, got 0"):
            read_counts(io.StringIO("outcome\tcount\n\t5\n"))

    def test_non_ascii_symbols_upper_case(self):
        # 'ı' upper-cases to I (18) and 'ſ' to S (28)
        c = read_counts(io.StringIO("outcome\tcount\n0ı\t5\n1ſ\t3\n"))
        assert c.space == SampleSpace(29, 2)
        assert c.counts[18] == 5 and c.counts[29 + 28] == 3
        assert c.n == 8

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_per_row_reference(self, data):
        rows, k = data.draw(_counts_rows())
        text = "outcome\tcount\n" + "".join(f"{o}\t{c}\n" for o, c in rows)
        # the line loop strips each field
        stripped = [(o.strip(), c) for o, c in rows]
        assert _outcome(read_counts, io.StringIO(text), k) == _outcome(
            _read_counts_reference, stripped, k)


#: Characters outside the symbol alphabet, ASCII and not.
_INVALID_CHARS = "-_ .@[`{é€ß\u00a0ﬀ"


@st.composite
def _counts_rows(draw):
    """``(outcome, count)`` rows over a random space, in random order and
    not all listed, with lowercase letters, 'ı' for I and 'ſ' for S, and
    at times a duplicate, an invalid character, a wrong length or a ``k``
    that is too small or makes the space too large."""
    k = draw(st.integers(2, 36))
    d = draw(st.sampled_from([1, 2, 2, 3, 3, 4] + [5, 5] * (k <= 8)))
    index = st.integers(0, k**d - 1)
    idx = draw(st.lists(index, min_size=1, max_size=12))
    if draw(st.booleans()):
        idx.insert(draw(st.integers(0, len(idx))),
                   idx[draw(st.integers(0, len(idx) - 1))])
    outcomes = []
    for i in idx:
        chars = []
        for s in (i // k**j % k for j in range(d - 1, -1, -1)):
            style = draw(st.integers(0, 3))
            c = _SYMBOL_CHARS[s]
            chars.append({18: "ı", 28: "ſ"}.get(s, c) if style == 3
                         else c.lower() if style == 2 else c)
        outcomes.append("".join(chars))
    rows = st.integers(0, len(outcomes) - 1)
    fault = draw(st.sampled_from(["none"] * 3 + ["invalid"] * 2 + ["length"]))
    if fault == "invalid":
        for _ in range(draw(st.integers(1, 2))):
            row, pos = draw(rows), draw(st.integers(0, d))
            bad = draw(st.sampled_from(_INVALID_CHARS))
            outcomes[row] = outcomes[row][:pos] + bad + outcomes[row][pos + 1:]
    elif fault == "length":
        outcomes[draw(rows)] += "0"
    counts = draw(st.lists(st.integers(0, 10**6), min_size=len(outcomes),
                           max_size=len(outcomes)))
    # 36**5 and 5000**2 pass the 2**24 outcome budget
    override = draw(st.sampled_from([None, None, k - 1, k, k + 1, 36, 5000]))
    return list(zip(outcomes, counts)), override


def _read_counts_reference(rows, k):
    """Rows read one by one through ``_parse_symbol`` and ``encode``."""
    lengths = {len(o) for o, _ in rows}
    if len(lengths) != 1:
        raise CountsFileError(
            f"inconsistent outcome lengths {sorted(lengths)}")
    try:
        symbols = [[_parse_symbol(c) for c in o] for o, _ in rows]
    except ValueError as exc:
        raise CountsFileError(str(exc))
    need = max(max(max(s) for s in symbols) + 1, 2)
    if k is not None and k < need:
        raise CountsFileError(
            f"k={k} too small for symbols in file (need >= {need})")
    space = SampleSpace(k=need if k is None else k, d=lengths.pop())
    counts = np.zeros(space.check_budget(), dtype=np.int64)
    seen = set()
    for (outcome, count), syms in zip(rows, symbols):
        i = space.encode(syms)
        if i in seen:
            raise CountsFileError(f"duplicate outcome row {outcome!r}")
        seen.add(i)
        counts[i] = count
    return CountVector(space, counts)


def _outcome(read, source, k):
    """The space and counts read, or the error's type and message."""
    try:
        c = read(source, k)
    except (ValueError, LatentwError) as exc:
        return type(exc), str(exc)
    return c.space, c.counts.tolist()


class TestRandomSpaces:
    def test_class_count_formula_random(self):
        # random (k, d) with k^d <= 4096
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            d_max = int(math.log(4096) / math.log(k))
            d = int(rng.integers(2, max(d_max, 2) + 1))
            if k**d > 4096:
                continue
            space = SampleSpace(k, d)
            index = build_orbit_index(space)
            assert index.n_classes == math.comb(k + d - 1, d)
            assert int(index.sizes.sum()) == k**d
