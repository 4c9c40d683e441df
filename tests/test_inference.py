import concurrent.futures
import itertools
import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import latentw.inference as inference_mod

from latentw import (CountVector, Distribution, SampleSpace,
                     asymptotic_variance, bootstrap_distribution,
                     empirical_distribution, estimate, exchangeable_weight,
                     limit_law_sample, sample_size_heuristic,
                     subsample_size, worst_case_source)
from latentw.errors import EmptySampleError, TiedArgminError
from latentw.exchangeable import argmin_sets
from latentw.inference import TIED_ARGMIN, UNIQUE_ARGMIN
from child_env import child_env
from oracle_utils import (brute_weight_vector, chunked_masses_oracle,
                          chunked_replicates_oracle, exact_summaries,
                          limit_law_mvn_oracle, limit_variance_oracle,
                          lumped_law_oracle, triplet_mass_moments)

#: 256 outcomes; :func:`sample44` draws 20 to 46 cells of them, so a
#: chunk of the bootstrap holds 712 to 1638 resamples.
SPACE44 = SampleSpace(4, 4)
#: 729 outcomes: :func:`sample36` draws 722 cells of them, so a chunk of
#: the bootstrap holds 45 resamples.
SPACE36 = SampleSpace(3, 6)
#: A tied law on (3, 2): 01 and 10 tied at 3/20, 12 and 21 tied at 0, 02
#: unique; the argmin cells leave mass 1/4 to the other cells.
MIXED32 = {"00": Fraction(1, 10), "11": Fraction(1, 10),
           "22": Fraction(1, 20), "01": Fraction(3, 20),
           "10": Fraction(3, 20), "02": Fraction(1, 5), "20": Fraction(1, 4)}


def sample44(seed, n=900):
    rng = np.random.default_rng(seed)
    return CountVector(SPACE44,
                       rng.multinomial(n, rng.dirichlet(np.ones(256))))


def drawn_cells(c):
    """The number of cells the bootstrap draws for ``c``: its lumped law's
    length, 0 when no orbit is live."""
    law = lumped_law_oracle(c.counts / c.n, c.space.k, c.space.d)[1]
    return 0 if law is None else len(law)


def lam_hat_rows_22(freqs: np.ndarray) -> np.ndarray:
    # hand-written plug-in weight for k=2, d=2 rows (00, 01, 10, 11)
    return freqs[:, 0] + 2 * np.minimum(freqs[:, 1], freqs[:, 2]) + freqs[:, 3]


class TestEstimate:
    def test_degenerate_constant_sample(self, space23):
        c = CountVector.from_mapping(space23, {"000": 50})
        est = estimate(c, n_boot=100, seed=1)
        assert est.lambda_hat == 1.0
        assert est.lambda_corrected == 1.0
        assert est.se_boot == 0.0
        assert est.bias_boot == 0.0

    def test_one_third_empirical(self, space23):
        c = CountVector.from_mapping(space23,
                                     {"101": 100, "110": 100, "111": 100})
        est = estimate(c, n_boot=500, seed=2)
        assert abs(est.lambda_hat - 1 / 3) < 1e-15
        assert est.n == 300
        assert 0.0 <= est.lambda_corrected <= 1.0

    def test_exchangeable_uniform_large_n(self, space23):
        rng = np.random.default_rng(7)
        counts = rng.multinomial(10**5, np.full(8, 1 / 8))
        est = estimate(CountVector(space23, counts), n_boot=400, seed=3)
        assert 0.98 <= est.lambda_hat <= 1.0
        assert est.lambda_corrected >= est.lambda_hat

    def test_deterministic(self, space23):
        c = CountVector.from_mapping(space23,
                                     {"101": 40, "110": 35, "111": 25})
        a = estimate(c, n_boot=300, seed=99)
        b = estimate(c, n_boot=300, seed=99)
        assert a == b
        c2 = estimate(c, n_boot=300, seed=100)
        assert c2.se_boot != a.se_boot

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5)])
    def test_numpy_integer_seed_is_kept(self, space23, seed):
        c = CountVector(space23, [30, 5, 9, 14, 2, 11, 7, 22])
        est = estimate(c, n_boot=50, seed=seed)
        assert type(est.seed) is int and est.seed == 5
        assert est == estimate(c, n_boot=50, seed=5)

    def test_corrected_is_clamped(self, space22):
        c = CountVector(space22, [97, 1, 1, 1])
        est = estimate(c, n_boot=400, seed=4)
        assert 0.0 <= est.lambda_corrected <= 1.0
        assert est.lambda_corrected == min(
            max(2 * est.lambda_hat - (est.lambda_hat + est.bias_boot), 0.0),
            1.0)

    def test_regularity_flag(self, space22):
        tied = CountVector(space22, [10, 5, 5, 10])
        assert estimate(tied, n_boot=10, seed=0).regularity_flag == TIED_ARGMIN
        unique = CountVector(space22, [10, 5, 9, 10])
        assert estimate(unique, n_boot=10,
                        seed=0).regularity_flag == UNIQUE_ARGMIN

    @pytest.mark.parametrize("counts,flag", [
        ([10, 5, 6, 10], UNIQUE_ARGMIN),            # one count apart
        ([3, 0, 0, 3], UNIQUE_ARGMIN),              # tied at zero: inert
        ([0, 1, 1, 0], TIED_ARGMIN),
        ([7, 2**50, 2**50 + 1, 2**51], UNIQUE_ARGMIN),
        ([7, 2**50, 2**50, 2**51], TIED_ARGMIN),
    ])
    def test_regularity_compares_counts_exactly(self, space22, counts, flag):
        # a tie is two cells of one orbit at its positive minimum count
        c = CountVector(space22, counts)
        assert inference_mod.empirical_regularity(c) == flag

    def test_regularity_against_orbit_loop(self):
        rng = np.random.default_rng(71)
        space = SampleSpace(3, 3)
        index = space.orbit_index()
        for _ in range(200):
            counts = rng.integers(0, 4, size=27) * rng.integers(0, 2, size=27)
            if not counts.any():
                continue
            tied = any(
                min(counts[m]) > 0 and np.sum(counts[m] == min(counts[m])) > 1
                for m in map(index.members, range(index.n_classes)))
            c = CountVector(space, counts)
            assert inference_mod.empirical_regularity(c) == (
                TIED_ARGMIN if tied else UNIQUE_ARGMIN)
            # the Gaussian formula refuses exactly the flagged samples
            try:
                asymptotic_variance(empirical_distribution(c))
            except TiedArgminError:
                assert tied
            else:
                assert not tied

    def test_limit_law_ties_counts_exactly(self, space22):
        # counts one apart are not tied, however large n is
        c = CountVector(space22, [3 * 10**10, 10**10, 10**10 + 1, 2 * 10**10])
        assert inference_mod.empirical_regularity(c) == UNIQUE_ARGMIN
        p = empirical_distribution(c)
        assert argmin_sets(p) == ((0,), (1,), (3,))
        assert asymptotic_variance(p) > 0.0

    def test_empty_sample(self, space22):
        with pytest.raises(EmptySampleError):
            estimate(CountVector(space22, [0, 0, 0, 0]), n_boot=10)

    def test_subsample_size(self):
        assert subsample_size(10000) == 200
        assert subsample_size(101) == 21

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.integers(1, 2**53 - 1),
                     st.integers(1, 2**26).map(lambda j: j * j),
                     st.integers(1, 2**26).map(lambda j: j * j + 1)))
    @example(4503599694479361)      # float ceil(2*sqrt(n)) gives 134217729
    @example(2**53 - 1)
    @example(1)
    def test_subsample_size_matches_isqrt_oracle(self, n):
        # the least s with s*s >= 4n
        s = math.isqrt(4 * n)
        assert subsample_size(n) == s + (s * s < 4 * n)


class TestEstimateStack:
    @pytest.mark.parametrize("resample_size", [None, 30])
    def test_rows_equal_single_estimates(self, resample_size):
        # every row of a stack is estimated as if it came alone, bit for
        # bit, each from its own seed
        space = SampleSpace(3, 2)
        rng = np.random.default_rng(40)
        counts = np.array([rng.multinomial(int(rng.integers(1, 500)),
                                           rng.dirichlet(np.ones(9)))
                           for _ in range(7)] + [[0] * 8 + [12]])
        seeds = np.random.SeedSequence(41).spawn(len(counts))
        stack = estimate(CountVector(space, counts), n_boot=50,
                         resample_size=resample_size, seed=seeds)
        assert stack.regularity_flag is None and stack.seed is None
        for i, (row, s) in enumerate(zip(counts, seeds)):
            one = estimate(CountVector(space, row), n_boot=50,
                           resample_size=resample_size, seed=s)
            assert stack.lambda_hat[i] == one.lambda_hat
            assert stack.lambda_corrected[i] == one.lambda_corrected
            assert stack.se_boot[i] == one.se_boot
            assert stack.bias_boot[i] == one.bias_boot
            assert stack.n[i] == one.n
            assert stack.resample_size[i] == one.resample_size

    def test_multi_chunk_rows_equal_lone_estimates(self, monkeypatch):
        # rows of 20, 36 and 42 drawn cells, so of 2, 3 and 3 chunks: the
        # stack and the lone estimates draw them on a pool of two workers,
        # with the same bits
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 2)
        counts = np.array([sample44(s).counts for s in (60, 61, 62)])
        assert [drawn_cells(CountVector(SPACE44, row))
                for row in counts] == [20, 36, 42]
        seeds = np.random.SeedSequence(63).spawn(3)
        stack = estimate(CountVector(SPACE44, counts), n_boot=2000,
                         seed=seeds)
        for i, (row, s) in enumerate(zip(counts, seeds)):
            one = estimate(CountVector(SPACE44, row), n_boot=2000, seed=s)
            assert stack.lambda_corrected[i] == one.lambda_corrected
            assert stack.se_boot[i] == one.se_boot
            assert stack.bias_boot[i] == one.bias_boot

    def test_one_seed_per_row(self, space22):
        c = CountVector(space22, [[1, 2, 3, 4], [4, 3, 2, 1]])
        with pytest.raises(ValueError, match="one seed per row"):
            estimate(c, n_boot=10, seed=[1])

    def test_empty_row_raises(self, space22):
        c = CountVector(space22, [[1, 2, 3, 4], [0, 0, 0, 0]])
        with pytest.raises(EmptySampleError):
            estimate(c, n_boot=10, seed=[1, 2])


class Recorder:
    """A stand-in thread pool that records its width and starts no
    thread."""

    made: list = []

    def __init__(self, max_workers):
        Recorder.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestChunkedBootstrap:
    @pytest.mark.parametrize("seed", [52, np.random.SeedSequence(51).spawn(
        3)[2]], ids=["int", "spawned"])
    @pytest.mark.parametrize("resample_size", [None, 40])
    def test_estimate_matches_oracle(self, seed, resample_size):
        # 1500 resamples of 46 drawn cells: chunks of 712, 712 and 76
        c = sample44(50)
        assert drawn_cells(c) == 46
        est = estimate(c, n_boot=1500, resample_size=resample_size,
                       seed=seed)
        n0 = resample_size or c.n
        seq = (np.random.SeedSequence(seed) if isinstance(seed, int)
               else seed)
        reps = chunked_replicates_oracle(c.counts / c.n, n0, 1500, 4, 4, seq)
        assert abs(est.lambda_hat + est.bias_boot - np.mean(reps)) < 1e-12
        assert abs(est.se_boot - np.std(reps, ddof=1)) < 1e-12

    def test_bootstrap_distribution_matches_oracle(self):
        # 38 drawn cells: chunks of 862, 862 and 276
        c = sample44(53)
        assert drawn_cells(c) == 38
        got = bootstrap_distribution(c, n_boot=2000, seed=54)
        lam_hat = brute_weight_vector(c.counts / c.n, 4, 4)
        reps = chunked_replicates_oracle(c.counts / c.n, c.n, 2000, 4, 4,
                                         np.random.SeedSequence(54))
        want = np.sqrt(c.n) * (np.array(reps) - lam_hat)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_sample_size_heuristic_matches_oracle(self):
        # 253 drawn cells (the 4 constant outcomes lumped into the rest
        # cell): chunks of 129, 129 and 42
        rows = sample_size_heuristic(SPACE44, [60, 500], reps=300, seed=55)
        p = worst_case_source(SPACE44).p
        children = np.random.SeedSequence(55).spawn(2)
        for row, n, child in zip(rows, (60, 500), children):
            reps = chunked_replicates_oracle(p, n, 300, 4, 4, child)
            assert abs(row.mean_bias - (np.mean(reps) - 1.0)) < 1e-12
            assert abs(row.sd - np.std(reps, ddof=1)) < 1e-12

    def test_single_chunk_keeps_direct_draws(self, space23):
        # 4096 resamples of 7 cells fit in one chunk: every orbit is live,
        # so the draws are those of one multinomial call on the seed over
        # the unit cell (000 and 111) and the two 3-cell orbits in orbit
        # order, with no rest cell
        c = CountVector(space23, [30, 5, 9, 14, 2, 11, 7, 22])
        p = (c.counts / c.n)[space23.orbit_index().order]
        draws = np.random.default_rng(56).multinomial(
            c.n, np.concatenate(([p[0] + p[7]], p[1:7])), size=4096)
        masses = (draws[:, 0] + 3 * draws[:, 1:4].min(axis=1)
                  + 3 * draws[:, 4:].min(axis=1))
        est = estimate(c, n_boot=4096, seed=56)
        bias, corrected, var = exact_summaries(masses.tolist(), c.n, 79, c.n)
        assert est.lambda_hat == 0.79
        assert est.bias_boot == float(bias)
        assert est.lambda_corrected == float(corrected)
        assert est.se_boot == math.sqrt(float(var))
        boot = bootstrap_distribution(c, n_boot=4096, seed=56)
        assert np.array_equal(boot,
                              np.sqrt(c.n) * (masses / c.n - est.lambda_hat))

    def test_pool_width_does_not_change_bits(self, monkeypatch):
        # 40 drawn cells: 6000 resamples in 8 chunks of up to 819
        c = sample44(57)
        assert drawn_cells(c) == 40
        out = []
        for cpus in (1, 2, 16):
            monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: cpus)
            out.append((estimate(c, n_boot=6000, seed=58),
                        bootstrap_distribution(c, n_boot=6000, seed=58)))
        for est, boot in out[1:]:
            assert est == out[0][0]
            assert np.array_equal(boot, out[0][1])

    def test_many_workers_short_switch_interval(self, monkeypatch):
        # 16 workers on a 1-resample chunk plan, with the interpreter
        # switching threads as often as it can: same bits as one worker,
        # and no deadlock (the run has a time limit)
        c = sample44(59)
        monkeypatch.setattr(inference_mod, "_BLOCK_CELLS", 1)
        one_per_chunk = estimate(c, n_boot=120, seed=60)
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 16)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: results.extend(
                estimate(c, n_boot=120, seed=60) for _ in range(3)),
                daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert results == [one_per_chunk] * 3

    def test_pool_capped_by_threads(self, monkeypatch):
        # a sample or a stack gets min(threads, CPUs, chunks) workers,
        # with threads=None meaning no cap of its own; below 2, no pool
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            Recorder)
        monkeypatch.setattr(Recorder, "made", [])
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 64)
        c = sample44(61)
        assert drawn_cells(c) == 36                      # chunks of 910
        stack = CountVector(SPACE44, np.stack([c.counts] * 2))
        estimate(c, n_boot=2000, seed=1)                 # 3 chunks
        estimate(c, n_boot=840, seed=1)                  # 1 chunk
        bootstrap_distribution(c, n_boot=6720, seed=1)   # 8 chunks
        estimate(stack, n_boot=2000, seed=[1, 2])        # 6 chunks
        estimate(stack, n_boot=2000, seed=[1, 2], threads=4)
        estimate(stack, n_boot=2000, seed=[1, 2], threads=1)
        estimate(c, n_boot=2000, seed=1, threads=-2)
        assert Recorder.made == [3, 8, 6, 4]

    def test_pool_capped_by_memory(self, monkeypatch):
        # a task of 256 outcomes holds up to 3 int64 copies of 2^15 cells:
        # a pool budget of two and a half tasks gets 2 workers, below one
        # task still 1, and the bits are those of one thread; 42 drawn
        # cells make 3 chunks a row
        c = sample44(62)
        assert drawn_cells(c) == 42
        stack = CountVector(SPACE44, np.stack([c.counts] * 2))
        one = estimate(stack, n_boot=2000, seed=[1, 2], threads=1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            Recorder)
        monkeypatch.setattr(Recorder, "made", [])
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 64)
        task = 3 * 8 * inference_mod._BLOCK_CELLS
        for budget in (5 * task // 2, task - 1):
            monkeypatch.setattr(inference_mod, "_POOL_BYTES", budget)
            got = estimate(stack, n_boot=2000, seed=[1, 2])
            for field in ("lambda_hat", "lambda_corrected", "se_boot",
                          "bias_boot"):
                assert np.array_equal(getattr(got, field),
                                      getattr(one, field))
        assert Recorder.made == [2]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rows_per_group", [1, 3])
    def test_group_size_does_not_change_bits(self, monkeypatch, threads,
                                             rows_per_group):
        # rows of 8 drawn cells x 50 resamples share a task while it holds
        # at most _BLOCK_CELLS draw cells: all 10 rows in one task, or
        # groups of rows_per_group on a pool of `threads` workers
        rng = np.random.default_rng(64)
        counts = rng.multinomial(300, rng.dirichlet(np.ones(8)), size=10)
        c = CountVector(SampleSpace(2, 3), counts)
        seeds = np.random.SeedSequence(65).spawn(10)
        whole = estimate(c, n_boot=50, seed=seeds, threads=1)
        monkeypatch.setattr(inference_mod, "_BLOCK_CELLS",
                            rows_per_group * 50 * 8)
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 16)
        got = estimate(c, n_boot=50, seed=seeds, threads=threads)
        for field in ("lambda_hat", "lambda_corrected", "se_boot",
                      "bias_boot", "n", "resample_size"):
            assert np.array_equal(getattr(got, field), getattr(whole, field))

    def test_stack_memory_is_bounded(self):
        # 4 000 triplets at n_boot=1000 would hold a 32 MB replicate
        # matrix, and twice that in the temporaries of its sd, if the
        # stack were not reduced in groups
        rng = np.random.default_rng(66)
        counts = rng.multinomial(200, np.full(8, 1 / 8), size=4000)
        c = CountVector(SampleSpace(2, 3), counts)
        seeds = np.random.SeedSequence(67).spawn(4000)
        tracemalloc.start()
        try:
            estimate(c, n_boot=1000, seed=seeds, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_plan_is_made_as_drawn(self, threads):
        # 2**52 resamples make 2**52 / 4681 chunks: a plan built whole
        # before the first draw fails with a MemoryError under the
        # child's 1 GiB limit; made as drawn, the first chunks come at once
        code = "\n".join([
            "import itertools, numpy as np",
            "from latentw import SampleSpace, inference",
            "chunks = inference.multinomial_masses(",
            "    SampleSpace(2, 3), np.array([100]), np.full((1, 8), 1 / 8),",
            f"    2**52, [0], threads={threads})",
            "print([w.size for _, _, w in itertools.islice(chunks, 5)])",
            "chunks.close()"])

        def limit_memory():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              preexec_fn=limit_memory, timeout=60,
                              env=child_env(OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{[2**15 // 7] * 5}\n"

    def test_seed_sequence_left_unspawned(self):
        # chunk seeds are built from the seed's entropy and spawn key;
        # the caller's SeedSequence spawns no children
        # (2000 resamples of 44 drawn cells: 3 chunks)
        seed = np.random.SeedSequence(62)
        first = estimate(sample44(62), n_boot=2000, seed=seed)
        assert seed.n_children_spawned == 0
        assert estimate(sample44(62), n_boot=2000, seed=seed) == first


def sample36(seed):
    """A sample on SPACE36 whose orbits of 000000 (one cell) and 000001
    (six cells) are dead: 722 drawn cells, a rest cell holding the other
    five cells of the 000001 orbit and a unit cell holding 111111 and
    222222."""
    counts = np.random.default_rng(seed).integers(1, 6, 729)
    counts[[0, 1]] = 0
    return CountVector(SPACE36, counts)


class TestLargeLawPlan:
    # Laws of at least 512 drawn cells, whose chunks hold a few dozen
    # resamples: the oracle redoes the plan in plain loops, so the bits
    # must agree.
    @pytest.mark.parametrize("resample_size", [None, 1, 231681, 231682],
                             ids=["n", "n0=1", "n0=231681", "n0=231682"])
    def test_estimate_matches_oracle(self, resample_size):
        # 722 drawn cells, chunks of 45 resamples
        c = sample36(70)
        assert drawn_cells(c) == 722
        est = estimate(c, n_boot=100, resample_size=resample_size, seed=71)
        reps = chunked_replicates_oracle(c.counts / c.n,
                                         resample_size or c.n, 100, 3, 6,
                                         np.random.SeedSequence(71))
        assert abs(est.lambda_hat + est.bias_boot - np.mean(reps)) < 1e-12
        assert abs(est.se_boot - np.std(reps, ddof=1)) < 1e-12

    def test_bootstrap_distribution_matches_oracle(self):
        # zero cells in the orbits of 0000000001 (10 cells) and 1111111111:
        # 1014 drawn cells, chunks of 32
        space = SampleSpace(2, 10)
        rng = np.random.default_rng(72)
        counts = rng.multinomial(5000, rng.dirichlet(np.full(1024, 0.3))) + 1
        counts[[1, 1023]] = 0
        c = CountVector(space, counts)
        assert drawn_cells(c) == 1014
        got = bootstrap_distribution(c, n_boot=70, seed=73)
        reps = chunked_replicates_oracle(c.counts / c.n, c.n, 70, 2, 10,
                                         np.random.SeedSequence(73))
        lam_hat = exchangeable_weight(empirical_distribution(c))
        assert np.allclose(got, np.sqrt(c.n) * (np.array(reps) - lam_hat),
                           rtol=0, atol=1e-12)

    def test_sample_size_heuristic_matches_oracle(self):
        # the worst-case source has zero first and last cells: 1023 drawn
        # cells, the rest cell of mass 0 first
        space = SampleSpace(2, 10)
        rows = sample_size_heuristic(space, [1, 50, 3000], reps=60, seed=74)
        p = worst_case_source(space).p
        for row, n, child in zip(rows, (1, 50, 3000),
                                 np.random.SeedSequence(74).spawn(3)):
            reps = chunked_replicates_oracle(p, n, 60, 2, 10, child)
            assert row.mean_bias == np.mean(reps) - 1.0
            assert abs(row.sd - np.std(reps, ddof=1)) < 1e-12

    def test_pool_width_does_not_change_bits(self, monkeypatch):
        # every orbit live: 4093 cells (the 4 constants lumped), chunks
        # of 8
        space = SampleSpace(4, 6)
        rng = np.random.default_rng(75)
        c = CountVector(space, rng.multinomial(
            50000, rng.dirichlet(np.ones(4096))) + 1)
        assert drawn_cells(c) == 4093
        out = []
        for cpus in (1, 2, 16):
            monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: cpus)
            out.append((estimate(c, n_boot=40, seed=76),
                        bootstrap_distribution(c, n_boot=40, seed=76)))
        for est, boot in out[1:]:
            assert est == out[0][0]
            assert np.array_equal(boot, out[0][1])


def seen_resamples(monkeypatch, space, n0, p, size, seed):
    """The resamples that ``multinomial_masses`` draws, captured from the
    generator that each chunk's ``_LumpedLaw.masses`` call draws them
    with, and the law they are drawn from, which must be
    :func:`lumped_law_oracle`'s.  ``(None, None)`` when nothing is
    drawn."""
    seen = []
    masses = inference_mod._LumpedLaw.masses

    class Recorder:
        def __init__(self, rng):
            self.rng = rng

        def multinomial(self, n, pvals, size):
            rows = self.rng.multinomial(n, pvals, size=size)
            seen.append((pvals, rows))
            return rows

    def spy(law, rng, size):
        return masses(law, Recorder(rng), size)

    monkeypatch.setattr(inference_mod._LumpedLaw, "masses", spy)
    list(inference_mod.multinomial_masses(space, np.array([n0]), p[None, :],
                                          size, [seed], threads=1))
    if not seen:
        return None, None
    law = lumped_law_oracle(p, space.k, space.d)[1]
    assert all(np.array_equal(drawn, law) for drawn, _ in seen)
    return np.concatenate([rows for _, rows in seen]), law


def law_with_zeros(space, seed):
    """A law on ``space`` whose first, middle and last cells are 0 and
    whose other cells are within a factor 3 of each other."""
    p = np.random.default_rng(seed).uniform(1.0, 3.0, space.n_outcomes)
    p[[0, space.n_outcomes // 2, -1]] = 0.0
    return p / p.sum()


class TestDrawPaths:
    # The draws are multinomial resamples of the drawn law: every resample
    # sums to n0 exactly, and a zero cell is never drawn.
    @pytest.mark.parametrize("k,d,n0", [
        (2, 10, 1), (2, 10, 700), (2, 10, 456075), (2, 10, 456076),
        (2, 10, 465125), (2, 9, 1), (2, 9, 700),
        (2, 9, 29127), (2, 9, 29128), (2, 3, 1), (2, 3, 500),
    ])
    def test_sums_and_zero_cells(self, monkeypatch, k, d, n0):
        # on (2, 10), law_with_zeros kills the orbit of 1000000000 (10
        # cells) and two constants: 1013 drawn cells; the worst-case
        # source draws 1023.  On (2, 9) they draw 502 and 511 cells
        space = SampleSpace(k, d)
        laws = [law_with_zeros(space, 80), worst_case_source(space).p,
                np.eye(space.n_outcomes)[space.n_outcomes // 3]]
        for i, p in enumerate(laws):
            rows, law = seen_resamples(monkeypatch, space, n0, p, 200, 81 + i)
            if i == 2:
                # the point mass's orbit holds zero cells: no live orbit
                assert rows is None
                continue
            assert rows.shape == (200, len(law))
            assert (rows.sum(axis=1) == n0).all()
            assert (rows[:, law == 0] == 0).all()

    def test_worst_case_source_never_draws_constants(self, monkeypatch):
        # the constant outcomes are the only zero cells: they fill the
        # rest cell, of mass 0, and every other cell is live
        space = SampleSpace(2, 10)
        p = worst_case_source(space).p
        rows, law = seen_resamples(monkeypatch, space, 5000, p, 300, 82)
        assert law[0] == 0.0 and len(law) == 1024 - 2 + 1
        assert (rows[:, 0] == 0).all()

    @pytest.mark.parametrize("k,d,n0", [(3, 6, 5000), (2, 9, 40000),
                                        (2, 3, 50)],
                             ids=["k3d6", "multinomial-512", "triplet"])
    def test_moments(self, monkeypatch, k, d, n0):
        # cell means within 5 standard errors of n0*law, and every
        # covariance within 6 of n0*(diag law - law law^T); the standard
        # errors are those of the Gaussian limit, over 4000 resamples.  On
        # (3, 6) the three zero cells are constants: 727 drawn cells; on
        # the 512 outcomes of (2, 9), 502
        space = SampleSpace(k, d)
        rows, law = seen_resamples(monkeypatch, space, n0,
                                   law_with_zeros(space, 83), 4000, 84)
        live = law > 0
        x, q = rows[:, live].astype(float), law[live]
        mean_se = np.sqrt(n0 * q * (1 - q) / len(x))
        assert (np.abs(x.mean(axis=0) - n0 * q) < 5 * mean_se).all()
        cov = n0 * (np.diag(q) - np.outer(q, q))
        var = np.diag(cov)
        cov_se = np.sqrt((np.outer(var, var) + cov**2) / len(x))
        assert (np.abs(np.cov(x, rowvar=False) - cov) < 6 * cov_se).all()

    @pytest.mark.parametrize("k,d,n0", [(2, 3, 500), (3, 6, 20000),
                                        (3, 6, 300000)],
                             ids=["triplet", "n0=20000", "multinomial"])
    def test_law_layout(self, monkeypatch, k, d, n0):
        # with every orbit live there is no rest cell: the unit cell holds
        # the k constants' sum in orbit order, and the other cells follow
        # in orbit order, k**d - k + 1 cells.  A dead orbit adds one rest
        # cell at index 0, the sum of its cells in orbit order.  With the
        # first constant the only live one, the unit cell is that cell, so
        # the law is the rest cell and then every live cell in orbit order
        space = SampleSpace(k, d)
        index = space.orbit_index()
        single = np.repeat(index.sizes == 1, index.sizes)
        p = np.random.default_rng(93).uniform(1.0, 2.0, space.n_outcomes)
        p /= p.sum()
        rows, law = seen_resamples(monkeypatch, space, n0, p, 50, 94)
        assert rows.shape == (50, space.n_outcomes - k + 1)
        ordered = p[index.order]
        assert law[0] == ordered[single].sum()
        assert np.array_equal(law[1:], ordered[~single])
        dead = np.isin(index.order, index.members(1))
        p[index.members(1)[0]] = 0.0
        rows, law = seen_resamples(monkeypatch, space, n0, p, 50, 95)
        ordered = p[index.order]
        assert rows.shape == (50, space.n_outcomes - dead.sum() - k + 2)
        assert law[0] == ordered[dead].sum() > 0
        assert law[1] == ordered[single].sum()
        assert np.array_equal(law[2:], ordered[~single & ~dead])
        assert (rows.sum(axis=1) == n0).all()
        p[index.order[single][1:]] = 0.0
        rows, law = seen_resamples(monkeypatch, space, n0, p, 50, 96)
        live = ordered > 0
        live[dead | single] = False
        live[0] = True
        assert np.array_equal(law, np.concatenate(
            ([p[index.order][~live].sum()], ordered[live])))
        assert (rows.sum(axis=1) == n0).all()


class TestLumpedPlan:
    # Every sample draws only a rest cell when some orbit is dead, a unit
    # cell when some singleton orbit is live, and the live multi-cell
    # orbits' cells; each row's law, chunks and seeds depend on that row
    # alone, whatever the live-orbit patterns of its neighbours.
    def test_no_live_orbit_draws_nothing(self, monkeypatch):
        # every orbit holds a zero cell: the weights are exactly 0, and
        # nothing is drawn
        def fail(*args):
            raise AssertionError("drew a resample")

        monkeypatch.setattr(inference_mod._LumpedLaw, "masses", fail)
        for space in (SampleSpace(2, 9), SampleSpace(2, 3)):
            index = space.orbit_index()
            counts = np.random.default_rng(85).integers(1, 20,
                                                        space.n_outcomes)
            counts[[index.members(z)[0] for z in range(index.n_classes)]] = 0
            c = CountVector(space, counts)
            est = estimate(c, n_boot=300, seed=86)
            assert est.lambda_hat == 0.0 and est.bias_boot == 0.0
            assert est.se_boot == 0.0 and est.lambda_corrected == 0.0
            boot = bootstrap_distribution(c, n_boot=300, seed=86)
            assert not boot.any()

    def test_zero_mass_rest_never_drawn(self, monkeypatch):
        # zero out one whole orbit and nothing else: it is the only dead
        # orbit, so the rest cell has mass 0 and must stay empty, at a
        # small and a large n0
        space = SampleSpace(3, 6)
        p = np.random.default_rng(87).uniform(1.0, 2.0, 729)
        p[space.orbit_index().members(5)] = 0.0
        p /= p.sum()
        for n0 in (20000, 300000):
            rows, law = seen_resamples(monkeypatch, space, n0, p, 500, 88)
            assert law[0] == 0.0
            # the three constants are one unit cell
            assert len(law) == 729 - len(space.orbit_index().members(5)) - 1
            assert (rows[:, 0] == 0).all()
            assert (rows.sum(axis=1) == n0).all()

    @pytest.mark.parametrize("n", [10000, 400000], ids=["n=10000",
                                                        "multinomial"])
    def test_row_bits_do_not_depend_on_neighbours(self, n):
        # each row of a stack draws the same bits as alone, beside rows
        # whose drawn cells, and so chunk plans, differ from its own: at
        # n = 10000, 65, 722 and 727 cells; at 400000, 727 cells each
        # (every orbit live, the three constants one unit cell)
        space = SampleSpace(3, 6)
        rng = np.random.default_rng(89)
        laws = [rng.dirichlet(np.full(729, a)) for a in (1.0, 5.0, 30.0)]
        counts = np.array([rng.multinomial(n, q) for q in laws])
        cells = [drawn_cells(CountVector(space, row)) for row in counts]
        assert cells == ([65, 722, 727] if n == 10000 else [727] * 3)
        seeds = np.random.SeedSequence(90).spawn(3)
        stack = estimate(CountVector(space, counts), n_boot=200, seed=seeds)
        for i in range(3):
            one = estimate(CountVector(space, counts[i]), n_boot=200,
                           seed=seeds[i])
            assert stack.se_boot[i] == one.se_boot
            assert stack.bias_boot[i] == one.bias_boot

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("block", [2**15, 1050, 100],
                             ids=["one-task", "shared", "split"])
    def test_mixed_patterns_equal_lone_estimates(self, monkeypatch, threads,
                                                 block):
        # one stack of every layout: with and without a rest cell, 0, 1 or
        # 2 live singletons, only singletons, only a 3-cell orbit, and no
        # live orbit; rows share one task, a few rows share a task, or a
        # row splits into chunks of 14 resamples.  Each row is its lone
        # estimate, bit for bit
        space = SampleSpace(2, 3)
        counts = np.array([[30, 5, 9, 14, 2, 11, 7, 22],   # no rest, 2
                           [30, 0, 9, 14, 2, 11, 7, 22],   # rest, 2
                           [30, 5, 9, 14, 2, 11, 7, 0],    # rest, 000
                           [0, 5, 9, 14, 2, 11, 7, 22],    # rest, 111
                           [0, 5, 9, 14, 2, 11, 7, 0],     # rest, none
                           [40, 0, 3, 0, 0, 0, 0, 12],     # singletons
                           [50, 0, 0, 0, 0, 0, 0, 0],      # 000 alone
                           [0, 4, 0, 6, 0, 0, 0, 0],       # no live orbit
                           [0, 4, 5, 0, 6, 0, 0, 0],       # 3-cell orbit
                           [12, 3, 8, 1, 6, 9, 2, 5]])     # no rest, 2
        cells = [drawn_cells(CountVector(space, row)) for row in counts]
        assert cells == [7, 5, 8, 8, 7, 2, 2, 0, 4, 7]
        monkeypatch.setattr(inference_mod, "_BLOCK_CELLS", block)
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 4)
        seeds = np.random.SeedSequence(97).spawn(len(counts))
        stack = estimate(CountVector(space, counts), n_boot=50, seed=seeds,
                         threads=threads)
        for i, (row, s) in enumerate(zip(counts, seeds)):
            one = estimate(CountVector(space, row), n_boot=50, seed=s,
                           threads=threads)
            for field in ("lambda_hat", "lambda_corrected", "se_boot",
                          "bias_boot", "n", "resample_size"):
                assert getattr(stack, field)[i] == getattr(one, field)

    @pytest.mark.parametrize("counts", [
        [3, 1, 2, 1, 2, 1, 1, 2], [3, 1, 2, 1, 2, 1, 1, 0],
        [0, 1, 2, 1, 2, 1, 1, 2], [3, 0, 2, 1, 2, 1, 1, 2],
        [0, 0, 2, 1, 0, 1, 1, 0]],
        ids=["both-singletons", "000-only", "111-only", "orbit-dead",
             "one-live-orbit"])
    def test_masses_follow_exact_law(self, counts):
        # 20 000 W* of multinomial (10, counts / n) triplet resamples: the
        # sample mean and the sample variance each within 5 standard
        # errors of the exact law's, which enumerates all 19 448 resamples
        space, n0, reps = SampleSpace(2, 3), 10, 20000
        p = np.array(counts) / sum(counts)
        w = np.concatenate([w for _, _, w in inference_mod.multinomial_masses(
            space, np.array([n0]), p[None, :], reps, [98])]).astype(float)
        mean, var, mu4 = (float(v) for v in triplet_mass_moments(counts, n0))
        assert abs(w.mean() - mean) < 5 * math.sqrt(var / reps)
        se_var = math.sqrt((mu4 - var**2 * (reps - 3) / (reps - 1)) / reps)
        assert abs(w.var(ddof=1) - var) < 5 * se_var

    def test_sparse_k4d6_pool_width_does_not_change_bits(self, monkeypatch):
        space = SampleSpace(4, 6)
        rng = np.random.default_rng(91)
        c = CountVector(space, rng.multinomial(
            60000, rng.dirichlet(np.ones(4096))))
        # 139 drawn cells, chunks of 235 resamples
        assert drawn_cells(c) == 139
        out = []
        for cpus in (1, 2, 16):
            monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: cpus)
            out.append((estimate(c, n_boot=1000, seed=92),
                        bootstrap_distribution(c, n_boot=1000, seed=92)))
        for est, boot in out[1:]:
            assert est == out[0][0]
            assert np.array_equal(boot, out[0][1])


#: Resample sizes at the edges of the int64 chunk sums (``n0 < 2**24``)
#: and of the exactness bound.
_EDGE_N0 = [1, 2**24 - 1, 2**24, 2**52]


@st.composite
def _boot_cases(draw):
    """A sample or a stack of random small counts (ties and zero cells
    throughout; row 0 optionally with no live orbit), a resample size,
    ``n_boot``, a seed and a chunk size."""
    space = draw(st.sampled_from([SampleSpace(2, 2), SampleSpace(2, 3),
                                  SampleSpace(3, 2)]))
    rows = draw(st.integers(1, 3))
    counts = np.array(draw(st.lists(
        st.lists(st.integers(0, 4), min_size=space.n_outcomes,
                 max_size=space.n_outcomes), min_size=rows, max_size=rows)))
    counts[:, -1] += counts.sum(axis=1) == 0
    if draw(st.booleans()):
        index = space.orbit_index()
        counts[0, [index.members(z)[0] for z in range(index.n_classes)]] = 0
        counts[0, index.members(1)[-1]] += 1      # orbit 1 is not a singleton
    n0 = draw(st.one_of(st.none(), st.sampled_from(_EDGE_N0),
                        st.integers(1, 2**52)))
    return (space, counts, n0, draw(st.integers(2, 40)),
            draw(st.integers(0, 2**32)), draw(st.sampled_from([2**15, 40])))


class TestExactSummaries:
    # Every bootstrap summary is its exact value over the drawn resamples
    # rounded once, and se / sd the root of the correctly rounded
    # variance; the draws come from the plain-loop chunk oracle.
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_boot_cases(), st.booleans())
    def test_estimate_matches_fraction_oracle(self, case, stack):
        space, counts, n0, n_boot, seed, block = case
        counts = counts if stack else counts[:1]
        seqs = (np.random.SeedSequence(seed).spawn(len(counts)) if stack
                else [np.random.SeedSequence(seed)])
        c = CountVector(space, counts if stack else counts[0])
        fields = ("lambda_hat", "lambda_corrected", "se_boot", "bias_boot")
        got = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference_mod, "_BLOCK_CELLS", block)
            mp.setattr(inference_mod, "_usable_cpus", lambda: 4)
            for threads in (1, 2):
                est = estimate(c, n_boot=n_boot, resample_size=n0,
                               seed=seqs if stack else seed, threads=threads)
                got.append([np.atleast_1d(getattr(est, f)) for f in fields])
        assert all(np.array_equal(a, b) for a, b in zip(*got))
        lam_hat, corrected_got, se, bias_got = got[0]
        index = space.orbit_index()
        for j, row in enumerate(counts):
            n = int(row.sum())
            size = n0 or n
            masses = chunked_masses_oracle(row / n, size, n_boot, space.k,
                                           space.d, seqs[j], block)
            mass = int(index.class_minima_rows(row) @ index.sizes)
            bias, corrected, var = exact_summaries(masses, size, mass, n)
            assert lam_hat[j] == mass / n
            assert bias_got[j] == float(bias)
            assert corrected_got[j] == float(corrected)
            assert se[j] == math.sqrt(float(var))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([SampleSpace(2, 2), SampleSpace(2, 3),
                            SampleSpace(3, 2)]),
           st.lists(st.one_of(st.sampled_from(_EDGE_N0),
                              st.integers(1, 2**52)), min_size=1, max_size=3),
           st.integers(2, 40), st.integers(0, 2**32))
    def test_sample_size_heuristic_matches_fraction_oracle(self, space, sizes,
                                                           reps, seed):
        rows = sample_size_heuristic(space, sizes, reps=reps, seed=seed)
        p = worst_case_source(space).p
        children = np.random.SeedSequence(seed).spawn(len(sizes))
        for row, n, child in zip(rows, sizes, children):
            masses = chunked_masses_oracle(p, n, reps, space.k, space.d,
                                           child)
            bias, _, var = exact_summaries(masses, n, n, n)
            assert row.n == n
            assert row.mean_bias == float(bias)
            assert row.sd == math.sqrt(float(var))


class TestAsymptoticVariance:
    def test_unique_argmin_closed_form(self, unique_argmin_fixture):
        # by hand: m = (0.4, 0.1, 0.3), |z| = (1, 2, 1)
        # diag = 0.4*0.6 + 4*0.1*0.9 + 0.3*0.7 = 0.81
        # cross = 0.9^2 - (0.4^2 + 0.2^2 + 0.3^2) = 0.81 - 0.29 = 0.52
        assert abs(asymptotic_variance(unique_argmin_fixture) - 0.29) < 1e-12

    def test_point_mass_variance_zero(self, space23):
        assert asymptotic_variance(
            Distribution.point_mass(space23, "000")) == 0.0

    def test_tied_argmin_rejected(self, space22):
        with pytest.raises(TiedArgminError):
            asymptotic_variance(Distribution.uniform(space22))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([SampleSpace(2, 2), SampleSpace(2, 3),
                            SampleSpace(3, 2), SampleSpace(3, 3),
                            SampleSpace(2, 4)]),
           st.sampled_from([1, 3, 60, 2**20, 2**40, 2**47]),
           st.booleans(), st.data())
    def test_matches_fraction_oracle(self, space, top, exact, data):
        # a law of counts below 2**53 in total, or an exact law whose cells
        # have their own denominators of up to 64 bits; the exact value is
        # rounded once, and a tie above 0 raises
        cells = space.n_outcomes
        counts = data.draw(st.lists(st.integers(0, top), min_size=cells,
                                    max_size=cells).filter(any))
        if exact:
            dens = data.draw(st.lists(st.integers(1, 2**64), min_size=cells,
                                      max_size=cells))
            fracs = [Fraction(c, b) for c, b in zip(counts, dens)]
            fracs = [f / sum(fracs) for f in fracs]
            p = Distribution(space, fracs)
        else:
            fracs = [Fraction(c, sum(counts)) for c in counts]
            p = empirical_distribution(CountVector(space, counts))
        want = limit_variance_oracle(fracs, space.k, space.d)
        if want is None:
            with pytest.raises(TiedArgminError):
                asymptotic_variance(p)
        else:
            assert asymptotic_variance(p) == float(want)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([SampleSpace(2, 2), SampleSpace(2, 3),
                            SampleSpace(3, 2), SampleSpace(3, 3)]),
           st.data())
    def test_float_law_matches_fraction_oracle(self, space, data):
        # a float law's variance is the exact value of its own floats,
        # each taken as a Fraction, rounded once, and a tie above 0
        # raises.  Cells of integers / 997 are zero, equal, or apart by
        # far more than the float tie tolerance of 1e-9
        cells = space.n_outcomes
        w = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=cells,
                                        max_size=cells).filter(any))) / 997
        p = Distribution(space, w / w.sum())
        want = limit_variance_oracle([Fraction(x) for x in p.p.tolist()],
                                     space.k, space.d)
        if want is None:
            with pytest.raises(TiedArgminError):
                asymptotic_variance(p)
        else:
            assert asymptotic_variance(p) == float(want)

    @pytest.mark.parametrize("tied", [False, True])
    def test_memory_is_bounded(self, tied):
        # (36,3) has 8 436 orbits: a covariance over their argmin cells
        # would be 8 436^2 float64 values (543 MiB)
        space = SampleSpace(36, 3)
        w = np.random.default_rng(36).dirichlet(np.ones(space.n_outcomes))
        if tied:        # every cell of orbit {0,1,2} at its minimum
            for perm in itertools.permutations("012"):
                w[space.index_of("".join(perm))] = w[space.index_of("012")]
        p = Distribution(space, w / w.sum())
        tracemalloc.start()
        try:
            if tied:
                with pytest.raises(TiedArgminError):
                    asymptotic_variance(p)
            else:
                assert asymptotic_variance(p) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_matches_monte_carlo(self, unique_argmin_fixture):
        # oracle: simulated variance of sqrt(n)(lam_hat - lam) with the
        # plug-in weight recomputed by hand
        rng = np.random.default_rng(11)
        n, reps = 10**5, 4000
        freqs = rng.multinomial(n, unique_argmin_fixture.p, size=reps) / n
        lam_hats = lam_hat_rows_22(freqs)
        mc_var = np.var(np.sqrt(n) * (lam_hats - 0.9), ddof=1)
        assert abs(mc_var - 0.29) / 0.29 < 0.08


class TestLimitLaw:
    def test_variance_matches_closed_form(self, unique_argmin_fixture):
        draws = limit_law_sample(unique_argmin_fixture, 4 * 10**5, seed=5)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var(ddof=1) - 0.29) / 0.29 < 0.01

    def test_tied_case_negative_mean(self):
        # each block's minimum is sqrt(m_z)*min(xi) plus a term shared by
        # all cells, of mean 0, so the limit mean is
        # -sum_z |z| sqrt(m_z) e_b over the orbits' argmin blocks, e_b the
        # mean of the largest of b standard normals: e_1 = 0,
        # e_2 = 1/sqrt(pi), e_3 = 3/(2 sqrt(pi)).  Uniform (2,2): one
        # block of 2 at 1/4; uniform (2,3): two orbits of 3, each a block
        # of 3 at 1/8; mixed32: 01 and 10 at 3/20 (12 and 21 tie at 0)
        e2, e3 = 1 / math.sqrt(math.pi), 1.5 / math.sqrt(math.pi)
        for p, mean in [
                (Distribution.uniform(SampleSpace(2, 2)), -2 * 0.5 * e2),
                (Distribution.uniform(SampleSpace(2, 3)),
                 -2 * 3 * math.sqrt(1 / 8) * e3),
                (Distribution.from_mapping(SampleSpace(3, 2), MIXED32,
                                           exact=True),
                 -2 * math.sqrt(3 / 20) * e2)]:
            draws = limit_law_sample(p, 4 * 10**5, seed=3)
            se = draws.std(ddof=1) / math.sqrt(len(draws))
            assert abs(draws.mean() - mean) < 4 * se, (p, draws.mean(), mean)

    def test_degenerate_point_mass(self, space23):
        draws = limit_law_sample(Distribution.point_mass(space23, "000"),
                                 1000, seed=7)
        assert np.all(draws == 0.0)

    def test_memory_is_bounded(self):
        # every cell of the uniform (36,3) law is retained: a covariance
        # over them would be 46 656^2 float64 values (16 GiB)
        p = Distribution.uniform(SampleSpace(36, 3))
        tracemalloc.start()
        try:
            draws = limit_law_sample(p, 10, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("space,law", [
        (SampleSpace(2, 2), None),
        (SampleSpace(2, 3), None),
        (SampleSpace(3, 2), MIXED32),
    ], ids=["uniform22", "uniform23", "mixed32"])
    def test_tied_matches_mvn_reference(self, space, law):
        # the closed-form draws against draws of the covariance itself
        p = (Distribution.uniform(space) if law is None
             else Distribution.from_mapping(space, law, exact=True))
        with pytest.raises(TiedArgminError):
            asymptotic_variance(p)
        draws = limit_law_sample(p, 20000, seed=21)
        ref = limit_law_mvn_oracle([Fraction(x) for x in p.p.tolist()],
                                   space.k, space.d, 20000,
                                   np.random.default_rng(22))
        assert stats.ks_2samp(draws, ref).statistic < 0.03
        assert abs(draws.mean() - ref.mean()) < 0.05


class TestBootstrapDistribution:
    def test_degenerate_counts(self, space23):
        c = CountVector.from_mapping(space23, {"000": 40})
        reps = bootstrap_distribution(c, n_boot=200, seed=8)
        assert np.all(reps == 0.0)

    def test_full_bootstrap_matches_limit_law(self, unique_argmin_fixture):
        rng = np.random.default_rng(12)
        n = 10**5
        counts = rng.multinomial(n, unique_argmin_fixture.p)
        c = CountVector(unique_argmin_fixture.space, counts)
        reps = bootstrap_distribution(c, n_boot=2000, seed=13)
        limit = limit_law_sample(unique_argmin_fixture, 10**5, seed=14)
        ks = stats.ks_2samp(reps, limit).statistic
        assert ks <= 0.04

    def test_subsample_bootstrap_matches_limit_law(self, unique_argmin_fixture):
        rng = np.random.default_rng(15)
        n = 10**5
        counts = rng.multinomial(n, unique_argmin_fixture.p)
        c = CountVector(unique_argmin_fixture.space, counts)
        reps = bootstrap_distribution(c, n_boot=2000,
                                      resample_size=subsample_size(n), seed=16)
        limit = limit_law_sample(unique_argmin_fixture, 10**5, seed=17)
        ks = stats.ks_2samp(reps, limit).statistic
        assert ks <= 0.05

    @pytest.mark.parametrize("kwargs,match", [
        ({"n_boot": 1}, "n_boot"), ({"n_boot": 0}, "n_boot"),
        ({"n_boot": 3, "resample_size": 0}, "resample_size")])
    def test_bad_sizes_raise(self, space22, kwargs, match):
        # as estimate does, instead of dividing by zero or drawing nothing
        c = CountVector(space22, [5, 5, 5, 5])
        with pytest.raises(ValueError, match=match):
            bootstrap_distribution(c, seed=1, **kwargs)

    @pytest.mark.parametrize("size", [2**53, 2**63, 2**70])
    def test_resample_size_below_max_count(self, space22, size):
        # a ValueError, as for counts, not an OverflowError from numpy
        c = CountVector(space22, [5, 5, 5, 5])
        with pytest.raises(ValueError, match="below 2\\*\\*53"):
            estimate(c, n_boot=2, resample_size=size, seed=1)
        with pytest.raises(ValueError, match="below 2\\*\\*53"):
            bootstrap_distribution(c, n_boot=2, resample_size=size, seed=1)

    @pytest.mark.parametrize("size", [2.7, 0.5, float("nan"),
                                      float("inf")])
    def test_fractional_resample_size_raises(self, space22, size):
        # not truncated to an integer n0 in silence
        c = CountVector(space22, [5, 5, 5, 5])
        with pytest.raises(ValueError, match="integer"):
            estimate(c, n_boot=2, resample_size=size, seed=1)
        with pytest.raises(ValueError, match="integer"):
            bootstrap_distribution(c, n_boot=2, resample_size=size, seed=1)

    def test_integral_float_resample_size_is_that_integer(self, space22):
        c = CountVector(space22, [40, 10, 20, 30])
        est = estimate(c, n_boot=50, resample_size=2.0, seed=1)
        assert est == estimate(c, n_boot=50, resample_size=2, seed=1)
        assert type(est.resample_size) is int and est.resample_size == 2
        assert np.array_equal(
            bootstrap_distribution(c, n_boot=50, resample_size=2.0, seed=1),
            bootstrap_distribution(c, n_boot=50, resample_size=2, seed=1))

    def test_largest_resample_size_runs(self, space22):
        c = CountVector(space22, [5, 5, 5, 5])
        est = estimate(c, n_boot=2, resample_size=2**53 - 1, seed=1)
        assert est.resample_size == 2**53 - 1
        # the sample has weight 1, so no replicate lies above it
        reps = bootstrap_distribution(c, n_boot=2, resample_size=2**53 - 1,
                                      seed=1)
        assert np.all(np.isfinite(reps) & (reps <= 0))

    def test_scaling_uses_resample_size(self, space22):
        c = CountVector(space22, [40, 10, 20, 30])
        small = bootstrap_distribution(c, n_boot=500, resample_size=25,
                                       seed=18)
        lam_hat = exchangeable_weight(
            Distribution(space22, c.counts / c.n))
        # replicate values are sqrt(25) * (lam* - lam_hat); with 25 draws
        # the replicate weights live on a 0.04 grid
        grid = np.round((small / 5 + lam_hat) / 0.04)
        assert np.allclose(grid * 0.04, small / 5 + lam_hat, atol=1e-12)


class TestSampleSizeHeuristic:
    def test_worst_case_source(self, space23):
        t = worst_case_source(space23)
        assert t.p[0] == 0.0 and t.p[7] == 0.0
        assert np.allclose(t.p[1:7], 1 / 6)
        assert abs(exchangeable_weight(t) - 1.0) < 1e-12

    def test_negative_bias_at_n100(self, space23):
        rows = sample_size_heuristic(space23, [100], reps=4000, seed=20)
        assert rows[0].mean_bias < -0.05
        assert rows[0].sd > 0.0

    def test_bias_vanishes_at_large_n(self, space23):
        rows = sample_size_heuristic(space23, [10**6], reps=60, seed=21)
        assert abs(rows[0].mean_bias) <= 0.01

    def test_two_reps_smoke(self, space23):
        rows = sample_size_heuristic(space23, [50, 100], reps=2, seed=22)
        assert len(rows) == 2
        assert rows[0].n == 50 and rows[1].n == 100

    def test_rejects_bad_args(self, space23):
        with pytest.raises(ValueError):
            sample_size_heuristic(space23, [100], reps=1, seed=0)
        with pytest.raises(ValueError):
            sample_size_heuristic(space23, [0], reps=10, seed=0)


class TestAsymptotics:
    def test_consistency_in_n(self, unique_argmin_fixture):
        # median absolute error shrinks along n = 10^2..10^5
        rng = np.random.default_rng(23)
        lam = 0.9
        medians = []
        for n in (100, 1000, 10000, 100000):
            freqs = rng.multinomial(n, unique_argmin_fixture.p,
                                    size=300) / n
            lam_hats = lam_hat_rows_22(freqs)
            medians.append(np.median(np.abs(lam_hats - lam)))
        assert medians[-1] < 0.005
        for a, b in zip(medians, medians[1:]):
            assert b <= a * 1.25 + 1e-4   # slack for Monte Carlo noise
        assert medians[-1] < medians[0]

    def test_negative_bias_small_n(self, space23):
        # Jensen: plug-in weights are biased down for structured sources
        rng = np.random.default_rng(24)
        t = worst_case_source(space23)
        freqs = rng.multinomial(100, t.p, size=4000) / 100
        index = t.space.orbit_index()
        mins = np.minimum.reduceat(freqs[:, index.order], index.starts,
                                   axis=1)
        lam_hats = mins @ index.sizes
        se = lam_hats.std(ddof=1) / np.sqrt(len(lam_hats))
        assert lam_hats.mean() <= 1.0 + 2 * se

    def test_clt_unique_argmin(self, unique_argmin_fixture):
        # standardized sqrt(n)(lam_hat - lam)/sqrt(V) ~ N(0,1) at n=1e5
        rng = np.random.default_rng(25)
        n, reps = 10**5, 2500
        freqs = rng.multinomial(n, unique_argmin_fixture.p, size=reps) / n
        lam_hats = lam_hat_rows_22(freqs)
        z = np.sqrt(n) * (lam_hats - 0.9) / np.sqrt(0.29)
        pvalue = stats.kstest(z, "norm").pvalue
        assert pvalue > 0.01
