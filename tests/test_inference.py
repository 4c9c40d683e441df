import concurrent.futures
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import latentw.inference as inference_mod

from latentw import (CountVector, Distribution, SampleSpace,
                     asymptotic_variance, bootstrap_distribution,
                     empirical_distribution, estimate, exchangeable_weight,
                     limit_law_sample, limit_law_spec, sample_size_heuristic,
                     subsample_size, worst_case_source)
from latentw.errors import EmptySampleError, TiedArgminError
from latentw.exchangeable import exchangeable_weight_rows
from latentw.inference import TIED_ARGMIN, UNIQUE_ARGMIN
from oracle_utils import (brute_weight_vector, chunked_replicates_oracle,
                          lumped_law_oracle)

#: 256 outcomes; :func:`sample44` draws 22 to 49 cells of them, so a
#: chunk of the bootstrap holds 668 to 1489 resamples.
SPACE44 = SampleSpace(4, 4)
#: 729 outcomes: a law of at least 512 drawn cells is drawn by Poisson
#: cells while ``3*sqrt(n0) <= 2 * cells``.
SPACE36 = SampleSpace(3, 6)


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
            assert inference_mod.empirical_regularity(
                CountVector(space, counts)) == (TIED_ARGMIN if tied
                                                else UNIQUE_ARGMIN)

    def test_limit_law_ties_counts_exactly(self, space22):
        # counts one apart are not tied, however large n is
        c = CountVector(space22, [3 * 10**10, 10**10, 10**10 + 1, 2 * 10**10])
        assert inference_mod.empirical_regularity(c) == UNIQUE_ARGMIN
        p = empirical_distribution(c)
        assert limit_law_spec(p).argmin_sets == ((0,), (1,), (3,))
        assert asymptotic_variance(p) > 0.0

    def test_empty_sample(self, space22):
        with pytest.raises(EmptySampleError):
            estimate(CountVector(space22, [0, 0, 0, 0]), n_boot=10)

    def test_subsample_size(self):
        assert subsample_size(10000) == 200
        assert subsample_size(101) == 21


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
        # rows of 22, 39 and 44 drawn cells, so of 2, 2 and 3 chunks: the
        # stack and the lone estimates draw them on a pool of two workers,
        # with the same bits
        monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: 2)
        counts = np.array([sample44(s).counts for s in (60, 61, 62)])
        assert [drawn_cells(CountVector(SPACE44, row))
                for row in counts] == [22, 39, 44]
        seeds = np.random.SeedSequence(63).spawn(3)
        stack = estimate(CountVector(SPACE44, counts), n_boot=1500,
                         seed=seeds)
        for i, (row, s) in enumerate(zip(counts, seeds)):
            one = estimate(CountVector(SPACE44, row), n_boot=1500, seed=s)
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

    def map(self, fn, *items):
        return map(fn, *items)


class TestChunkedBootstrap:
    @pytest.mark.parametrize("seed", [52, np.random.SeedSequence(51).spawn(
        3)[2]], ids=["int", "spawned"])
    @pytest.mark.parametrize("resample_size", [None, 40])
    def test_estimate_matches_oracle(self, seed, resample_size):
        # 1500 resamples of 49 drawn cells: chunks of 668, 668 and 164
        c = sample44(50)
        assert drawn_cells(c) == 49
        est = estimate(c, n_boot=1500, resample_size=resample_size,
                       seed=seed)
        n0 = resample_size or c.n
        seq = (np.random.SeedSequence(seed) if isinstance(seed, int)
               else seed)
        reps = chunked_replicates_oracle(c.counts / c.n, n0, 1500, 4, 4, seq)
        assert abs(est.lambda_hat + est.bias_boot - np.mean(reps)) < 1e-12
        assert abs(est.se_boot - np.std(reps, ddof=1)) < 1e-12

    def test_bootstrap_distribution_matches_oracle(self):
        # 39 drawn cells: chunks of 840, 840 and 320
        c = sample44(53)
        assert drawn_cells(c) == 39
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
        # 4096 resamples of 8 cells fill exactly one chunk: every orbit is
        # live, so the draws are those of one multinomial call on the seed
        # over the law in orbit order, with no rest cell
        c = CountVector(space23, [30, 5, 9, 14, 2, 11, 7, 22])
        order = space23.orbit_index().order
        draws = np.empty((4096, 8), dtype=np.int64)
        draws[:, order] = np.random.default_rng(56).multinomial(
            c.n, (c.counts / c.n)[order], size=4096)
        reps = exchangeable_weight_rows(space23, draws, total=c.n)
        est = estimate(c, n_boot=4096, seed=56)
        assert est.se_boot == reps.std(ddof=1)
        assert est.bias_boot == reps.mean() - est.lambda_hat
        boot = bootstrap_distribution(c, n_boot=4096, seed=56)
        assert np.array_equal(boot,
                              np.sqrt(c.n) * (reps - est.lambda_hat))

    def test_pool_width_does_not_change_bits(self, monkeypatch):
        # 42 drawn cells: 6000 resamples in 8 chunks of up to 780
        c = sample44(57)
        assert drawn_cells(c) == 42
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
        assert drawn_cells(c) == 39                      # chunks of 840
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
        # task still 1, and the bits are those of one thread; 44 drawn
        # cells make 3 chunks a row
        c = sample44(62)
        assert drawn_cells(c) == 44
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
        rng = np.random.default_rng(64)
        counts = rng.multinomial(300, rng.dirichlet(np.ones(8)), size=10)
        c = CountVector(SampleSpace(2, 3), counts)
        seeds = np.random.SeedSequence(65).spawn(10)
        whole = estimate(c, n_boot=50, seed=seeds)
        monkeypatch.setattr(inference_mod, "_GROUP_REPLICATES",
                            rows_per_group * 50)
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
    (six cells) are dead: 723 drawn cells, a rest cell holding the other
    five cells of the 000001 orbit."""
    counts = np.random.default_rng(seed).integers(1, 6, 729)
    counts[[0, 1]] = 0
    return CountVector(SPACE36, counts)


class TestPoissonPlan:
    # A law of at least 512 drawn cells with 3*sqrt(n0) <= 2 * cells is
    # drawn as Poisson cells completed to n0; the oracle redoes the plan
    # and the alias table in plain loops, so the bits must agree.
    @pytest.mark.parametrize("resample_size", [None, 1, 232324, 232325],
                             ids=["n", "n0=1", "last-poisson",
                                  "first-multinomial"])
    def test_estimate_matches_oracle(self, resample_size):
        # 723 drawn cells: Poisson up to n0 = (2 * 723 / 3)**2 = 232324
        c = sample36(70)
        assert drawn_cells(c) == 723
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

    def test_rule(self):
        # the rule reads the drawn cells m and n0 alone; the measured
        # frontier (Poisson faster at 1 thread on the left)
        takes = inference_mod._takes_poisson
        assert takes(512, 25600) and takes(1242, 62100)
        assert takes(4096, 10**6) and takes(1242, 204800)
        assert not takes(512, 10**6) and not takes(1242, 10**6)
        assert not takes(1242, 10**7) and not takes(4096, 10**7)
        assert not takes(128, 6400) and not takes(264, 13200)
        assert takes(729, 236196) and not takes(729, 236197)
        assert takes(512, 1) and not takes(511, 1)
        # triplets (8 cells) keep Generator.multinomial at any coverage
        assert not any(takes(8, n) for n in (1, 10, 100, 10**6))

    def test_pool_width_does_not_change_bits(self, monkeypatch):
        # every cell drawn: 4096 cells, Poisson, chunks of 8
        space = SampleSpace(4, 6)
        rng = np.random.default_rng(75)
        c = CountVector(space, rng.multinomial(
            50000, rng.dirichlet(np.ones(4096))) + 1)
        assert drawn_cells(c) == 4096
        assert inference_mod._takes_poisson(4096, c.n)
        out = []
        for cpus in (1, 2, 16):
            monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: cpus)
            out.append((estimate(c, n_boot=40, seed=76),
                        bootstrap_distribution(c, n_boot=40, seed=76)))
        for est, boot in out[1:]:
            assert est == out[0][0]
            assert np.array_equal(boot, out[0][1])


def seen_resamples(monkeypatch, space, n0, p, size, seed):
    """The resamples that ``multinomial_weights`` draws, captured at the
    one draw site of both samplers, and the law they are drawn from, which
    must be :func:`lumped_law_oracle`'s.  ``(None, None)`` when nothing
    is drawn."""
    seen = []
    draws = inference_mod._LumpedLaw.draws

    def spy(law, rng, size):
        seen.append((law.law, draws(law, rng, size).copy()))
        return seen[-1][1]

    monkeypatch.setattr(inference_mod._LumpedLaw, "draws", spy)
    inference_mod.multinomial_weights(space, np.array([n0]), p[None, :],
                                      size, [seed], threads=1)
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


class TestAliasTable:
    @staticmethod
    def implied(prob, alias):
        # each column is 1/K: prob of its own cell, the rest of its alias
        mass = prob.copy()
        np.add.at(mass, alias, 1.0 - prob)
        return mass / len(prob)

    @pytest.mark.parametrize("p", [
        [0.125, 0.375, 0.125, 0.375], [0.0, 0.5, 0.0, 0.5],
        [0.25, 0.25, 0.0, 0.5], [0.5, 0.25, 0.25, 0.0], [0.0, 0.0, 0.0, 1.0],
        [0.25] * 4, [0.0625] * 4 + [0.125] * 2 + [0.0, 0.5]],
        ids=["ties", "zero-first", "zero-middle", "zero-last",
             "point-mass-last", "uniform", "dyadic-8"])
    def test_dyadic_laws_exact(self, p):
        # K*p and every running sum are exact, so deficits meet excesses
        # exactly and the table must give back p exactly
        p = np.array(p)
        prob, alias = inference_mod._alias_table(p)
        assert np.array_equal(self.implied(prob, alias), p)
        assert (prob[p == 0] == 0).all() and (p[alias[prob < 1]] > 0).all()

    def test_random_laws(self):
        rng = np.random.default_rng(90)
        for n_out in (1, 2, 3, 512, 729, 4096):
            for alpha in (0.05, 1.0, 30.0):
                p = rng.dirichlet(np.full(n_out, alpha))
                p[rng.random(n_out) < 0.3] = 0.0
                p = p / p.sum() if p.sum() else np.eye(n_out)[-1]
                prob, alias = inference_mod._alias_table(p)
                assert ((prob >= 0) & (prob <= 1)).all()
                assert np.abs(self.implied(prob, alias) - p).max() < 1e-12
                assert (prob[p == 0] == 0).all()
                assert (p[alias[prob < 1]] > 0).all()


class TestDrawPaths:
    # Both samplers give multinomial resamples of the drawn law: every
    # resample sums to n0 exactly, and a zero cell is never drawn.
    @pytest.mark.parametrize("k,d,n0", [
        (2, 10, 1), (2, 10, 700), (2, 10, 456075),  # Poisson
        (2, 10, 456076),                            # 1013 cells: multinomial
        (2, 10, 465125), (2, 9, 1), (2, 9, 700),    # multinomial
        (2, 9, 29127), (2, 9, 29128), (2, 3, 1), (2, 3, 500),
    ])
    def test_sums_and_zero_cells(self, monkeypatch, k, d, n0):
        # on (2, 10), law_with_zeros kills the orbit of 1000000000 (10
        # cells) and two constants: 1013 drawn cells, Poisson up to
        # n0 = 456075; the worst-case source draws 1023, up to 465124.
        # On (2, 9) they draw 502 and 511 cells, below the Poisson floor
        space = SampleSpace(k, d)
        laws = [law_with_zeros(space, 80), worst_case_source(space).p,
                np.eye(space.n_outcomes)[space.n_outcomes // 3]]
        for i, p in enumerate(laws):
            rows, law = seen_resamples(monkeypatch, space, n0, p, 200, 81 + i)
            if i == 2:
                # the point mass's orbit holds zero cells: no live orbit
                assert rows is None
                continue
            m = len(law)
            assert inference_mod._takes_poisson(m, n0) == (
                m >= 512 and 9 * n0 <= 4 * m * m)
            assert rows.shape == (200, m)
            assert (rows.sum(axis=1) == n0).all()
            assert (rows[:, law == 0] == 0).all()

    def test_worst_case_source_never_draws_constants(self, monkeypatch):
        # the constant outcomes are the only zero cells: they fill the
        # rest cell, of mass 0, and every other cell is live
        space = SampleSpace(2, 10)
        p = worst_case_source(space).p
        rows, law = seen_resamples(monkeypatch, space, 5000, p, 300, 82)
        assert law[0] == 0.0 and len(law) == 1024 - 2 + 1
        assert inference_mod._takes_poisson(len(law), 5000)
        assert (rows[:, 0] == 0).all()

    @pytest.mark.parametrize("k,d,n0", [(3, 6, 5000), (2, 9, 40000),
                                        (2, 3, 50)],
                             ids=["poisson", "multinomial-512", "triplet"])
    def test_moments(self, monkeypatch, k, d, n0):
        # cell means within 5 standard errors of n0*law, and every
        # covariance within 6 of n0*(diag law - law law^T); the standard
        # errors are those of the Gaussian limit, over 4000 resamples.  On
        # (3, 6) the three zero cells are constants: 727 drawn cells; on
        # the 512 outcomes of (2, 9), 502
        space = SampleSpace(k, d)
        rows, law = seen_resamples(monkeypatch, space, n0,
                                   law_with_zeros(space, 83), 4000, 84)
        assert inference_mod._takes_poisson(len(law), n0) == (k == 3)
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
                             ids=["triplet", "poisson", "multinomial"])
    def test_law_layout(self, monkeypatch, k, d, n0):
        # with every orbit live the law is p in orbit order, k**d cells and
        # no rest cell; with a dead orbit, its L live cells follow one rest
        # cell at index 0 holding the sum of the others in orbit order
        space = SampleSpace(k, d)
        index = space.orbit_index()
        p = np.random.default_rng(93).uniform(1.0, 2.0, space.n_outcomes)
        p /= p.sum()
        rows, law = seen_resamples(monkeypatch, space, n0, p, 50, 94)
        assert rows.shape == (50, space.n_outcomes)
        assert np.array_equal(law, p[index.order])
        dead = index.members(1)
        p[dead[0]] = 0.0
        rows, law = seen_resamples(monkeypatch, space, n0, p, 50, 95)
        in_live = np.ones(space.n_outcomes, dtype=bool)
        in_live[dead] = False
        assert rows.shape == (50, space.n_outcomes - len(dead) + 1)
        assert law[0] == p[dead].sum() > 0
        assert np.array_equal(law[1:], p[index.order][in_live[index.order]])
        assert (rows.sum(axis=1) == n0).all()


class TestLumpedPlan:
    # Every sample draws only the live orbits' cells and, when some orbit
    # is dead, a rest cell; each row's chunks and seeds depend on that row
    # alone.
    def test_no_live_orbit_draws_nothing(self, monkeypatch):
        # every orbit holds a zero cell: the weights are exactly 0, and no
        # sampler draws
        def fail(*args):
            raise AssertionError("drew a resample")

        monkeypatch.setattr(inference_mod._LumpedLaw, "draws", fail)
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
        # orbit, so the rest cell has mass 0 and must stay empty, on the
        # Poisson sampler (n0 = 20000) and on multinomial (300000)
        space = SampleSpace(3, 6)
        p = np.random.default_rng(87).uniform(1.0, 2.0, 729)
        p[space.orbit_index().members(5)] = 0.0
        p /= p.sum()
        for n0 in (20000, 300000):
            rows, law = seen_resamples(monkeypatch, space, n0, p, 500, 88)
            assert law[0] == 0.0
            assert len(law) == 729 - len(space.orbit_index().members(5)) + 1
            assert inference_mod._takes_poisson(len(law), n0) == (
                n0 == 20000)
            assert (rows[:, 0] == 0).all()
            assert (rows.sum(axis=1) == n0).all()

    @pytest.mark.parametrize("n", [10000, 400000], ids=["poisson",
                                                        "multinomial"])
    def test_row_bits_do_not_depend_on_neighbours(self, n):
        # each row of a stack draws the same bits as alone, beside rows
        # whose drawn cells, and so chunk plans and samplers, differ from
        # its own: at n = 10000, 67 cells by multinomial, then 724 and 729
        # by Poisson; at 400000, all 729 cells by multinomial
        space = SampleSpace(3, 6)
        rng = np.random.default_rng(89)
        laws = [rng.dirichlet(np.full(729, a)) for a in (1.0, 5.0, 30.0)]
        counts = np.array([rng.multinomial(n, q) for q in laws])
        cells = [drawn_cells(CountVector(space, row)) for row in counts]
        assert cells == ([67, 724, 729] if n == 10000 else [729] * 3)
        assert [inference_mod._takes_poisson(m, n) for m in cells] == (
            [False, True, True] if n == 10000 else [False] * 3)
        seeds = np.random.SeedSequence(90).spawn(3)
        stack = estimate(CountVector(space, counts), n_boot=200, seed=seeds)
        for i in range(3):
            one = estimate(CountVector(space, counts[i]), n_boot=200,
                           seed=seeds[i])
            assert stack.se_boot[i] == one.se_boot
            assert stack.bias_boot[i] == one.bias_boot

    def test_sparse_k4d6_pool_width_does_not_change_bits(self, monkeypatch):
        space = SampleSpace(4, 6)
        rng = np.random.default_rng(91)
        c = CountVector(space, rng.multinomial(
            60000, rng.dirichlet(np.ones(4096))))
        # 142 drawn cells: multinomial, chunks of 230 resamples
        assert drawn_cells(c) == 142
        assert not inference_mod._takes_poisson(142, c.n)
        out = []
        for cpus in (1, 2, 16):
            monkeypatch.setattr(inference_mod, "_usable_cpus", lambda: cpus)
            out.append((estimate(c, n_boot=1000, seed=92),
                        bootstrap_distribution(c, n_boot=1000, seed=92)))
        for est, boot in out[1:]:
            assert est == out[0][0]
            assert np.array_equal(boot, out[0][1])


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
    def test_spec_covariance_structure(self, unique_argmin_fixture):
        spec = limit_law_spec(unique_argmin_fixture)
        cov = spec.covariance
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > -1e-12)
        m = np.array([0.4, 0.1, 0.3])
        assert np.allclose(np.diag(cov), m * (1 - m))
        assert np.allclose(cov[0, 1], -0.4 * 0.1)

    def test_tied_cov_block(self, space22):
        spec = limit_law_spec(Distribution.uniform(space22))
        # orbit {01,10} retains both coordinates: within-block cov -m^2
        assert spec.covariance.shape == (4, 4)
        assert np.allclose(np.diag(spec.covariance), 0.25 * 0.75)
        assert np.allclose(spec.covariance[1, 2], -0.25**2)

    def test_variance_matches_closed_form(self, unique_argmin_fixture):
        draws = limit_law_sample(unique_argmin_fixture, 4 * 10**5, seed=5)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var(ddof=1) - 0.29) / 0.29 < 0.01

    def test_tied_case_negative_mean(self, space22):
        draws = limit_law_sample(Distribution.uniform(space22), 10**5, seed=6)
        assert draws.mean() < -0.1

    def test_degenerate_point_mass(self, space23):
        draws = limit_law_sample(Distribution.point_mass(space23, "000"),
                                 1000, seed=7)
        assert np.all(draws == 0.0)


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
