"""Estimation of exchangeable weights from multinomial samples.

The plug-in estimator is the exchangeable weight of the empirical
measure.  Being a sum of per-orbit minima it is concave in the cell
probabilities, hence negatively biased in finite samples (Jensen), and we
correct the bias with full-size multinomial bootstrap resampling:

    corrected = clamp(2*lam_hat - mean(lam_hat*), 0, 1)

where ``lam_hat*`` are the weights of resampled empirical measures.  The
module also provides the Gaussian limit of ``sqrt(n)(lam_hat - lam)``:
when every orbit minimum is uniquely achieved ("unique argmin", the
regular case) the limit is normal with a closed-form variance; with ties
the limit is a weighted sum of minima of correlated Gaussians, which we
sample by Monte Carlo instead of evaluating in closed form.

Every bootstrap here draws one law by one chunk plan.  A resample's
weight needs only its orbit minima, and a cell of probability 0 stays 0,
so an orbit holding one (a dead orbit) has minimum 0 throughout.  A
sample draws its lumped law: the cells of its live orbits in orbit
order, after one rest cell holding the mass of every other cell when
some orbit is dead, placed first since ``Generator.multinomial`` draws
nothing in, and spends no random bits on, a first cell of probability 0.
With every orbit live it is ``p`` in orbit order.  Lumping cells of a
multinomial gives a multinomial, so the live cells keep their exact
joint law.  A sample with no live orbit draws nothing: its weights are 0.

A law of ``m`` cells is drawn by one ``Generator.multinomial`` call a
chunk or, where :func:`_takes_poisson` picks it (never for a methylation
triplet), by :func:`_poisson_multinomial`, which gives the same law.  A
sample's ``n_boot`` resamples are cut into chunks of at most
``_BLOCK_CELLS = 2**15`` draw cells (resamples x ``m``, at least one
resample a chunk), planned from that sample alone, so a row of a stack
gets the same bits as by itself.  A sample that fits in one chunk draws
from its seed, and consecutive such samples of a stack share a task of at
most ``2**15`` draw cells.  Otherwise chunk ``i`` draws from
``SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (i,))``, the
seed that ``seed.spawn`` would give its ``i``-th child, without spawning
from the caller's seed.

Each chunk is reduced to its weights as soon as it is drawn, in one
place, :meth:`_LumpedLaw.weights`: ``sum |z| * min`` over the live
orbits, divided once by ``n0``.  So a worker holds about ``max(2**15,
m)`` int64 draw cells at a time: the draws and their minima, or the
draws and a piece's completion counts.  A sample keeps its law (8 bytes
a cell), and on the Poisson sampler its alias table (16 more).
The chunks run on a thread pool of up to one worker per usable CPU, since
numpy draws without the GIL, or fewer under ``estimate``'s ``threads``
cap or when the workers' chunks would pass ``_POOL_BYTES`` (1 GiB)
together; ``estimate`` reduces a stack in groups of at most
``_GROUP_REPLICATES`` resample weights.  The result is the same bits
whatever the number of workers or the size of the groups.
"""

from __future__ import annotations

import concurrent.futures
import numbers
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySampleError, TiedArgminError
# The bootstrap does not call exchangeable_weight_rows; the benchmark's
# tracer wraps it here.
from .exchangeable import (exchangeable_weight_rows,  # noqa: F401
                           argmin_sets, exchangeable_weight)
from .space import (MAX_COUNT, CountVector, Distribution, SampleSpace,
                    empirical_distribution, ratio)

UNIQUE_ARGMIN = "unique_argmin"
TIED_ARGMIN = "tied_argmin"

#: Eigenvalues of the limit covariance below this are a hard error.
EIGEN_FLOOR = -1e-12


#: Draw cells (resamples x the cells a resample draws) in one chunk of a
#: bootstrap: the unit of work of its pool, and the bound on the memory
#: one worker holds.
_BLOCK_CELLS = 2**15

#: Bytes the tasks of one bootstrap pool may hold at once.  A task holds
#: its draws and their minima, or its draws and a piece's completion
#: counts: within ``3 * 8 * max(_BLOCK_CELLS, k**d)`` bytes, as a law has
#: at most ``k**d`` cells, so a large ``k**d`` gets fewer workers.
_POOL_BYTES = 2**30

#: A Poisson resample of size ``n0`` is drawn at total rate
#: ``n0 - _SHORTFALL_SDS * sqrt(n0)``, so about 0.13% of them pass ``n0``
#: and are drawn again.
_SHORTFALL_SDS = 3.0

#: The Poisson sampler needs a law of at least this many drawn cells (and
#: ``_SHORTFALL_SDS * sqrt(n0) <= 2 * cells``).
_POISSON_MIN_CELLS = 512

#: The completion draws of a chunk are made in pieces of at most this many.
_PIECE_DRAWS = _BLOCK_CELLS // 4

#: Resample weights (rows x ``n_boot``) of one group of a stack in
#: :func:`estimate`: the bound on the replicate matrix it holds at once.
_GROUP_REPLICATES = 2**18


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a CPU quota of a container is not seen)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass(frozen=True)
class WeightEstimate:
    """Plug-in and bias-corrected exchangeable-weight estimates.

    For a stack of samples the numeric fields are ``(n,)`` arrays, one
    entry per row, and ``seed`` and ``regularity_flag`` are None.
    """

    lambda_hat: float          # weight of the empirical measure
    lambda_corrected: float    # 2*lambda_hat - mean(replicates), clamped to [0,1]
    se_boot: float             # sample sd of the bootstrap replicates
    bias_boot: float           # mean(replicates) - lambda_hat
    n: int
    n_boot: int
    resample_size: int
    seed: int | None
    regularity_flag: str | None  # UNIQUE_ARGMIN or TIED_ARGMIN


def resample_law(counts: np.ndarray, n_boot: int,
                 resample_size: int | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Resample sizes and cell probabilities of a stack of samples.

    ``counts`` is ``(n, k**d)``, one sample per row; the result is the
    ``(n,)`` resample sizes (default: the sample sizes) and the
    ``(n, k**d)`` probabilities ``counts / n``.  Validates the arguments
    for :func:`estimate` and :func:`bootstrap_distribution`.
    """
    n = counts.sum(axis=1)
    if not n.all():
        raise EmptySampleError("cannot estimate from an empty sample")
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    if resample_size is not None and resample_size % 1 != 0:
        raise ValueError("resample_size must be an integer")
    if resample_size is not None and resample_size >= MAX_COUNT:
        raise ValueError("resample_size must be below 2**53")
    n0 = n if resample_size is None else np.full(len(n), int(resample_size))
    if n0.min() < 1:
        raise ValueError("resample_size must be >= 1")
    return n0, counts / n[:, None]


def _takes_poisson(m: int, n0: int) -> bool:
    """True when a law of ``m`` drawn cells at resample size ``n0`` takes
    the Poisson sampler.  Measured frontier, Poisson over multinomial time
    of 1 000 resamples in the plan's chunks at 1 thread (Dirichlet(1)
    laws, 2-CPU Xeon, numpy 2.4), at ``3*sqrt(n0)`` = ``m``, ``2*m`` and
    ``3*m``: 0.55, 0.75 and 1.11 for 512 cells, 0.58, 0.81 and 1.06 for
    1 242, 0.66, 0.93 and 1.25 for 4 096; 0.57 on the k4d6 count table
    (1 242 cells, n0 204 800), 1.86 on k2d10 (68 cells, n0 51 200).
    Below 512 cells it measured 0.58 to 0.85 within ``2*m`` as well."""
    return m >= _POISSON_MIN_CELLS and _SHORTFALL_SDS * np.sqrt(n0) <= 2 * m


def _alias_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias table of the law ``p``: draw column ``i`` uniformly,
    then keep ``i`` with probability ``prob[i]``, else take ``alias[i]``.

    Built by one sweep in closed form.  Light cells (``k*p < 1``) fill
    their columns from the heavy cell that is current when the sweep
    reaches them: the first heavy cell whose running excess passes the
    running deficit before them.  A heavy cell that gives more than its
    excess keeps the rest of its column and takes its alias from the next
    heavy cell.  A zero cell keeps probability 0 and only heavy cells are
    aliases, so a cell of probability 0 is never drawn, whatever the
    rounding of the sums.
    """
    q = p * (len(p) / p.sum())
    is_heavy = q >= 1.0
    is_heavy[q.argmax()] = True
    light, heavy = np.flatnonzero(~is_heavy), np.flatnonzero(is_heavy)
    deficit = np.concatenate(([0.0], np.cumsum(1.0 - q[light])))
    excess = np.cumsum(q[heavy] - 1.0)
    prob, alias = q, np.arange(len(p))
    served_by = np.searchsorted(excess, deficit[:-1], side="right")
    alias[light] = heavy[np.minimum(served_by, len(heavy) - 1)]
    given = deficit[np.searchsorted(deficit[:-1], excess, side="left")]
    prob[heavy] = np.clip(1.0 - (given - excess), 0.0, 1.0)
    alias[heavy[:-1]] = heavy[1:]
    return prob, alias


def _poisson_multinomial(rng: np.random.Generator, n0: int, p: np.ndarray,
                         table: tuple[np.ndarray, np.ndarray], size: int,
                         ) -> np.ndarray:
    """``size`` multinomial ``(n0, p)`` draws: Poisson cells at
    ``rate = lam * p``, ``lam = max(0, n0 - 3*sqrt(n0))``, a row above
    ``n0`` drawn again (about 0.13% of them), then each row completed to
    ``n0`` by draws from the alias ``table`` of ``p``, in pieces of at
    most ``_PIECE_DRAWS``.  Given its total ``M`` a row's Poisson cells
    are multinomial ``(M, p)``, and the redraw depends on ``M`` alone, so
    the row is exactly multinomial ``(n0, p)``; a zero cell has rate 0 and
    is no column's alias, so it is never drawn."""
    k, rate = len(p), max(0.0, n0 - _SHORTFALL_SDS * np.sqrt(n0)) * p
    counts = rng.poisson(rate, size=(size, k))
    totals = counts.sum(axis=1)
    over = np.flatnonzero(totals > n0)
    while len(over):
        counts[over] = rng.poisson(rate, size=(len(over), k))
        totals[over] = counts[over].sum(axis=1)
        over = over[totals[over] > n0]
    # Completion draws lo..hi-1 fall in the rows that overlap them: row r
    # takes draws starts[r]..ends[r]-1.
    ends = np.cumsum(n0 - totals)
    starts = ends - (n0 - totals)
    prob, alias = table
    for lo in range(0, int(ends[-1]), _PIECE_DRAWS):
        hi = min(lo + _PIECE_DRAWS, int(ends[-1]))
        first = np.searchsorted(ends, lo, side="right")
        last = np.searchsorted(starts, hi, side="left")
        u = rng.random(hi - lo)
        u *= k
        cell = u.astype(np.intp)
        u -= cell
        np.copyto(cell, alias[cell], where=u >= prob[cell])
        cell += np.repeat(np.arange(last - first) * k,
                          np.minimum(ends[first:last], hi)
                          - np.maximum(starts[first:last], lo))
        counts[first:last] += np.bincount(
            cell, minlength=(last - first) * k).reshape(-1, k)
    return counts


@dataclass(frozen=True)
class _LumpedLaw:
    """A sample's drawn law: its live orbits' cells in orbit order, after
    one rest cell when some orbit is dead (see the module docstring)."""

    n0: int                             # resample size
    law: np.ndarray                     # probability of each drawn cell
    starts: np.ndarray                  # live orbits' offsets in the law
    sizes: np.ndarray                   # live orbits' sizes |z|
    table: tuple | None                 # alias table, on the Poisson sampler

    def draws(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` multinomial ``(n0, law)`` resamples, by the sampler
        that ``_takes_poisson`` picked."""
        if self.table is None:
            return rng.multinomial(self.n0, self.law, size=size)
        return _poisson_multinomial(rng, self.n0, self.law, self.table, size)

    def weights(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Weights of ``size`` resamples: ``sum |z| * min / n0`` over the
        live orbits, divided once."""
        mins = np.minimum.reduceat(self.draws(rng, size), self.starts, axis=1)
        return ratio(mins @ self.sizes, self.n0)


def _lumped_law(space: SampleSpace, p: np.ndarray, n0: int,
                ) -> _LumpedLaw | None:
    """The drawn law of ``p`` at resample size ``n0``: the cells of its
    live orbits (orbit minimum above 0) in orbit order, after a rest cell
    holding the sum of every other cell in orbit order when some orbit is
    dead; None when no orbit is live."""
    index = space.orbit_index()
    law = p[index.order]
    live = np.minimum.reduceat(law, index.starts) > 0
    if not live.any():
        return None
    sizes = index.sizes[live]
    starts = np.cumsum(sizes) - sizes
    if not live.all():
        in_live = np.repeat(live, index.sizes)
        law = np.concatenate(([law[~in_live].sum()], law[in_live]))
        starts += 1
    table = _alias_table(law) if _takes_poisson(len(law), n0) else None
    return _LumpedLaw(n0=n0, law=law, starts=starts, sizes=sizes,
                      table=table)


def multinomial_weights(space: SampleSpace, n0: np.ndarray, p: np.ndarray,
                        size: int, seeds: Sequence, threads: int | None = None,
                        ) -> np.ndarray:
    """The ``(len(p), size)`` exchangeable weights of ``size``
    multinomial ``(n0[j], p[j])`` samples for each row ``j``, drawn from
    its lumped law by the module's chunk plan: a row that fits in one
    chunk is drawn from its seed, and such rows share a task of up to
    ``_BLOCK_CELLS`` draw cells; a row with no live orbit draws nothing.
    The tasks run on a pool of at most ``threads`` workers (None: one per
    usable CPU), and never more than the CPUs, the tasks or the tasks that
    fit in ``_POOL_BYTES``; a cap below 2 runs them in the calling thread.
    """
    weights = np.zeros((len(p), size))
    tasks, shared, shared_cells = [], [], 0
    for j, seed in enumerate(map(_as_seed_sequence, seeds)):
        law = _lumped_law(space, p[j], n0[j])
        if law is None:
            continue
        cells = len(law.law)
        per_chunk = max(1, _BLOCK_CELLS // cells)
        if size > per_chunk:
            tasks += [[(j, law, slice(lo, min(lo + per_chunk, size)),
                        np.random.SeedSequence(
                            seed.entropy, pool_size=seed.pool_size,
                            spawn_key=seed.spawn_key + (i,)))]
                      for i, lo in enumerate(range(0, size, per_chunk))]
            continue
        if shared and shared_cells + size * cells > _BLOCK_CELLS:
            tasks.append(shared)
            shared, shared_cells = [], 0
        shared.append((j, law, slice(0, size), seed))
        shared_cells += size * cells
    if shared:
        tasks.append(shared)

    def draw(task: list) -> None:
        for j, law, part, seed in task:
            weights[j, part] = law.weights(np.random.default_rng(seed),
                                           part.stop - part.start)

    cpus = _usable_cpus()
    fit = _POOL_BYTES // (3 * 8 * max(_BLOCK_CELLS, space.n_outcomes))
    workers = min(cpus if threads is None else threads, cpus, len(tasks),
                  max(1, fit))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            list(pool.map(draw, tasks))
    else:
        for task in tasks:
            draw(task)
    return weights


def empirical_regularity(c: CountVector) -> str:
    """Tie diagnosis for the empirical measure.

    An orbit is tied when two or more of its cells hold its minimum count
    exactly.  Orbits whose minimum is zero are skipped; zero cells are
    inert under resampling and cannot perturb the bootstrap regime.
    """
    if c.n == 0:
        raise EmptySampleError("empty sample")
    index = c.space.orbit_index()
    mins = index.class_minima_rows(c.counts)
    at_min = c.counts == mins[index.class_of]
    hits = np.add.reduceat(at_min[index.order], index.starts)
    return TIED_ARGMIN if np.any((hits > 1) & (mins > 0)) else UNIQUE_ARGMIN


def estimate(c: CountVector, n_boot: int = 1000,
             resample_size: int | None = None, seed=0,
             threads: int | None = None) -> WeightEstimate:
    """Estimate the exchangeable weight of the source behind ``c``.

    Parameters
    ----------
    c : CountVector
        Observed outcome counts (total ``n >= 1``), or a stack of samples
        whose rows are estimated at once, each as if it came by itself.
    n_boot : int
        Number of bootstrap resamples (>= 2).
    resample_size : int, optional
        Resample size ``n0``, an integer from 1 to below ``2**53`` (a
        float must be integral); defaults to ``n`` (the full bootstrap).
        ``ceil(2*sqrt(n))`` gives the subsample variant, consistent even
        in the tied-argmin regime.
    seed : int, numpy integer or numpy SeedSequence
        All randomness flows from here; fixed seed gives a bit-identical
        result, and an integer seed is reported as a Python ``int``.  A
        stack takes a sequence of seeds, one per row.
    threads : int, optional
        Cap on the workers that draw the resamples (None: one per usable
        CPU; below 2: the calling thread).  It never changes the result.

    The resamples are drawn by the module's plan from the sample's lumped
    law, which gives the weights of the multinomial law of ``p``.  A stack
    is drawn and reduced in groups of at most ``_GROUP_REPLICATES``
    resample weights, and gets no regime diagnosis: its
    ``regularity_flag`` is None.
    """
    stack = c.counts.ndim == 2
    counts = c.counts if stack else c.counts[None, :]
    seeds = list(seed) if stack else [seed]
    if len(seeds) != len(counts):
        raise ValueError("a stack of samples takes one seed per row")
    n0, p = resample_law(counts, n_boot, resample_size)
    mean_rep, se = np.empty(len(p)), np.empty(len(p))
    per_group = max(1, _GROUP_REPLICATES // n_boot)
    for lo in range(0, len(p), per_group):
        group = slice(lo, lo + per_group)
        reps = multinomial_weights(c.space, n0[group], p[group], n_boot,
                                   seeds[group], threads)
        mean_rep[group] = reps.mean(axis=-1)
        se[group] = reps.std(axis=-1, ddof=1)
    lam_hat = np.atleast_1d(exchangeable_weight(empirical_distribution(c)))
    fields = (lam_hat, np.clip(2.0 * lam_hat - mean_rep, 0.0, 1.0), se,
              mean_rep - lam_hat)
    if stack:
        return WeightEstimate(*fields, n=c.n, n_boot=n_boot, resample_size=n0,
                              seed=None, regularity_flag=None)
    return WeightEstimate(
        *(float(v[0]) for v in fields),
        n=c.n,
        n_boot=n_boot,
        resample_size=int(n0[0]),
        seed=int(seed) if isinstance(seed, numbers.Integral) else None,
        regularity_flag=empirical_regularity(c),
    )


def bootstrap_distribution(c: CountVector, n_boot: int = 1000,
                           resample_size: int | None = None,
                           seed=0) -> np.ndarray:
    """Replicates of ``sqrt(n0) * (lam_hat_resample - lam_hat)``.

    With ``resample_size = n`` (default) this is the full bootstrap
    distribution estimator; with ``n0 = o(n)`` the subsample variant.
    The resamples are those :func:`estimate` draws from the same seed.
    """
    n0, p = resample_law(c.counts[None, :], n_boot, resample_size)
    reps = multinomial_weights(c.space, n0, p, n_boot, [seed])[0]
    lam_hat = exchangeable_weight(empirical_distribution(c))
    return np.sqrt(n0[0]) * (reps - lam_hat)


def subsample_size(n: int) -> int:
    """The suggested ``ceil(2*sqrt(n))`` subsample bootstrap size."""
    return int(np.ceil(2.0 * np.sqrt(n)))


# ---------------------------------------------------------------------------
# Limiting law of sqrt(n) * (lam_hat - lam).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitLawSpec:
    """Ingredients of the limiting law for a fixed source ``p``.

    The retained coordinates are the union of the per-orbit argmin sets;
    on them the multinomial CLT covariance is ``diag(m) - m m^T`` with
    ``m`` the per-coordinate orbit minima, and the limit variable is
    ``sum_z |z| * min over the argmin set of z``.
    """

    space: SampleSpace
    class_sizes: np.ndarray            # |z| per orbit
    minima: np.ndarray                 # m_z per orbit
    argmin_sets: tuple[tuple[int, ...], ...]
    coords: np.ndarray                 # retained outcome indices

    @property
    def is_unique_argmin(self) -> bool:
        """True when no orbit that matters has a tied minimum.

        Ties at minimum 0 are ignored: those coordinates have variance
        ``m(1-m) = 0``, so their minima are deterministic and the
        Gaussian regime survives.
        """
        return all(len(s) == 1 or self.minima[z] == 0.0
                   for z, s in enumerate(self.argmin_sets))

    @property
    def covariance(self) -> np.ndarray:
        """The ``(len(coords), len(coords))`` covariance, built anew."""
        m = np.repeat(self.minima, [len(s) for s in self.argmin_sets])
        cov = -np.outer(m, m)
        np.fill_diagonal(cov, m * (1.0 - m))
        return cov


def limit_law_spec(p: Distribution) -> LimitLawSpec:
    """Build the limit-law description (orbit minima and argmin blocks);
    the argmin sets of a law of counts are exact count ties."""
    pf = p.as_float()
    index = pf.space.orbit_index()
    sets = argmin_sets(p)
    return LimitLawSpec(
        space=pf.space,
        class_sizes=index.sizes,
        minima=index.class_minima_rows(pf.p),
        argmin_sets=sets,
        coords=np.array([x for s in sets for x in s], dtype=np.int64),
    )


def asymptotic_variance(p: Distribution) -> float:
    """Closed-form variance of the Gaussian limit, unique-argmin case.

        V = sum_z |z|^2 m_z (1-m_z) - sum_{z1 != z2} |z1||z2| m_z1 m_z2

    (the second sum runs over ordered pairs of distinct orbits).  It
    needs only the orbit minima and sizes, so it builds no covariance.

    Raises
    ------
    TiedArgminError
        If some orbit minimum is tied, where the limit is non-Gaussian;
        use :func:`limit_law_sample` instead.
    """
    spec = limit_law_spec(p)
    if not spec.is_unique_argmin:
        tied = [z for z, s in enumerate(spec.argmin_sets)
                if len(s) > 1 and spec.minima[z] > 0.0]
        raise TiedArgminError(
            f"orbits {tied} have tied minima; the Gaussian formula does "
            "not apply")
    sizes = spec.class_sizes.astype(np.float64)
    m = spec.minima
    diag_term = float(np.sum(sizes**2 * m * (1.0 - m)))
    weighted = sizes * m
    cross = float(np.sum(weighted)**2 - np.sum(weighted**2))
    return diag_term - cross


def limit_law_sample(p: Distribution, n_draws: int, seed=0) -> np.ndarray:
    """Monte Carlo draws from the limiting law of ``sqrt(n)(lam_hat - lam)``.

    Draws a zero-mean Gaussian vector on the retained argmin coordinates
    (multinomial CLT covariance, sampled through its eigendecomposition
    with negative eigenvalues above ``-1e-12`` clipped to zero) and
    returns ``sum_z |z| * min`` over each orbit's argmin block.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    spec = limit_law_spec(p)
    m = len(spec.coords)
    vals, vecs = np.linalg.eigh(spec.covariance)
    if np.any(vals < EIGEN_FLOOR):
        raise RuntimeError(f"covariance has eigenvalue {vals.min()} < {EIGEN_FLOOR}")
    vals = np.clip(vals, 0.0, None)
    transform = vecs * np.sqrt(vals)
    rng = np.random.default_rng(_as_seed_sequence(seed))
    z = rng.standard_normal(size=(n_draws, m)) @ transform.T

    out = np.zeros(n_draws)
    offset = 0
    for z_id, s in enumerate(spec.argmin_sets):
        block = z[:, offset:offset + len(s)]
        out += spec.class_sizes[z_id] * block.min(axis=1)
        offset += len(s)
    return out


# ---------------------------------------------------------------------------
# Sample-size selection against the worst-case test source.
# ---------------------------------------------------------------------------

def worst_case_source(space: SampleSpace) -> Distribution:
    """Uniform mass on all non-constant outcomes.

    Constant outcomes sit in singleton orbits, so observing them can only
    push the estimate up; this source (which is exchangeable, weight 1)
    empirically maximizes bias and sd of the plug-in estimator.
    """
    n = space.check_budget()
    p = np.full(n, 1.0 / (n - space.k))
    for a in range(space.k):
        p[space.encode((a,) * space.d)] = 0.0
    return Distribution(space, p)


@dataclass(frozen=True)
class BiasTableRow:
    n: int
    mean_bias: float     # mean(lam_hat) - 1
    sd: float            # sd of lam_hat across repetitions


def sample_size_heuristic(space: SampleSpace, candidate_sizes: Sequence[int],
                          reps: int, seed=0) -> list[BiasTableRow]:
    """Simulate plug-in estimation from the worst-case source.

    For each candidate sample size, draws ``reps`` datasets from
    :func:`worst_case_source` (true weight 1) and tabulates the mean bias
    and standard deviation of the plug-in estimate, for choosing a sample
    size at which both look acceptable.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    sizes = [int(s) for s in candidate_sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("candidate sizes must be >= 1")
    t = worst_case_source(space)
    root = _as_seed_sequence(seed)
    children = root.spawn(len(sizes))
    rows = []
    for n, child in zip(sizes, children):
        lams = multinomial_weights(space, np.array([n]), t.p[None, :], reps,
                                   [child])[0]
        rows.append(BiasTableRow(n=n, mean_bias=float(lams.mean() - 1.0),
                                 sd=float(lams.std(ddof=1))))
    return rows
