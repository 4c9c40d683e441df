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
sample by Monte Carlo instead of evaluating in closed form.  One tie
rule, that of ``exchangeable.argmin_sets``, decides which cells hold an
orbit's minimum, for ``decompose``'s argmin sets, the regime flag of
:func:`estimate` and the limit law alike (:func:`_orbit_ties`).

Every bootstrap here draws one law by one chunk plan.  A resample's
weight needs only its orbit minima, and a cell of probability 0 stays 0,
so an orbit holding one (a dead orbit) has minimum 0 throughout.  A
singleton orbit (a constant outcome) adds its count once, so the live
ones matter only through the sum of their counts.  A sample draws its
lumped law, in this order: one rest cell holding the mass of the dead
orbits' cells, when some orbit is dead, placed first since
``Generator.multinomial`` draws nothing in, and spends no random bits
on, a first cell of probability 0; one unit cell holding the mass of
the live singleton orbits, when there is one, taken as an orbit of one
cell; then the cells of the live multi-cell orbits in orbit order.  Each
of the two lumped cells is the numpy sum of the sample's cells it holds,
in orbit order.  Lumping cells of a multinomial gives a multinomial, so
the drawn cells keep their exact joint law, and ``W*`` its law.  A
sample with no live orbit draws nothing: its weights are 0.  The plan
reads a stack in one pass: rows are grouped by their live-orbit
pattern, and the laws of a group are gathered as one array.

A law of ``m`` cells is drawn by one ``Generator.multinomial`` call a
chunk.  A sample's ``n_boot`` resamples are cut into chunks of at most
``_BLOCK_CELLS = 2**15`` draw cells (resamples x ``m``, at least one
resample a chunk), planned from that sample alone, so a row of a stack
gets the same bits as by itself.  A sample that fits in one chunk draws
from its seed, and consecutive such samples of a stack share a task of at
most ``2**15`` draw cells.  Otherwise chunk ``i`` draws from
``SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (i,))``, the
seed that ``seed.spawn`` would give its ``i``-th child, without spawning
from the caller's seed.

Each chunk is reduced as soon as it is drawn, by :meth:`_LumpedLaw.masses`,
to each resample's integer weight numerator ``W* = sum |z| * min``.  So a
worker holds about ``max(2**15, m)`` int64 draw cells at a time: the draws
and their minima.  A sample keeps its law (8 bytes a cell).  The chunks
run on a thread pool of up to one worker per usable CPU, since numpy
draws without the GIL, or fewer under ``estimate``'s ``threads`` cap or
when the workers' chunks would pass ``_POOL_BYTES`` (1 GiB) together.
The summaries keep only each row's integer ``sum W*`` and ``sum W*^2``
and divide once (:func:`_summaries`): the same bits whatever the number
of workers.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import EmptySampleError, TiedArgminError
# The bootstrap does not call exchangeable_weight_rows; the benchmark's
# tracer wraps it here.
from .exchangeable import (exchangeable_weight_rows,  # noqa: F401
                           _at_minimum, _orbit_mass, exchangeable_weight)
from .space import (MAX_COUNT, CountVector, Distribution, SampleSpace,
                    empirical_distribution, ratio)

UNIQUE_ARGMIN = "unique_argmin"
TIED_ARGMIN = "tied_argmin"

#: Draw cells (resamples x the cells a resample draws) in one chunk of a
#: bootstrap: the unit of work of its pool, and the bound on the memory
#: one worker holds.
_BLOCK_CELLS = 2**15

#: Bytes the tasks of one bootstrap pool may hold at once.  A task holds
#: its draws and their minima: within ``3 * 8 * max(_BLOCK_CELLS, k**d)``
#: bytes, as a law has at most ``k**d`` cells, so a large ``k**d`` gets
#: fewer workers.
_POOL_BYTES = 2**30


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
    entry per row, and ``seed`` and ``regularity_flag`` are None.  The
    bias and corrected weight are their exact values rounded once, and
    ``se_boot`` is the root of the correctly rounded variance.
    """

    lambda_hat: float          # weight of the empirical measure
    lambda_corrected: float    # 2*lambda_hat - mean(replicates), clamped to [0,1]
    se_boot: float             # root of the replicates' variance (ddof 1)
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
    if n_boot >= MAX_COUNT:
        raise ValueError("n_boot must be below 2**53")
    if resample_size is not None and resample_size % 1 != 0:
        raise ValueError("resample_size must be an integer")
    if resample_size is not None and resample_size >= MAX_COUNT:
        raise ValueError("resample_size must be below 2**53")
    n0 = n if resample_size is None else np.full(len(n), int(resample_size))
    if n0.min() < 1:
        raise ValueError("resample_size must be >= 1")
    return n0, counts / n[:, None]


@dataclass(slots=True)
class _LumpedLaw:
    """A sample's drawn law: the rest cell when some orbit is dead, the
    unit cell when some singleton orbit is live, then the live multi-cell
    orbits' cells (see the module docstring).  The unit cell is an orbit
    of one cell and size 1 in ``starts`` and ``sizes``."""

    n0: int                             # resample size
    law: np.ndarray                     # probability of each drawn cell
    starts: np.ndarray                  # drawn orbits' offsets in the law
    sizes: np.ndarray                   # drawn orbits' sizes |z|

    def masses(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Integer weight numerators ``W* = sum |z| * min`` over the drawn
        orbits of ``size`` multinomial ``(n0, law)`` resamples; a
        resample's weight is ``W* / n0``."""
        mins = np.minimum.reduceat(
            rng.multinomial(self.n0, self.law, size=size), self.starts, axis=1)
        return mins @ self.sizes


def _lumped_laws(space: SampleSpace, n0: np.ndarray, p: np.ndarray,
                 ) -> list[_LumpedLaw | None]:
    """The drawn law of each row ``j`` of ``p`` at resample size
    ``n0[j]``, None for a row with no live orbit (orbit minimum of ``p``
    above 0).

    The rows are grouped by their live-orbit pattern.  A group's laws are
    gathered as one array whose rows the laws view, with the group's
    ``starts`` and ``sizes``: its rest cell and unit cell are each the
    numpy sum, row by row, of the cells they hold in orbit order.
    """
    index = space.orbit_index()
    live = np.minimum.reduceat((p > 0)[:, index.order], index.starts, axis=1)
    _, group = np.unique(np.packbits(live, axis=1), axis=0,
                         return_inverse=True)
    orbit_of = index.class_of[index.order]
    laws, resample = [None] * len(p), n0.tolist()
    for rows in np.split(np.argsort(group, kind="stable"),
                         np.cumsum(np.bincount(group))[:-1]):
        on = live[rows[0]]
        if not on.any():
            continue
        unit = on & (index.sizes == 1)
        multi = on & ~unit
        law = np.column_stack(
            [p[np.ix_(rows, index.order[cells[orbit_of]])].sum(axis=1)
             for cells in (~on, unit) if cells.any()]
            + [p[np.ix_(rows, index.order[multi[orbit_of]])]])
        sizes = np.concatenate((np.ones(int(unit.any()), dtype=np.int64),
                                index.sizes[multi]))
        starts = np.cumsum(sizes) - sizes + (not on.all())
        for j, row in zip(rows.tolist(), law):
            laws[j] = _LumpedLaw(resample[j], row, starts, sizes)
    return laws


def multinomial_masses(space: SampleSpace, n0: np.ndarray, p: np.ndarray,
                       size: int, seeds: Sequence, threads: int | None = None):
    """Yield ``(j, part, W*)`` chunk by chunk, in task order: the weight
    numerators of resamples ``part`` (a slice) of the ``size`` multinomial
    ``(n0[j], p[j])`` resamples of row ``j``, by the module's chunk plan.
    The tasks run on a pool of at most ``threads`` workers (None: one per
    usable CPU), and never more than the CPUs, the tasks or the tasks that
    fit in ``_POOL_BYTES``; a cap below 2 runs them in the calling thread.
    The plan is made as the tasks are drawn, at most two a worker ahead,
    so its memory does not grow with ``size``.
    """
    laws = _lumped_laws(space, n0, p)

    def plan():
        shared, shared_cells = [], 0
        for j, (seed, law) in enumerate(zip(map(_as_seed_sequence, seeds),
                                            laws)):
            if law is None:
                continue
            cells = len(law.law)
            per_chunk = max(1, _BLOCK_CELLS // cells)
            if size > per_chunk:
                for i, lo in enumerate(range(0, size, per_chunk)):
                    yield [(j, law, slice(lo, min(lo + per_chunk, size)),
                            np.random.SeedSequence(
                                seed.entropy, pool_size=seed.pool_size,
                                spawn_key=seed.spawn_key + (i,)))]
                continue
            if shared and shared_cells + size * cells > _BLOCK_CELLS:
                yield shared
                shared, shared_cells = [], 0
            shared.append((j, law, slice(0, size), seed))
            shared_cells += size * cells
        if shared:
            yield shared

    def draw(task: list) -> list:
        return [(j, part, law.masses(np.random.default_rng(seed),
                                     part.stop - part.start))
                for j, law, part, seed in task]

    cpus = _usable_cpus()
    fit = _POOL_BYTES // (3 * 8 * max(_BLOCK_CELLS, space.n_outcomes))
    tasks = plan()
    first = list(itertools.islice(tasks, max(1, min(
        cpus if threads is None else threads, cpus, fit))))
    tasks = itertools.chain(first, tasks)
    if len(first) > 1:
        with concurrent.futures.ThreadPoolExecutor(len(first)) as pool:
            ahead = collections.deque()
            for task in tasks:
                ahead.append(pool.submit(draw, task))
                if len(ahead) > 2 * len(first):
                    yield from ahead.popleft().result()
            while ahead:
                yield from ahead.popleft().result()
    else:
        for task in tasks:
            yield from draw(task)


def _summaries(chunks, n0: np.ndarray, n_boot: int, mass: np.ndarray,
               n: np.ndarray) -> np.ndarray:
    """Bias, corrected weight and sd of each row of bootstrap ``chunks``
    (:func:`multinomial_masses`) against its plug-in weight ``W / n``
    (``W = mass``), as ``(3, rows)``.  From the exact ``S1 = sum W*`` and
    ``S2 = sum W*^2``, ``B = n_boot`` and ``den = B*n0*n``, each is one
    division of Python ints, so its exact value rounded once:

        bias      = (n*S1 - B*n0*W) / den
        corrected = clip(2*B*n0*W - n*S1, 0, den) / den
        variance  = (B*S2 - S1**2) / (B*(B-1)*n0**2),  sd = sqrt(variance)
    """
    s1, s2 = [0] * len(n0), [0] * len(n0)
    for j, _, w in chunks:
        w = w.astype(object) if n0[j] >= 2**24 else w  # 2**15 n0**2 < 2**63
        s1[j] += int(w.sum())
        s2[j] += int((w * w).sum())
    b = n_boot
    return np.array([
        ((nj * s - b * m * wj) / (b * m * nj),
         min(max(2 * b * m * wj - nj * s, 0), b * m * nj) / (b * m * nj),
         math.sqrt((b * q - s * s) / (b * (b - 1) * m * m)))
        for s, q, m, nj, wj in zip(s1, s2, n0.tolist(), n.tolist(),
                                   mass.tolist())]).reshape(-1, 3).T


def _orbit_ties(p: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Each orbit's minimum numerator of ``p`` and the number of its cells
    at that minimum, by the tie rule of ``argmin_sets``, in orbit
    order.  An orbit is tied when two or more cells hold a minimum above
    0; a minimum of 0 is deterministic in the limit (variance
    ``m(1-m) = 0``) and inert under resampling."""
    index = p.space.orbit_index()
    mins = index.class_minima_rows(p.num)
    return mins, np.add.reduceat(_at_minimum(p, mins)[index.order],
                                 index.starts)


def empirical_regularity(c: CountVector) -> str:
    """Tie diagnosis for the empirical measure: :data:`TIED_ARGMIN` when
    some orbit is tied (:func:`_orbit_ties`), two or more of its cells
    holding its minimum count exactly.  Zero cells are inert under
    resampling and cannot perturb the bootstrap regime.  An empty sample
    raises :class:`EmptySampleError`.
    """
    mins, hits = _orbit_ties(empirical_distribution(c))
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
        Number of bootstrap resamples, from 2 to below ``2**53``.
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
    law, which gives the weights of the multinomial law of ``p``, and
    summarised by :func:`_summaries`.  A stack gets no regime diagnosis:
    its ``regularity_flag`` is None.
    """
    stack = c.counts.ndim == 2
    counts = c.counts if stack else c.counts[None, :]
    seeds = list(seed) if stack else [seed]
    if len(seeds) != len(counts):
        raise ValueError("a stack of samples takes one seed per row")
    n0, p = resample_law(counts, n_boot, resample_size)
    n, mass = np.atleast_1d(c.n, _orbit_mass(empirical_distribution(c))[1])
    bias, corrected, se = _summaries(multinomial_masses(
        c.space, n0, p, n_boot, seeds, threads), n0, n_boot, mass, n)
    fields = (np.atleast_1d(ratio(mass, n)), corrected, se, bias)
    if stack:
        return WeightEstimate(*fields, n=c.n, n_boot=n_boot, resample_size=n0,
                              seed=None, regularity_flag=None)
    return WeightEstimate(
        *(float(v[0]) for v in fields), n=c.n, n_boot=n_boot,
        resample_size=int(n0[0]),
        seed=int(seed) if isinstance(seed, numbers.Integral) else None,
        regularity_flag=empirical_regularity(c))


def bootstrap_distribution(c: CountVector, n_boot: int = 1000,
                           resample_size: int | None = None,
                           seed=0) -> np.ndarray:
    """Replicates of ``sqrt(n0) * (lam_hat_resample - lam_hat)``.

    With ``resample_size = n`` (default) this is the full bootstrap
    distribution estimator; with ``n0 = o(n)`` the subsample variant.
    The resamples are those :func:`estimate` draws from the same seed,
    and each replicate's weight is its ``W* / n0``, divided once.
    """
    n0, p = resample_law(c.counts[None, :], n_boot, resample_size)
    reps = np.zeros(n_boot)
    for _, part, w in multinomial_masses(c.space, n0, p, n_boot, [seed]):
        reps[part] = ratio(w, n0[0])
    lam_hat = exchangeable_weight(empirical_distribution(c))
    return np.sqrt(n0[0]) * (reps - lam_hat)


def subsample_size(n: int) -> int:
    """The suggested subsample bootstrap size ``ceil(2*sqrt(n))``, in
    integers: the least ``s`` with ``s*s >= 4*n``, for ``n >= 1``."""
    return math.isqrt(4 * n - 1) + 1


# ---------------------------------------------------------------------------
# Limiting law of sqrt(n) * (lam_hat - lam).
# ---------------------------------------------------------------------------

def asymptotic_variance(p: Distribution) -> float:
    """Closed-form variance of the Gaussian limit, unique-argmin case.

        V = sum_z |z|^2 m_z - lam^2,   lam = sum_z |z| m_z

    On numerators ``c`` over ``n`` that is ``(n*sum_z |z|^2 c_z - W^2) /
    n^2`` with ``W = sum_z |z| c_z``, summed in Fractions: each minimum
    is exact as a Fraction, whether a count, an exact numerator or a
    float, so the result is the exact value of the law's own numbers,
    rounded once.  It needs only the orbit minima and sizes.

    Raises
    ------
    TiedArgminError
        If some orbit minimum is tied, where the limit is non-Gaussian;
        use :func:`limit_law_sample` instead.
    """
    mins, hits = _orbit_ties(p)
    tied = np.flatnonzero((hits > 1) & (mins > 0)).tolist()
    if tied:
        raise TiedArgminError(
            f"orbits {tied} have tied minima; the Gaussian formula does "
            "not apply")
    mins = [Fraction(c) for c in mins.tolist()]
    sizes = p.space.orbit_index().sizes.tolist()
    w = sum(s * c for s, c in zip(sizes, mins))
    q = sum(s * s * c for s, c in zip(sizes, mins))
    return float((p.den * q - w * w) / (p.den * p.den))


def limit_law_sample(p: Distribution, n_draws: int, seed=0) -> np.ndarray:
    """Monte Carlo draws from the limiting law of ``sqrt(n)(lam_hat - lam)``.

    The Gaussian vector on the retained coordinates, of covariance
    ``diag(m) - m m^T``, is drawn in closed form from ``len(m) + 1``
    standard normals ``(xi_0, xi)``:

        x = sqrt(m)*xi - m*(sum(sqrt(m)*xi) + sqrt(1 - sum(m))*xi_0)

    (the multinomial CLT with the other cells lumped into ``xi_0``).
    Each draw is ``sum_z |z| * min`` over the orbits' argmin blocks, the
    cells at each orbit's minimum (:func:`_orbit_ties`): a block needs
    only its size and its minimum, not which cells it holds.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    mins, blocks = _orbit_ties(p)
    m = np.repeat(ratio(mins, p.den), blocks)
    xi = np.random.default_rng(_as_seed_sequence(seed)).standard_normal(
        size=(n_draws, len(m) + 1))
    x = xi[:, 1:] * np.sqrt(m)
    rest = math.sqrt(max(0.0, 1.0 - m.sum())) * xi[:, 0]
    x -= np.outer(x.sum(axis=1) + rest, m)
    return np.minimum.reduceat(x, np.cumsum(blocks) - blocks,
                               axis=1) @ p.space.orbit_index().sizes


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

    For each candidate sample size ``n``, draws ``reps`` datasets from
    :func:`worst_case_source` (true weight 1) and tabulates the mean bias
    and standard deviation of the plug-in estimate, for choosing a sample
    size at which both look acceptable (by :func:`_summaries`, ``W = n0 = n``).
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if reps >= MAX_COUNT:
        raise ValueError("reps must be below 2**53")
    sizes = [int(s) for s in candidate_sizes]
    if any(not 1 <= s < MAX_COUNT for s in sizes):
        raise ValueError("candidate sizes must be >= 1 and below 2**53")
    n, p = np.array(sizes, dtype=np.int64), worst_case_source(space).p
    bias, _, sd = _summaries(multinomial_masses(
        space, n, np.broadcast_to(p, (len(n), len(p))), reps,
        _as_seed_sequence(seed).spawn(len(n))), n, reps, n, n)
    return [BiasTableRow(n=s, mean_bias=float(b), sd=float(v))
            for s, b, v in zip(sizes, bias, sd)]
