"""Latent weights with respect to singleton and product-form model classes.

For a reference class ``Q`` of distributions, the latent weight of ``P``
is ``sup_{Q in class} min_x P(x)/Q(x)`` with any division by zero read as
+infinity.  A singleton class has the closed-form answer (one min).  For
the i.i.d. class (a common marginal on the alphabet, taken to the d-th
power) and the product class (independent, possibly different marginals)
the supremum is found numerically: a coarse grid over the marginal
parameters seeds a handful of derivative-free compass-search refinements,
and the winner is certified by checking ``P >= lam*Q`` pointwise.  The
objective is scored in batches: the grid one tile of at most
``_CHUNK_ELEMENTS`` (2^16) parameter values per call, keeping only the
best starts so far, and the searches in lockstep, every direction of
every running start's compass poll scored together in one call per
round.  A call works through tiles of at most ``_CHUNK_ELEMENTS``
parameter rows x outcomes, so the memory is bounded whatever the grid
or ``k^d``.  The grid resolution is the search's one setting; its other
limits are module constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLargeError
from .space import Distribution


def singleton_weight(p: Distribution, q0: Distribution):
    """Largest ``lam`` with ``p >= lam * q0`` pointwise.

    Equals ``min_x p(x)/q0(x)`` over the support of ``q0`` (ratios with
    ``q0(x) = 0``, including 0/0, count as +infinity and never attain the
    minimum).  The result never exceeds 1 mathematically; the raw ratio is
    returned, a Fraction when ``p`` is exact and ``q0`` has integer
    numerators, else correctly rounded from the numerators (rounding keeps
    the order, so the minimum of the rounded ratios is the rounded
    minimum).
    """
    if p.space != q0.space:
        raise ValueError("p and q0 must share a sample space")
    mask = q0.num > 0
    # p(x)/q0(x) = a*B / (b*A), on Python ints: products can pass int64.
    a, b = (law.num[mask] if law.num.dtype.kind == "f"
            else law.num[mask].astype(object) for law in (p, q0))
    return min(p.ratio(a * q0.den, b * p.den).tolist())


@dataclass(frozen=True)
class ProductClassSpec:
    """Which reference class to optimize over.

    kind
        ``"singleton"`` (fixed ``q0``), ``"iid"`` (common marginal to the
        d-th power) or ``"product"`` (independent per-coordinate
        marginals).
    """

    kind: str
    q0: Distribution | None = None

    def __post_init__(self):
        if self.kind not in ("singleton", "iid", "product"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind == "singleton" and self.q0 is None:
            raise ValueError("singleton class requires q0")
        if self.kind != "singleton" and self.q0 is not None:
            raise ValueError("q0 only applies to the singleton class")


_N_STARTS = 8                   # refinements launched from best grid points
_STEP_FLOOR = 1e-7              # compass search converges below this step
_MAX_DIM = 16                   # refuse problems with more parameters
_MAX_GRID_TOTAL = 60_000        # cap on grid points; the resolution shrinks
_MAX_EVALS_PER_START = 20_000   # polls before a search stops unconverged


@dataclass(frozen=True)
class SupMinResult:
    """Outcome of a sup-min optimization over a product-form class."""

    lam: float
    argmax_q: Distribution
    certificate_margin: float      # min_x (p(x) - lam*q(x)); >= -1e-9
    multistart_log: tuple          # ((start params, refined value), ...)
    converged: bool = True


def class_weight(p: Distribution, spec: ProductClassSpec,
                 grid_points: int = 33) -> SupMinResult:
    """Latent weight of ``p`` w.r.t. the class described by ``spec``.

    ``grid_points`` is the grid resolution per parameter.

    Raises
    ------
    ValueError
        If ``grid_points < 1``, whatever the class.
    DimensionTooLargeError
        If the free parameter count (``k-1`` for iid, ``d*(k-1)`` for
        product) exceeds ``_MAX_DIM`` (16).
    SpaceTooLargeError
        If ``k**d`` exceeds the outcome budget (iid and product classes).
    """
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    if spec.kind == "singleton":
        lam = float(singleton_weight(p, spec.q0))
        qf = spec.q0.as_float()
        margin = float(np.min(p.as_float().p - lam * qf.p))
        return SupMinResult(lam=lam, argmax_q=qf, certificate_margin=margin,
                            multistart_log=((None, lam),))

    space = p.space
    k, d = space.k, space.d
    dim = (k - 1) if spec.kind == "iid" else d * (k - 1)
    if dim > _MAX_DIM:
        raise DimensionTooLargeError(
            f"{spec.kind} class over k={k}, d={d} has {dim} parameters "
            f"(limit {_MAX_DIM})")

    space.check_budget()
    pf = p.as_float().p
    objective = _Objective(pf, k, d)

    starts = _grid_starts(objective, dim, grid_points)
    thetas, values, converged = _compass_search(objective, starts,
                                                grid_points)
    log = [(tuple(start.tolist()), value, tuple(theta.tolist()))
           for start, value, theta in zip(starts, values.tolist(), thetas)]
    # Deterministic winner: best value, ties broken by lexicographically
    # smallest refined parameter vector.
    log.sort(key=lambda rec: (-rec[1], rec[2]))
    best_theta = np.array(log[0][2])
    best_val = log[0][1]
    q_vec = objective.q_rows(best_theta[None])[0]
    q = Distribution(space, q_vec / q_vec.sum())
    margin = float(np.min(pf - best_val * q.p))
    return SupMinResult(
        lam=float(best_val),
        argmax_q=q,
        certificate_margin=margin,
        multistart_log=tuple((start, val) for start, val, _ in log),
        converged=bool(converged.all()),
    )


#: Cap on the elements of one ``rows x outcomes`` tile of a scoring pass,
#: and on the parameter values of one tile of the grid: 2^16 float64
#: values (512 KiB) stay in cache.  Tiles split the outcomes as well as
#: the rows, so neither a large grid nor a large outcome space makes a
#: larger temporary.
_CHUNK_ELEMENTS = 2**16


class _Objective:
    """g(theta) = min_x p(x)/Q_theta(x), stick-breaking parameterization.

    Each marginal over the alphabet is parameterized by ``k-1`` numbers in
    [0,1]: mu_0 = t_1, mu_1 = t_2*(1-t_1), ..., with the last symbol
    taking the remainder.  The cube [0,1]^(k-1) maps onto the whole
    simplex including its boundary, so point masses are reachable.

    Calls score a batch: a ``(G, dim)`` array of parameter rows maps to
    ``G`` values.  A call works on tiles of at most ``_CHUNK_ELEMENTS``
    rows x outcomes: the marginals are computed once per row tile, the
    outcomes are split into aligned blocks of a power of ``k`` (all of
    them when ``k**d`` fits), and the row minima are folded across the
    blocks.
    """

    def __init__(self, p, k, d):
        self.p = p
        self.k = k
        self.d = d

    def marginals(self, thetas: np.ndarray) -> np.ndarray:
        """``(G, d, k)`` marginals of ``G`` parameter rows; an iid row
        holds one marginal, a product row one per coordinate."""
        k, d = self.k, self.d
        sticks = thetas.reshape(len(thetas), -1, k - 1)
        mu = np.empty(sticks.shape[:2] + (k,))
        rem = np.ones(sticks.shape[:2])
        for j in range(k - 1):
            mu[..., j] = sticks[..., j] * rem
            rem -= mu[..., j]
        mu[..., k - 1] = np.maximum(rem, 0.0)
        return np.broadcast_to(mu, (len(thetas), d, k))

    def q_rows(self, thetas: np.ndarray) -> np.ndarray:
        """``(G, n_outcomes)`` product laws of ``G`` parameter rows."""
        return self.q_tile(self.marginals(thetas), 0, self.d)

    def q_tile(self, margs: np.ndarray, start: int, free: int) -> np.ndarray:
        """Product laws of the marginals ``margs`` at the ``k**free``
        outcomes from ``start`` (a multiple of ``k**free``), multiplied
        coordinate by coordinate in order.

        The block's outcomes share their first ``d - free`` symbols,
        which ``start`` fixes; each later coordinate multiplies every
        law so far by each of its ``k`` masses (the last coordinate
        varies fastest, as in the outcome index).  The products start
        from 1.0, which changes none of them.
        """
        k, d = self.k, self.d
        q = np.ones((len(margs), 1))
        for j in range(d - free):
            q *= margs[:, j, start // k**(d - 1 - j) % k, None]
        for j in range(d - free, d):
            grown = np.empty(q.shape + (k,))
            for s in range(k):
                np.multiply(q, margs[:, j, s, None], out=grown[..., s])
            q = grown.reshape(len(q), -1)
        return q

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        n = len(self.p)
        free = self.d
        while self.k**free > _CHUNK_ELEMENTS:
            free -= 1
        cols = self.k**free
        rows = _CHUNK_ELEMENTS // cols
        values = np.full(len(thetas), np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, len(thetas), rows):
                margs = self.marginals(thetas[lo:lo + rows])
                row_min = values[lo:lo + rows]
                for start in range(0, n, cols):
                    q = self.q_tile(margs, start, free)
                    # p/0 is inf and 0/0 nan, which fmin skips: the
                    # minimum runs over the outcomes with Q > 0.
                    np.divide(self.p[start:start + cols], q, out=q)
                    np.fmin(row_min, np.fmin.reduce(q, axis=1), out=row_min)
        # A row with no positive Q keeps +inf; g scores it 0.
        values[np.isinf(values)] = 0.0
        return values


def _grid_starts(objective, dim, grid_points):
    """Score a deterministic grid tile by tile and keep the best starting
    points, ordered by value, then lexicographically by parameters (the
    order of the ``ij`` grid rows, which stable sorts keep).

    A tile is the sub-grid of the last ``free`` parameters under one
    setting of the leading ones, ``free`` as large as keeps a tile within
    ``_CHUNK_ELEMENTS`` parameter values.  Tiles come in grid order, and
    each one's best points are merged into the running best, which come
    first among ties; so the whole grid is never held.
    """
    per_param = _grid_resolution(grid_points, dim)
    axis = np.linspace(0.0, 1.0, per_param)
    free = dim
    while free and per_param**free * dim > _CHUNK_ELEMENTS:
        free -= 1
    lead = dim - free
    # The trailing sub-grid is written once, column j + lead varying along
    # axis j of the tile seen as a cube; each tile then rewrites only the
    # leading columns.
    tile = np.empty((per_param**free, dim))
    cube = tile.reshape((per_param,) * free + (dim,))
    for j in range(free):
        cube[..., lead + j] = axis.reshape((-1,) + (1,) * (free - 1 - j))
    best, best_values = np.empty((0, dim)), np.empty(0)
    for setting in itertools.product(axis, repeat=lead):
        tile[:, :lead] = setting
        values = objective(tile)
        top = np.argsort(-values, kind="stable")[:_N_STARTS]
        best = np.concatenate([best, tile[top]])
        best_values = np.concatenate([best_values, values[top]])
        keep = np.argsort(-best_values, kind="stable")[:_N_STARTS]
        best, best_values = best[keep], best_values[keep]
    return best


def _grid_resolution(grid_points: int, dim: int) -> int:
    """The per-parameter resolution of the grid: the largest ``p <=
    grid_points`` whose ``p**dim`` points fit ``_MAX_GRID_TOTAL``, but
    not below 2 (high-dimensional products explode otherwise).  The float
    root is corrected by one step either way."""
    if grid_points <= 2:
        return grid_points
    root = int(_MAX_GRID_TOTAL ** (1 / dim))
    root += (root + 1)**dim <= _MAX_GRID_TOTAL
    root -= root**dim > _MAX_GRID_TOTAL
    return max(2, min(grid_points, root))


def _poll_directions(dim: int) -> np.ndarray:
    dirs = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    # Diagonal polls help at kinks where several ratio surfaces tie; only
    # affordable in low dimension.
    if 2 <= dim <= 6:
        for i, j in itertools.combinations(range(dim), 2):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(dim)
                    v[i], v[j] = si, sj
                    dirs.append(v)
    return np.array(dirs)


def _compass_search(objective, starts, grid_points):
    """Maximize over the unit cube from each of the ``(S, dim)`` starts by
    coordinate/diagonal polling with an expanding-on-success,
    halving-on-failure step.

    The searches run in lockstep, each round scoring the polls of all
    running starts in one batch; a start moves to its first improving
    direction.  ``evals`` counts the directions a one-at-a-time poll
    would have tried.  Returns the refined parameters, their values and
    whether each search converged (rather than ran out of evaluations).
    """
    dirs = _poll_directions(starts.shape[1])
    theta = np.clip(np.asarray(starts, dtype=np.float64), 0.0, 1.0)
    best = objective(theta)
    step0 = 1 / (grid_points - 1) if grid_points > 1 else 0.1
    step = np.full(len(theta), step0)
    evals = np.zeros(len(theta), dtype=np.int64)
    spent = np.zeros(len(theta), dtype=bool)
    while True:
        live = step >= _STEP_FLOOR
        spent |= live & (evals >= _MAX_EVALS_PER_START)
        run = np.flatnonzero(live & ~spent)
        if not run.size:
            return theta, best, ~spent
        cands = np.clip(theta[run, None] + step[run, None, None] * dirs,
                        0.0, 1.0)
        vals = objective(cands.reshape(-1, dirs.shape[1])).reshape(
            len(run), len(dirs))
        better = vals > best[run, None] + 1e-15
        first = np.argmax(better, axis=1)
        moved = better[np.arange(len(run)), first]
        theta[run[moved]] = cands[moved, first[moved]]
        best[run[moved]] = vals[moved, first[moved]]
        evals[run] += np.where(moved, first + 1, len(dirs))
        step[run] = np.where(moved, np.minimum(step[run] * 2.0, 0.25),
                             step[run] * 0.5)
