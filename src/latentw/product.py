"""Latent weights with respect to singleton and product-form model classes.

For a reference class ``Q`` of distributions, the latent weight of ``P``
is ``sup_{Q in class} min_x P(x)/Q(x)`` with any division by zero read as
+infinity.  A singleton class has the closed-form answer (one min).  For
the i.i.d. class (a common marginal on the alphabet, taken to the d-th
power) and the product class (independent, possibly different marginals)
the supremum is found numerically: a coarse grid over the marginal
parameters seeds a handful of derivative-free compass-search refinements,
and the winner is certified by checking ``P >= lam*Q`` pointwise.  The
objective is scored in batches: the whole grid in one numpy pass, and
the searches run in lockstep, every direction of every running start's
compass poll scored together in one pass per round.
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


@dataclass(frozen=True)
class OptimizerOptions:
    grid_points: int = 33          # grid resolution per parameter
    n_starts: int = 8              # refinements launched from best grid points
    step_floor: float = 1e-7       # compass search terminates below this step
    max_dim: int = 16              # refuse problems with more parameters
    max_grid_total: int = 60000    # cap on total grid evaluations
    max_evals_per_start: int = 20000


@dataclass(frozen=True)
class SupMinResult:
    """Outcome of a sup-min optimization over a product-form class."""

    lam: float
    argmax_q: Distribution
    certificate_margin: float      # min_x (p(x) - lam*q(x)); >= -1e-9
    multistart_log: tuple          # ((start params, refined value), ...)
    converged: bool = True


def class_weight(p: Distribution, spec: ProductClassSpec,
                 opts: OptimizerOptions | None = None) -> SupMinResult:
    """Latent weight of ``p`` w.r.t. the class described by ``spec``.

    Raises
    ------
    DimensionTooLargeError
        If the free parameter count (``k-1`` for iid, ``d*(k-1)`` for
        product) exceeds ``opts.max_dim``.
    """
    opts = opts or OptimizerOptions()
    if spec.kind == "singleton":
        lam = float(singleton_weight(p, spec.q0))
        qf = spec.q0.as_float()
        margin = float(np.min(p.as_float().p - lam * qf.p))
        return SupMinResult(lam=lam, argmax_q=qf, certificate_margin=margin,
                            multistart_log=((None, lam),))

    space = p.space
    k, d = space.k, space.d
    dim = (k - 1) if spec.kind == "iid" else d * (k - 1)
    if dim > opts.max_dim:
        raise DimensionTooLargeError(
            f"{spec.kind} class over k={k}, d={d} has {dim} parameters "
            f"(limit {opts.max_dim})")

    pf = p.as_float().p
    mat = space.outcome_matrix().astype(np.int64)
    objective = _Objective(pf, mat, k, d)

    starts = _grid_starts(objective, dim, opts)
    thetas, values, converged = _compass_search(objective, starts, opts)
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


#: Cap on the ``rows x outcomes`` elements one scoring pass materializes,
#: so that a large grid or outcome space is scored in bounded memory.
_CHUNK_ELEMENTS = 2**21


class _Objective:
    """g(theta) = min_x p(x)/Q_theta(x), stick-breaking parameterization.

    Each marginal over the alphabet is parameterized by ``k-1`` numbers in
    [0,1]: mu_0 = t_1, mu_1 = t_2*(1-t_1), ..., with the last symbol
    taking the remainder.  The cube [0,1]^(k-1) maps onto the whole
    simplex including its boundary, so point masses are reachable.

    Calls score a batch: a ``(G, dim)`` array of parameter rows maps to
    ``G`` values, computed ``_CHUNK_ELEMENTS // n_outcomes`` rows at a time.
    """

    def __init__(self, p, mat, k, d):
        self.p = p
        self.mat = mat
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
        """``(G, n_outcomes)`` product laws, multiplied coordinate by
        coordinate in order."""
        margs = self.marginals(thetas)
        q = margs[:, 0, self.mat[:, 0]]
        for j in range(1, self.d):
            q *= margs[:, j, self.mat[:, j]]
        return q

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        rows = max(1, _CHUNK_ELEMENTS // len(self.p))
        values = np.empty(len(thetas))
        for lo in range(0, len(thetas), rows):
            q = self.q_rows(thetas[lo:lo + rows])
            ratio = np.divide(self.p, q, out=np.full_like(q, np.inf),
                              where=q > 0.0)
            values[lo:lo + rows] = ratio.min(axis=1)
        # A row with no positive Q keeps +inf; g scores it 0.
        values[np.isinf(values)] = 0.0
        return values


def _grid_starts(objective, dim, opts):
    """Score a deterministic grid in one batch and keep the best starting
    points, ordered by value, then lexicographically by parameters (the
    order of the ``ij`` grid rows, which a stable sort keeps)."""
    per_param = opts.grid_points
    # Shrink the per-parameter resolution until the full grid fits the
    # evaluation budget (high-dimensional products explode otherwise).
    while per_param > 2 and per_param**dim > opts.max_grid_total:
        per_param -= 1
    axis = np.linspace(0.0, 1.0, per_param)
    grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"),
                    axis=-1).reshape(-1, dim)
    values = objective(grid)
    return grid[np.argsort(-values, kind="stable")[: opts.n_starts]]


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


def _compass_search(objective, starts, opts):
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
    step0 = 1.0 / (opts.grid_points - 1) if opts.grid_points > 1 else 0.1
    step = np.full(len(theta), step0)
    evals = np.zeros(len(theta), dtype=np.int64)
    spent = np.zeros(len(theta), dtype=bool)
    while True:
        live = step >= opts.step_floor
        spent |= live & (evals >= opts.max_evals_per_start)
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
