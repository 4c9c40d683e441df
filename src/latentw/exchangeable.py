"""Exchangeable weights, components, residuals, bounds, and TV projection.

The exchangeable weight of a distribution ``P`` over a product space is
the largest ``lam`` such that ``P >= lam * Q`` pointwise for some
exchangeable ``Q`` (a distribution invariant under coordinate
permutations).  It has the closed form

    lam = sum over orbits z of |z| * min_{x in z} P(x),

and when ``lam > 0`` the maximizing ``Q`` is unique:
``Q(x) = m_[x] / lam`` with ``m_[x]`` the orbit minimum at ``x``.  The
residual ``R = (P - lam*Q) / (1-lam)`` then carries no exchangeable
component of its own, so ``P = lam*Q + (1-lam)*R`` splits ``P`` into an
exchangeable part and a fully unexchangeable part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (EmptyIndexSetError, NotExchangeableError,
                     ResidualNotPureError)
from .space import Distribution, SampleSpace

#: Relative tolerance for detecting argmin ties in float mode.
ARGMIN_RTOL = 1e-9
#: Absolute slack added on top of the relative tie tolerance.
ARGMIN_ATOL = 1e-15
#: lam closer to 1 than this is treated as exactly 1 (residual undefined).
LAMBDA_ONE_ATOL = 1e-12
#: Exchangeability / residual-purity check tolerance.
PURITY_TOL = 1e-9


def class_minima(p: Distribution) -> np.ndarray:
    """Per-orbit minima ``m_z`` of ``p`` (Fraction array in exact mode)."""
    index = p.space.orbit_index()
    if p.is_exact:
        mins = [min(p.p[i] for i in index.members(z))
                for z in range(index.n_classes)]
        return np.array(mins, dtype=object)
    return index.class_minima(p.p)


def exchangeable_weight(p: Distribution):
    """The exchangeable weight ``sum_z |z| * m_z`` of ``p``.

    Returns a ``Fraction`` in exact mode, otherwise a float clipped to
    ``[0, 1]`` (the clip only absorbs last-ulp rounding).
    """
    if not p.is_exact:
        return float(exchangeable_weight_rows(p.space, p.p[None, :])[0])
    index = p.space.orbit_index()
    return sum(Fraction(int(s)) * m
               for s, m in zip(index.sizes, class_minima(p)))


def exchangeable_weight_rows(space: SampleSpace, rows: np.ndarray,
                             total=None, lone: bool = False) -> np.ndarray:
    """Exchangeable weights of many probability vectors at once.

    ``rows`` is ``(..., n_rows, k**d)`` and the result ``(..., n_rows)``,
    clipped to ``[0, 1]``.  The rows are probabilities, or counts whose
    sum ``total`` is given per ``(n_rows, k**d)`` slice (broadcast over
    ``...``).  Counts are divided after the orbit minima are taken, on
    fewer cells and with the same bits, since dividing by a positive
    number keeps the order.

    By default each slice is reduced by one matrix product, as the
    replicates of one sample are.  ``lone=True`` reduces every row as a
    lone vector is reduced, so each row gets the bits of a
    single-distribution call (see :func:`_weights_of_minima`).
    """
    index = space.orbit_index()
    mins = index.class_minima_rows(np.asarray(rows))
    if total is not None:
        mins = mins / np.asarray(total)[..., None, None]
    return _weights_of_minima(index, mins, lone)


def _weights_of_minima(index, mins: np.ndarray, lone: bool) -> np.ndarray:
    """``sum_z |z| m_z`` along the last axis, clipped to ``[0, 1]``.

    numpy rounds a matrix product by its shape and memory layout: one
    contiguous row as a BLAS dot, several rows as a matrix-vector
    product, strided rows without BLAS.  ``lone=True`` makes every row a
    contiguous product of its own, which rounds as a lone vector does.
    """
    sizes = index.sizes.astype(np.float64)
    if lone:
        rows = np.ascontiguousarray(mins)[..., None, :]
        return np.clip(rows @ sizes, 0.0, 1.0)[..., 0]
    return np.clip(mins @ sizes, 0.0, 1.0)


def argmin_sets(p: Distribution, mins: np.ndarray | None = None,
                ) -> tuple[tuple[int, ...], ...]:
    """Per-orbit sets ``C_z`` of outcomes achieving the orbit minimum.

    Float mode uses the tie rule ``p(x) <= m_z*(1+1e-9) + 1e-15`` so that
    near-equal floats count as ties; exact mode uses equality.  ``mins``
    are the orbit minima of ``p`` when the caller has them already.
    """
    index = p.space.orbit_index()
    if mins is None:
        mins = class_minima(p)
    out = []
    for z in range(index.n_classes):
        members = index.members(z)
        m = mins[z]
        if p.is_exact:
            hit = tuple(int(i) for i in members if p.p[i] == m)
        else:
            thresh = m * (1.0 + ARGMIN_RTOL) + ARGMIN_ATOL
            hit = tuple(int(i) for i in members if p.p[i] <= thresh)
        out.append(hit)
    return tuple(out)


def is_exchangeable(p: Distribution, tol: float = PURITY_TOL) -> bool:
    """True when ``p`` is constant within every orbit (within ``tol``)."""
    index = p.space.orbit_index()
    if p.is_exact:
        return all(
            len({p.p[i] for i in index.members(z)}) == 1
            for z in range(index.n_classes)
        )
    grouped = p.p[index.order]
    mins = np.minimum.reduceat(grouped, index.starts)
    maxs = np.maximum.reduceat(grouped, index.starts)
    return bool(np.max(maxs - mins) <= tol)


@dataclass(frozen=True)
class ExchangeableDecomposition:
    """Result of :func:`decompose`.

    ``q`` is the unique exchangeable component (absent when ``lam == 0``)
    and ``r`` the unexchangeable residual (absent when ``lam == 1``); when
    both are present, ``p = lam*q + (1-lam)*r`` and the residual itself
    has exchangeable weight 0.
    """

    lam: float | Fraction
    q: Distribution | None
    r: Distribution | None
    per_class_min: np.ndarray
    argmin_sets: tuple[tuple[int, ...], ...]


def decompose(p: Distribution) -> ExchangeableDecomposition:
    """Split ``p`` into exchangeable component and unexchangeable residual."""
    index = p.space.orbit_index()
    if p.is_exact:
        mins = class_minima(p)
        lam = sum(Fraction(int(s)) * m for s, m in zip(index.sizes, mins))
        at_one = lam == 1
        q = None if lam == 0 else Distribution(p.space,
                                               mins[index.class_of] / lam)
    else:
        lams, q_rows, min_rows = exchangeable_component_rows(
            p.space, p.p[None, :])
        lam, mins = float(lams[0]), min_rows[0]
        at_one = lam >= 1.0 - LAMBDA_ONE_ATOL
        q = None if lam == 0.0 else Distribution(p.space, q_rows[0])
        mins.setflags(write=False)
    # Residual computed from the orbit minima directly (rather than
    # lam*q) so its argmin entries are exactly zero.  It is scaled by its
    # own sum: in float mode ``1 - lam`` loses digits as lam nears 1.
    r = None
    if not at_one:
        resid = p.p - mins[index.class_of]
        r = Distribution(p.space, resid / resid.sum())
    return ExchangeableDecomposition(lam=lam, q=q, r=r, per_class_min=mins,
                                     argmin_sets=argmin_sets(p, mins))


def exchangeable_component_rows(space: SampleSpace, rows: np.ndarray,
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, exchangeable components and orbit minima of float rows.

    ``rows`` is ``(n, k**d)``; returns ``lam`` ``(n,)``, ``q`` ``(n, k**d)``
    and the minima ``(n, n_classes)``.  A row's ``q`` is ``m_[x] / lam``,
    the row itself when ``lam`` is within ``1e-12`` of 1 (it is its own
    component), and all zero when ``lam == 0`` (there is no component).
    Each row is computed as if it came alone.
    """
    index = space.orbit_index()
    mins = index.class_minima_rows(rows)
    lam = _weights_of_minima(index, mins, lone=True)
    has_q = lam[:, None] > 0.0
    q = np.divide(mins[:, index.class_of], lam[:, None],
                  out=np.zeros(rows.shape), where=has_q)
    at_one = lam >= 1.0 - LAMBDA_ONE_ATOL
    q[at_one] = rows[at_one]
    return lam, q, mins


def synthesize_mixture(q: Distribution, r: Distribution, beta) -> Distribution:
    """``beta*q + (1-beta)*r`` for exchangeable ``q`` and pure residual ``r``.

    The construction guarantees the mixture's exchangeable weight is
    exactly ``beta``.

    Raises
    ------
    NotExchangeableError
        If ``q`` is not exchangeable within tolerance.
    ResidualNotPureError
        If ``r`` has exchangeable weight above ``1e-9``.
    """
    if q.space != r.space:
        raise ValueError("q and r must share a sample space")
    if not is_exchangeable(q):
        raise NotExchangeableError("q is not exchangeable within tolerance")
    lam_r = exchangeable_weight(r)
    if lam_r > PURITY_TOL:
        raise ResidualNotPureError(
            f"r has exchangeable weight {lam_r}, expected 0")
    if not 0 <= beta <= 1:
        raise ValueError(f"beta must be in [0,1], got {beta}")
    return Distribution(q.space, beta * q.p + (1 - beta) * r.p)


# ---------------------------------------------------------------------------
# Upper bounds: marginalization and symbol lumping.
# ---------------------------------------------------------------------------

def _marginal_coords(p: Distribution, index_set) -> list[int]:
    coords = sorted(set(int(i) for i in index_set))
    if not coords:
        raise EmptyIndexSetError("index set must be non-empty")
    if coords[0] < 1 or coords[-1] > p.space.d:
        raise ValueError(f"indices must lie in 1..{p.space.d}, got {coords}")
    return coords


def marginalize(p: Distribution, index_set) -> Distribution:
    """Marginal of ``p`` on the 1-based coordinate set ``index_set``.

    Returns a distribution on a fresh ``SampleSpace(k, |I|)`` whose
    coordinates follow the ascending order of ``index_set``, which must
    name at least two coordinates: a one-coordinate marginal lies outside
    the ``d >= 2`` space family.
    """
    coords = _marginal_coords(p, index_set)
    if len(coords) == 1:
        raise ValueError(
            f"a marginal on the single coordinate {coords[0]} is outside "
            "the d >= 2 space family (its exchangeable weight is 1)")
    if len(coords) == p.space.d:
        return p
    k = p.space.k
    sub_space = SampleSpace(k=k, d=len(coords))
    mat = p.space.outcome_matrix()
    cols = mat[:, [c - 1 for c in coords]].astype(np.int64)
    radix = k ** np.arange(len(coords) - 1, -1, -1, dtype=np.int64)
    target = cols @ radix
    if p.is_exact:
        acc = [Fraction(0)] * sub_space.n_outcomes
        for i, t in enumerate(target):
            acc[t] += p.p[i]
        return Distribution(sub_space, acc)
    acc = np.bincount(target, weights=p.p, minlength=sub_space.n_outcomes)
    return Distribution(sub_space, acc)


def marginal_weight_bound(p: Distribution, index_set):
    """Exchangeable weight of the marginal on coordinates ``index_set``.

    Always an upper bound for the exchangeable weight of ``p`` itself.  A
    one-coordinate marginal is trivially exchangeable: weight 1.
    """
    if len(_marginal_coords(p, index_set)) == 1:
        return Fraction(1) if p.is_exact else 1.0
    return exchangeable_weight(marginalize(p, index_set))


def lump(p: Distribution, symbol_map) -> Distribution:
    """Forward measure of ``p`` under a coordinatewise symbol relabeling.

    ``symbol_map`` maps every symbol ``0..k-1`` to an arbitrary label;
    labels are re-numbered ``0..k'-1`` in sorted order.  Lumping to a
    single label collapses everything onto one constant outcome, which is
    outside the ``k >= 2`` space family, so callers wanting only the
    weight should use :func:`lumping_weight_bound`.
    """
    k = p.space.k
    try:
        labels = [symbol_map[s] for s in range(k)]
    except KeyError as exc:
        raise ValueError(f"symbol map is not total: missing {exc.args[0]!r}")
    label_ids = {lab: i for i, lab in enumerate(sorted(set(labels), key=str))}
    new_k = len(label_ids)
    if new_k < 2:
        raise ValueError("lumped alphabet has a single symbol; the forward "
                         "measure is a point mass with weight 1")
    relabel = np.array([label_ids[lab] for lab in labels], dtype=np.int64)
    mat = p.space.outcome_matrix().astype(np.int64)
    lumped = relabel[mat]
    radix = new_k ** np.arange(p.space.d - 1, -1, -1, dtype=np.int64)
    target = lumped @ radix
    new_space = SampleSpace(k=new_k, d=p.space.d)
    if p.is_exact:
        acc = [Fraction(0)] * new_space.n_outcomes
        for i, t in enumerate(target):
            acc[t] += p.p[i]
        return Distribution(new_space, acc)
    acc = np.bincount(target, weights=p.p, minlength=new_space.n_outcomes)
    return Distribution(new_space, acc)


def lumping_weight_bound(p: Distribution, symbol_map):
    """Exchangeable weight of the lumped measure (upper bound for ``p``'s).

    A map onto a single label yields weight 1 (all mass on one constant
    outcome).
    """
    k = p.space.k
    try:
        labels = {symbol_map[s] for s in range(k)}
    except KeyError as exc:
        raise ValueError(f"symbol map is not total: missing {exc.args[0]!r}")
    if len(labels) == 1:
        return Fraction(1) if p.is_exact else 1.0
    return exchangeable_weight(lump(p, symbol_map))


# ---------------------------------------------------------------------------
# Total variation projection onto the exchangeable simplex.
# ---------------------------------------------------------------------------

def tv_distance_to_exchangeable(p: Distribution):
    """Minimum TV distance from ``p`` to any exchangeable distribution.

    The objective ``(1/2) sum_x |p(x) - q_[x]|`` is convex and separable
    over orbits under the one constraint ``sum_z |z| q_z = 1``, so an
    ordered fill solves it exactly:

    1. start every orbit at its minimum, which places mass ``lam``;
    2. the gap above the j-th sorted value (0-based) of orbit ``z`` holds
       ``|z| (p_(j+1) - p_(j))`` mass at cost ``(2(j+1) - |z|)/|z|`` per
       unit, and the gap above the orbit maximum any mass at cost 1
       (never needed, since ``sum_z |z| max_z >= 1``);
    3. put the missing ``1 - lam`` into the cheapest gaps first, ties
       broken by orbit id so that ``q`` is deterministic (slopes rise
       strictly within an orbit, so its gaps fill in order of j).

    Hence ``TV = (1-lam)/2 + (1/2) sum slope * mass``, which lies in
    ``[0, 1-lam]`` since every slope is in ``(-1, 1]``.  Returns the
    minimum and the achieving distribution, computed in float64 (exact
    inputs are converted first).  For a stack of laws it returns the
    ``(n,)`` distances and the stack of projections; each row is
    computed as if it came alone, since the fill order depends only on
    the orbit sizes and one order serves every row.
    """
    pf = p.as_float()
    index = pf.space.orbit_index()
    rows = np.atleast_2d(pf.p)
    n = len(rows)
    cls = index.class_of[index.order]
    vals = rows[:, index.order]
    order = np.lexsort((vals, np.broadcast_to(cls, vals.shape)), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)   # ascending in orbit
    size = index.sizes[cls]
    j = np.arange(len(cls)) - index.starts[cls]       # rank inside the orbit
    slope = (2 * (j + 1) - size) / size               # 1 above the orbit max
    gap = np.diff(vals, axis=-1, append=np.inf)
    gap[:, j == size - 1] = np.inf
    mins = vals[:, index.starts]
    # Clipped at 1: a weight rounded above 1 leaves nothing to fill either way.
    lam = _weights_of_minima(index, mins, lone=True)

    fill = np.lexsort((cls, slope))
    cap = size[fill] * gap[:, fill]
    before = np.zeros_like(cap)
    np.cumsum(cap[:, :-1], axis=-1, out=before[:, 1:])
    taken = np.clip((1.0 - lam)[:, None] - before, 0.0, cap)
    # One bincount over all rows: bin (row, orbit), summed in fill order.
    bins = np.arange(n)[:, None] * index.n_classes + cls[fill]
    added = np.bincount(bins.ravel(), weights=taken.ravel(),
                        minlength=n * index.n_classes)
    # np.take keeps q C-contiguous, so each row sums pairwise as a lone
    # vector does; q[:, class_of] would be strided and sum sequentially.
    added = added.reshape(n, index.n_classes)
    q = np.take(mins + added / index.sizes, index.class_of, axis=-1)
    q /= q.sum(axis=-1, keepdims=True)
    dist = 0.5 * np.abs(rows - q).sum(axis=-1)
    if pf.p.ndim == 2:
        return dist, Distribution(pf.space, q)
    return float(dist[0]), Distribution(pf.space, q[0])


def tv_distance(p1: Distribution, p2: Distribution) -> float:
    """Total variation distance, half the L1 gap."""
    if p1.space != p2.space:
        raise ValueError("distributions on different spaces")
    a, b = p1.as_float().p, p2.as_float().p
    return float(0.5 * np.abs(a - b).sum())
