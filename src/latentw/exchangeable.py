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
    index = p.space.orbit_index()
    mins = class_minima(p)
    if p.is_exact:
        return sum(Fraction(int(s)) * m for s, m in zip(index.sizes, mins))
    return float(np.clip(index.sizes @ mins, 0.0, 1.0))


def exchangeable_weight_rows(space: SampleSpace, rows: np.ndarray) -> np.ndarray:
    """Exchangeable weights of many probability vectors at once.

    ``rows`` is ``(n_rows, k**d)`` float; used on resampled empirical
    measures where per-row Python overhead would dominate.
    """
    index = space.orbit_index()
    mins = index.class_minima_rows(np.asarray(rows, dtype=np.float64))
    return np.clip(mins @ index.sizes.astype(np.float64), 0.0, 1.0)


def argmin_sets(p: Distribution) -> tuple[tuple[int, ...], ...]:
    """Per-orbit sets ``C_z`` of outcomes achieving the orbit minimum.

    Float mode uses the tie rule ``p(x) <= m_z*(1+1e-9) + 1e-15`` so that
    near-equal floats count as ties; exact mode uses equality.
    """
    index = p.space.orbit_index()
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
    mins = class_minima(p)
    sets = argmin_sets(p)
    m_outcome = mins[index.class_of]       # orbit minimum, per outcome

    if p.is_exact:
        lam = sum(Fraction(int(s)) * m for s, m in zip(index.sizes, mins))
        at_one = lam == 1
        at_zero = lam == 0
    else:
        lam = float(np.clip(index.sizes @ mins, 0.0, 1.0))
        at_one = lam >= 1.0 - LAMBDA_ONE_ATOL
        at_zero = lam == 0.0

    q = None
    if not at_zero:
        if at_one and not p.is_exact:
            q = p  # within 1e-12 of exchangeable; p is its own component
        else:
            q = Distribution(p.space, m_outcome / lam)
    # Residual computed from the orbit minima directly (rather than
    # lam*q) so its argmin entries are exactly zero.  It is scaled by its
    # own sum: in float mode ``1 - lam`` loses digits as lam nears 1.
    r = None
    if not at_one:
        resid = p.p - m_outcome
        r = Distribution(p.space, resid / resid.sum())
    if not p.is_exact:
        mins = np.asarray(mins, dtype=np.float64)
        mins.setflags(write=False)
    return ExchangeableDecomposition(lam=lam, q=q, r=r,
                                     per_class_min=mins, argmin_sets=sets)


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

def marginalize(p: Distribution, index_set) -> Distribution:
    """Marginal of ``p`` on the 1-based coordinate set ``index_set``.

    Returns a distribution on a fresh ``SampleSpace(k, |I|)`` whose
    coordinates follow the ascending order of ``index_set``.
    """
    coords = sorted(set(int(i) for i in index_set))
    if not coords:
        raise EmptyIndexSetError("index set must be non-empty")
    if coords[0] < 1 or coords[-1] > p.space.d:
        raise ValueError(f"indices must lie in 1..{p.space.d}, got {coords}")
    if len(coords) == p.space.d:
        return p
    k = p.space.k
    sub_space = SampleSpace(k=k, d=len(coords)) if len(coords) >= 2 else None
    mat = p.space.outcome_matrix()
    cols = mat[:, [c - 1 for c in coords]].astype(np.int64)
    radix = k ** np.arange(len(coords) - 1, -1, -1, dtype=np.int64)
    target = cols @ radix
    n_target = k ** len(coords)
    if p.is_exact:
        acc = [Fraction(0)] * n_target
        for i, t in enumerate(target):
            acc[t] += p.p[i]
        if sub_space is None:
            return _MarginalVector(k, acc)
        return Distribution(sub_space, acc)
    acc = np.bincount(target, weights=p.p, minlength=n_target)
    if sub_space is None:
        return _MarginalVector(k, list(acc))
    return Distribution(sub_space, acc)


class _MarginalVector:
    """One-coordinate marginal (d=1 falls outside SampleSpace's d>=2).

    Only what the weight bound needs: a 1-dimensional marginal is
    automatically exchangeable, so its weight is 1.
    """

    def __init__(self, k: int, p):
        self.k = k
        self.p = p


def marginal_weight_bound(p: Distribution, index_set):
    """Exchangeable weight of the marginal on coordinates ``index_set``.

    Always an upper bound for the exchangeable weight of ``p`` itself.
    """
    marg = marginalize(p, index_set)
    if isinstance(marg, _MarginalVector):
        return Fraction(1) if p.is_exact else 1.0
    return exchangeable_weight(marg)


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

def tv_distance_to_exchangeable(p: Distribution) -> tuple[float, Distribution]:
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
    inputs are converted first).
    """
    pf = p.as_float()
    index = pf.space.orbit_index()
    cls = index.class_of[index.order]
    vals = pf.p[index.order]
    vals = vals[np.lexsort((vals, cls))]          # ascending within orbit
    size = index.sizes[cls]
    j = np.arange(len(vals)) - index.starts[cls]  # rank inside the orbit
    slope = (2 * (j + 1) - size) / size           # 1 above the orbit max
    gap = np.append(vals[1:] - vals[:-1], np.inf)
    gap[j == size - 1] = np.inf
    mins = vals[index.starts]

    fill = np.lexsort((cls, slope))
    cap = size[fill] * gap[fill]
    before = np.concatenate(([0.0], np.cumsum(cap)[:-1]))
    taken = np.clip(1.0 - index.sizes @ mins - before, 0.0, cap)
    added = np.bincount(cls[fill], weights=taken, minlength=len(mins))
    q_vec = (mins + added / index.sizes)[index.class_of]
    q = Distribution(pf.space, q_vec / q_vec.sum())
    return tv_distance(pf, q), q


def tv_distance(p1: Distribution, p2: Distribution) -> float:
    """Total variation distance, half the L1 gap."""
    if p1.space != p2.space:
        raise ValueError("distributions on different spaces")
    a, b = p1.as_float().p, p2.as_float().p
    return float(0.5 * np.abs(a - b).sum())
