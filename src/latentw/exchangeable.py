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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (EmptyIndexSetError, NotExchangeableError,
                     ResidualNotPureError)
from .space import (CountVector, Distribution, SampleSpace,
                    empirical_distribution, ratio)

#: Relative tolerance for detecting argmin ties in a float law.
ARGMIN_RTOL = 1e-9
#: Absolute slack added on top of the relative tie tolerance.
ARGMIN_ATOL = 1e-15
#: A float law's lam closer to 1 than this is treated as exactly 1
#: (residual undefined).
LAMBDA_ONE_ATOL = 1e-12
#: Exchangeability / residual-purity check tolerance for float laws.
PURITY_TOL = 1e-9


def _orbit_mass(p: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Orbit minima of ``p``'s numerators and ``sum_z |z| m_z``, the
    weight's numerator (capped at ``den``, which only a float law's
    rounding can pass)."""
    index = p.space.orbit_index()
    mins = index.class_minima_rows(p.num)
    return mins, np.minimum(mins @ index.sizes, np.asarray(p.den))


def exchangeable_weight(p: Distribution):
    """The exchangeable weight ``sum_z |z| * m_z`` of ``p``.

    A ``Fraction`` for an exact law, otherwise the correctly rounded float
    (of a float law's own rounded sum); an array for a stack of laws.
    """
    return p.ratio(_orbit_mass(p)[1], p.den)


def exchangeable_weight_rows(space: SampleSpace, rows: np.ndarray,
                             total=1) -> np.ndarray:
    """Exchangeable weights of many vectors at once.

    ``rows`` is ``(..., n_rows, k**d)`` and the result ``(..., n_rows)``,
    capped at 1.  The rows are float probabilities, or counts whose sum
    ``total`` is given per ``(n_rows, k**d)`` slice (broadcast over
    ``...``).  Counts divide once, after the orbit minima: each weight is
    the correctly rounded ``W / total``, whatever the rows around it.
    """
    index = space.orbit_index()
    mass = index.class_minima_rows(np.asarray(rows)) @ index.sizes
    return np.minimum(ratio(mass, np.expand_dims(total, -1)), 1.0)


def argmin_sets(p: Distribution, mins: np.ndarray | None = None,
                ) -> tuple[tuple[int, ...], ...]:
    """Per-orbit sets ``C_z`` of outcomes achieving the orbit minimum.

    Integer numerators tie when equal.  A float law uses the tie rule
    ``p(x) <= m_z*(1+1e-9) + 1e-15`` so that near-equal floats count as
    ties.  ``mins`` are the orbit minima of ``p``'s numerators when the
    caller has them already.
    """
    index = p.space.orbit_index()
    if mins is None:
        mins = index.class_minima_rows(p.num)
    m_x = mins[index.class_of]
    hit = p.num <= m_x + p.slack(ARGMIN_RTOL) * m_x + p.slack(ARGMIN_ATOL)
    return tuple(tuple(members[hit[members]].tolist())
                 for members in map(index.members, range(index.n_classes)))


def is_exchangeable(p: Distribution) -> bool:
    """True when ``p`` is constant within every orbit (within
    ``PURITY_TOL`` for a float law, exactly otherwise)."""
    index = p.space.orbit_index()
    grouped = p.num[index.order]
    spread = (np.maximum.reduceat(grouped, index.starts)
              - np.minimum.reduceat(grouped, index.starts))
    return bool(spread.max() <= p.slack(PURITY_TOL))


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
    """Split ``p`` into exchangeable component and unexchangeable residual.

    On numerators ``c`` over ``n`` with orbit minima ``m`` and weight
    numerator ``W``, the component is ``m_[x] / W`` and the residual
    ``(c - m_[x]) / (n - W)``, each divided once.
    """
    index = p.space.orbit_index()
    mins, mass = _orbit_mass(p)
    m_x = mins[index.class_of]
    q = None if mass == 0 else p.law(m_x, mass)
    # The residual is scaled by its own sum: ``n - W`` for integers, where
    # a float law's ``1 - lam`` would lose digits as lam nears 1.
    resid = p.num - m_x
    r = (p.law(resid, resid.sum())
         if mass < p.den - p.slack(LAMBDA_ONE_ATOL) else None)
    return ExchangeableDecomposition(
        lam=p.ratio(mass, p.den), q=q, r=r,
        per_class_min=p.ratio(mins, p.den), argmin_sets=argmin_sets(p, mins))


def exchangeable_component_rows(space: SampleSpace, rows: np.ndarray,
                                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, exchangeable components and orbit minima of count rows.

    ``rows`` is ``(n, k**d)`` counts; returns, as floats, ``lam``
    ``(n,)``, ``q`` ``(n, k**d)`` and the minima ``(n, n_classes)``, each
    row as :func:`decompose` gives it.  A row's ``q`` is all zero when
    ``lam == 0`` (there is no component).
    """
    p = empirical_distribution(CountVector(space, rows))
    index = space.orbit_index()
    mins, mass = _orbit_mass(p)
    # With W = 0 every minimum is 0, so dividing by 1 gives the zero row.
    q = p.ratio(mins[:, index.class_of], np.maximum(mass, 1)[:, None])
    return p.ratio(mass, p.den), q, p.ratio(mins, p.den[:, None])


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
    return _forward(p, sub_space, cols @ radix)


def marginal_weight_bound(p: Distribution, index_set):
    """Exchangeable weight of the marginal on coordinates ``index_set``.

    Always an upper bound for the exchangeable weight of ``p`` itself.  A
    one-coordinate marginal is trivially exchangeable: weight 1.
    """
    if len(_marginal_coords(p, index_set)) == 1:
        return p.ratio(1, 1)
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
    return _forward(p, SampleSpace(k=new_k, d=p.space.d), lumped @ radix)


def _forward(p: Distribution, space: SampleSpace,
             target: np.ndarray) -> Distribution:
    """The law on ``space`` that puts ``p``'s mass at ``x`` on
    ``target[x]``, summed on the numerators."""
    acc = np.zeros(space.n_outcomes, dtype=p.num.dtype)
    np.add.at(acc, target, p.num)
    return p.law(acc, p.den, space)


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
        return p.ratio(1, 1)
    return exchangeable_weight(lump(p, symbol_map))


# ---------------------------------------------------------------------------
# Total variation projection onto the exchangeable simplex.
# ---------------------------------------------------------------------------

def tv_distance_to_exchangeable(p: Distribution):
    """Minimum TV distance from ``p`` to any exchangeable distribution.

    The objective ``(1/2) sum_x |p(x) - q_[x]|`` is convex and separable
    over orbits under the one constraint ``sum_z |z| q_z = 1``, so an
    ordered fill solves it exactly.  On numerators ``c`` over ``n``:

    1. start every orbit at its minimum, which places ``W``;
    2. the gap above the j-th sorted value (0-based) of orbit ``z``, up
       to its maximum, holds ``|z| (c_(j+1) - c_(j))`` at cost
       ``(2(j+1) - |z|)/|z|`` per unit; the gaps hold ``n - W`` at least,
       since ``sum_z |z| max_z >= n``;
    3. pour the missing ``n - W`` into the cheapest gaps first, ties
       broken by orbit id so that ``q`` is deterministic (slopes rise
       strictly within an orbit, so its gaps fill in order of j).

    Hence ``2n TV = (n - W) + sum slope * taken``, which lies in
    ``[0, 2(n - W)]`` since every slope is in ``(-1, 1)``.  ``L * slope``
    is an integer for ``L`` the lcm of the orbit sizes (below ``2**30``
    for ``k**d <= 2**24``), so on integer numerators the fill is exact
    and ``2nL TV`` an integer, divided once.  No integer of the fill
    exceeds ``2nL`` in size; past int64 it runs on Python ints.

    Returns the minimum and the achieving distribution, exact for an
    exact law.  For a stack of laws it returns the ``(n,)`` distances and
    the stack of projections: the fill order depends only on the orbit
    sizes, so one order serves every row.
    """
    index = p.space.orbit_index()
    num, den = np.atleast_2d(p.num), np.atleast_1d(p.den)
    scale = math.lcm(*index.sizes.tolist())
    if num.dtype.kind != "f" and 2 * scale * int(den.max()) >= 2**63:
        num, den = num.astype(object), den.astype(object)
    cls = index.class_of[index.order]
    vals = num[:, index.order]
    vals = np.take_along_axis(vals, np.lexsort(
        (vals, np.broadcast_to(cls, vals.shape)), axis=-1), axis=-1)
    size = index.sizes[cls]
    j = np.arange(len(cls)) - index.starts[cls]       # rank inside the orbit
    slope = (2 * (j + 1) - size) * (scale // size)    # L * cost per unit
    below = np.flatnonzero(j < size - 1)              # gaps below an orbit max
    fill = below[np.lexsort((cls[below], slope[below]))]
    cap = size[fill] * (vals[:, fill + 1] - vals[:, fill])
    mins = vals[:, index.starts]
    pour = den - np.minimum(mins @ index.sizes, den)
    taken = np.minimum(np.maximum(
        pour[:, None] - (np.cumsum(cap, axis=-1) - cap), 0), cap)
    placed = mins * index.sizes                       # |z| q_z, in units of c
    np.add.at(placed, (np.arange(len(num))[:, None], cls[fill]), taken)
    dist = p.ratio(pour * scale + taken @ slope[fill], 2 * scale * den)
    q_num = (placed * (scale // index.sizes))[:, index.class_of]
    if p.num.ndim == 1:
        return dist.tolist()[0], p.law(q_num[0], scale * den[0])
    return dist, p.law(q_num, scale * den)


def tv_distance(p1: Distribution, p2: Distribution) -> float:
    """Total variation distance, half the L1 gap."""
    if p1.space != p2.space:
        raise ValueError("distributions on different spaces")
    a, b = p1.as_float().p, p2.as_float().p
    return float(0.5 * np.abs(a - b).sum())
