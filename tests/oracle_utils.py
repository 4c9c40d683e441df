"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes quantities from first principles (itertools
enumeration, per-outcome permutation minima, ``Fraction`` arithmetic,
simplex grids, a whole-grid start ranking, a generic LP solver, a
per-window loop over reads, a per-line epiread parser) without touching
the package's orbit index, TV projection, optimizer, grid tiles, block
parser, window-counting or bootstrap-draw code paths.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from latentw import product


def brute_orbits(k: int, d: int) -> dict[tuple, list[tuple]]:
    """Orbits as {sorted-rep: [member tuples]} via direct enumeration."""
    orbits: dict[tuple, list[tuple]] = {}
    for outcome in itertools.product(range(k), repeat=d):
        orbits.setdefault(tuple(sorted(outcome)), []).append(outcome)
    return orbits


def multinomial_orbit_size(rep: tuple, k: int) -> int:
    counts = [0] * k
    for s in rep:
        counts[s] += 1
    size = math.factorial(len(rep))
    for c in counts:
        size //= math.factorial(c)
    return size


def brute_exchangeable_weight(p_by_tuple: dict[tuple, float]) -> float:
    """sum_x min over coordinate permutations of x (direct definition)."""
    total = 0.0
    for outcome in p_by_tuple:
        perms = {tuple(perm) for perm in itertools.permutations(outcome)}
        total += min(p_by_tuple[y] for y in perms)
    return total


def brute_weight_vector(p: np.ndarray, k: int, d: int) -> float:
    outcomes = list(itertools.product(range(k), repeat=d))
    table = {o: p[i] for i, o in enumerate(outcomes)}
    return brute_exchangeable_weight(table)


class ExactDecomposition(NamedTuple):
    lam: Fraction
    minima: list            # per orbit, in canonical-representative order
    q: list | None          # per outcome; None when lam == 0
    r: list | None          # per outcome; None when lam == 1


def exact_decomposition_oracle(counts, k: int, d: int) -> ExactDecomposition:
    """Weight, orbit minima, component and residual of ``counts / n`` in
    ``Fraction`` arithmetic, orbit by enumerated orbit.

    ``lam = sum_z |z| m_z``, ``q(x) = m_[x] / lam`` and
    ``r(x) = (p(x) - m_[x]) / (1 - lam)``, with ``m_z`` the smallest
    probability in orbit ``z``.
    """
    n = sum(int(c) for c in counts)
    p = [Fraction(int(c), n) for c in counts]
    orbits = [[_lex_index(m, k) for m in members]
              for _, members in sorted(brute_orbits(k, d).items())]
    minima = [min(p[x] for x in members) for members in orbits]
    m_at = [Fraction(0)] * len(p)
    for members, m in zip(orbits, minima):
        for x in members:
            m_at[x] = m
    lam = sum(len(members) * m for members, m in zip(orbits, minima))
    q = None if lam == 0 else [m / lam for m in m_at]
    r = None if lam == 1 else [(px - m) / (1 - lam)
                               for px, m in zip(p, m_at)]
    return ExactDecomposition(lam, minima, q, r)


def tv_fill_oracle(counts, k: int, d: int) -> tuple[Fraction, list]:
    """Minimum TV distance of ``counts / n`` to the exchangeable simplex
    and its projection, by the ordered fill in ``Fraction`` arithmetic.

    Each orbit starts at its minimum; the gap above its j-th smallest
    value (0-based) holds ``|z| * gap`` mass at cost
    ``(2(j+1) - |z|)/|z|`` per unit.  The missing mass goes into the
    cheapest gaps first, the lower orbit first on a tie.  The distance is
    then recomputed as ``(1/2) sum_x |p(x) - q(x)|`` and checked against
    the fill's own cost.
    """
    n = sum(int(c) for c in counts)
    p = [Fraction(int(c), n) for c in counts]
    orbits = [[_lex_index(m, k) for m in members]
              for _, members in sorted(brute_orbits(k, d).items())]
    level = [min(p[x] for x in members) for members in orbits]
    gaps = []
    for z, members in enumerate(orbits):
        vals, size = sorted(p[x] for x in members), len(members)
        gaps += [(Fraction(2 * (j + 1) - size, size), z,
                  size * (vals[j + 1] - vals[j])) for j in range(size - 1)]
    missing = 1 - sum(len(m) * lv for m, lv in zip(orbits, level))
    cost = missing
    for slope, z, cap in sorted(gaps, key=lambda g: g[:2]):
        take = min(cap, missing)
        level[z] += take / len(orbits[z])
        cost += slope * take
        missing -= take
    assert missing == 0
    q = [Fraction(0)] * len(p)
    for members, lv in zip(orbits, level):
        for x in members:
            q[x] = lv
    tv = sum(abs(a - b) for a, b in zip(p, q)) / 2
    assert tv == cost / 2
    return tv, q


def tv_grid_oracle(p: np.ndarray, k: int, d: int,
                   coarse: int = 40, refinements: int = 6) -> float:
    """Minimum TV distance to the exchangeable simplex by grid search.

    Parameterizes exchangeable laws by per-orbit total masses c_z (a
    point of the probability simplex over orbits), evaluates the TV
    objective on a coarse simplex grid, then refines locally by shrinking
    a box around the best point.
    """
    orbits = sorted(brute_orbits(k, d).items())
    sizes = np.array([len(members) for _, members in orbits], dtype=float)
    index_lists = [
        np.array([_lex_index(m, k) for m in members]) for _, members in orbits
    ]

    def objective(class_mass: np.ndarray) -> float:
        q_each = class_mass / sizes
        total = 0.0
        for q, idxs in zip(q_each, index_lists):
            total += np.abs(p[idxs] - q).sum()
        return 0.5 * total

    n_classes = len(orbits)
    best_val = np.inf
    best = np.full(n_classes, 1.0 / n_classes)
    for comp in _compositions(coarse, n_classes):
        c = np.array(comp, dtype=float) / coarse
        v = objective(c)
        if v < best_val:
            best_val, best = v, c

    width = 1.0 / coarse
    for _ in range(refinements):
        grids = [np.clip(np.linspace(b - width, b + width, 9), 0, 1)
                 for b in best]
        for combo in itertools.product(*grids):
            c = np.array(combo)
            s = c.sum()
            if s <= 0:
                continue
            c = c / s
            v = objective(c)
            if v < best_val:
                best_val, best = v, c
        width /= 4.0
    return best_val


def tv_lp_oracle(p) -> tuple[float, np.ndarray]:
    """Minimum TV distance to the exchangeable simplex as a HiGHS LP.

    ``p`` is a float ``Distribution``.  Variables are per-orbit
    probabilities ``q_z >= 0`` with ``sum_z |z| q_z = 1`` and slacks
    ``t_x >= |p(x) - q_[x]|``; the objective is ``(1/2) sum_x t_x``.
    Returns the LP optimum and its per-outcome ``q``.  HiGHS works to
    about 1e-8, so the value can sit slightly on either side of the
    true minimum.
    """
    k, d = p.space.k, p.space.d
    vec = np.asarray(p.p, dtype=float)
    orbits = sorted(brute_orbits(k, d).values())
    n, c = len(vec), len(orbits)
    class_of = np.empty(n, dtype=int)
    for z, members in enumerate(orbits):
        for m in members:
            class_of[_lex_index(m, k)] = z
    sizes = np.bincount(class_of, minlength=c)

    cost = np.concatenate((np.zeros(c), np.full(n, 0.5)))
    rows = np.arange(n)
    a_ub = np.zeros((2 * n, c + n))
    a_ub[rows, class_of] = -1.0          # t_x >= p_x - q_[x]
    a_ub[n + rows, class_of] = 1.0       # t_x >= q_[x] - p_x
    a_ub[rows, c + rows] = -1.0
    a_ub[n + rows, c + rows] = -1.0
    b_ub = np.concatenate((-vec, vec))
    a_eq = np.concatenate((sizes, np.zeros(n)))[None, :]
    res = linprog(c=cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (c + n), method="highs")
    assert res.success, res.message
    q_vec = np.clip(res.x[:c], 0.0, None)[class_of]
    return float(res.fun), q_vec / q_vec.sum()


def _lex_index(outcome: tuple, k: int) -> int:
    idx = 0
    for s in outcome:
        idx = idx * k + s
    return idx


def _compositions(total: int, parts: int):
    """All integer compositions of `total` into `parts` non-negatives."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def supmin_grid_oracle(p: np.ndarray, kind: str, k: int, d: int,
                       points: int = 201) -> float:
    """Best sup-min value over a fine marginal-parameter grid (k=2 only).

    Recomputes product probabilities and ratio minima from scratch; used
    to certify that the optimizer cannot be beaten by more than its
    tolerance on 1- and 2-parameter problems.
    """
    assert k == 2
    outcomes = list(itertools.product(range(2), repeat=d))
    axis = np.linspace(0.0, 1.0, points)

    def value(margs: list[tuple[float, float]]) -> float:
        best = np.inf
        for i, outc in enumerate(outcomes):
            q = 1.0
            for j, s in enumerate(outc):
                q *= margs[j][s]
            if q > 0:
                best = min(best, p[i] / q)
        return 0.0 if best is np.inf else float(best)

    best = 0.0
    if kind == "iid":
        for a in axis:
            best = max(best, value([(1 - a, a)] * d))
    elif kind == "product" and d == 2:
        for a in axis:
            for b in axis:
                best = max(best, value([(1 - a, a), (1 - b, b)]))
    else:
        raise ValueError("oracle supports iid (any d) or product with d=2")
    return best


def grid_resolution_oracle(grid_points: int, dim: int) -> int:
    """The grid's per-parameter resolution, lowered one step at a time from
    ``grid_points`` while the grid passes ``_MAX_GRID_TOTAL`` points, but
    not below 2."""
    per_param = grid_points
    while per_param > 2 and per_param**dim > product._MAX_GRID_TOTAL:
        per_param -= 1
    return per_param


def grid_starts_oracle(objective, dim: int, grid_points: int) -> np.ndarray:
    """The best grid starts of the class search, ranked over the whole
    grid at once: the full ``ij`` grid is built, scored in one objective
    call and ranked by one stable sort on the negated values.
    """
    axis = np.linspace(0.0, 1.0, grid_resolution_oracle(grid_points, dim))
    grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij", copy=False),
                    axis=-1).reshape(-1, dim)
    values = objective(grid)
    return grid[np.argsort(-values, kind="stable")[:product._N_STARTS]]


def class_weight_scalar_oracle(p, kind: str, grid_points: int) -> tuple:
    """The iid/product class search, scoring one parameter vector per call.

    A self-contained copy of the original per-point optimizer: the grid
    is enumerated with ``itertools.product`` and every grid point and
    every poll direction is scored by its own objective call.  ``p`` is
    a float ``Distribution``; the search limits are read from
    ``latentw.product``'s constants at call time, so a test that patches
    them patches both searches.
    Returns ``(lam, argmax_q vector, certificate_margin, multistart_log,
    converged)`` with the same meaning as ``class_weight``'s result.
    """
    k, d = p.space.k, p.space.d
    pf = np.asarray(p.p, dtype=float)
    mat = np.array(list(itertools.product(range(k), repeat=d)),
                   dtype=np.int64)
    coords = np.arange(d)
    dim = (k - 1) if kind == "iid" else d * (k - 1)

    def stick_break(theta):
        mu = np.empty(k)
        rem = 1.0
        for j in range(k - 1):
            mu[j] = theta[j] * rem
            rem -= mu[j]
        mu[k - 1] = max(rem, 0.0)
        return mu

    def q_of(theta):
        if kind == "iid":
            margs = np.tile(stick_break(theta), (d, 1))
        else:
            margs = np.stack([stick_break(theta[j * (k - 1):(j + 1) * (k - 1)])
                              for j in range(d)])
        return np.prod(margs[coords[None, :], mat], axis=1)

    def objective(theta):
        q = q_of(theta)
        pos = q > 0.0
        if not np.any(pos):
            return 0.0
        return float(np.min(pf[pos] / q[pos]))

    axis = np.linspace(0.0, 1.0, grid_resolution_oracle(grid_points, dim))
    scored = []
    for combo in itertools.product(axis, repeat=dim):
        theta = np.array(combo)
        scored.append((theta, objective(theta)))
    scored.sort(key=lambda rec: (-rec[1], tuple(rec[0])))

    dirs = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    if 2 <= dim <= 6:
        for i, j in itertools.combinations(range(dim), 2):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(dim)
                    v[i], v[j] = si, sj
                    dirs.append(v)

    def compass(theta0):
        theta = np.clip(np.asarray(theta0, dtype=np.float64), 0.0, 1.0)
        best = objective(theta)
        step = 1.0 / (grid_points - 1) if grid_points > 1 else 0.1
        evals = 0
        while step >= product._STEP_FLOOR:
            if evals >= product._MAX_EVALS_PER_START:
                return theta, best, False
            moved = False
            for dvec in dirs:
                cand = np.clip(theta + step * dvec, 0.0, 1.0)
                val = objective(cand)
                evals += 1
                if val > best + 1e-15:
                    theta, best = cand, val
                    moved = True
                    break
            if moved:
                step = min(step * 2.0, 0.25)
            else:
                step *= 0.5
        return theta, best, True

    log = []
    converged = True
    for theta0, _ in scored[:product._N_STARTS]:
        theta, value, ok = compass(theta0)
        converged = converged and ok
        log.append((tuple(float(t) for t in theta0), float(value),
                    tuple(float(t) for t in theta)))
    log.sort(key=lambda rec: (-rec[1], rec[2]))
    best_val = log[0][1]
    q_vec = q_of(np.array(log[0][2]))
    q_vec = q_vec / q_vec.sum()
    margin = float(np.min(pf - best_val * q_vec))
    return (float(best_val), q_vec, margin,
            tuple((start, val) for start, val, _ in log), converged)


def parse_epireads_oracle(lines, max_cpg_index: int
                          ) -> tuple[list[tuple[str, int, str]],
                                     tuple[int, str] | None]:
    """Line-by-line epiread parser: the ``(chrom, start, states)`` records
    of the lines before the first bad line, and that line's
    ``(line_number, reason)``, or None when every line is good.

    A line is bad when it is not UTF-8 text (its undecodable bytes held
    as ``surrogateescape`` surrogates, or another lone surrogate), has
    other than 0 or 3 ``str.split()`` fields, a start that ``int()``
    rejects or that is negative, a last CpG above ``max_cpg_index``, or
    a state outside C/T/N; the first of these checks that fails names
    the reason.
    """
    out = []
    for line_no, raw in enumerate(lines, start=1):
        try:
            raw.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeError as exc:
            return out, (line_no, str(exc))
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != 3:
            return out, (line_no, f"expected 3 fields, got {len(fields)}")
        chrom, start_s, states = fields
        try:
            start = int(start_s)
        except ValueError:
            return out, (line_no, f"start index {start_s!r} is not an integer")
        if start < 0:
            return out, (line_no, f"negative start index {start}")
        if start + len(states) - 1 > max_cpg_index:
            return out, (line_no, f"read at start index {start} runs past "
                                  f"the largest supported CpG index "
                                  f"{max_cpg_index}")
        bad = sorted(set(states) - set("CTN"))
        if bad:
            return out, (line_no, f"states contain invalid characters {bad}")
        out.append((chrom, start, states))
    return out, None


def extract_triplets_oracle(records, coverage_threshold: int
                            ) -> dict[tuple[str, int], tuple[int, ...]]:
    """Per-window loop over reads: ``{(chrom, first CpG): 8 counts}`` of
    the triplets covered at least ``coverage_threshold`` times.

    Each window of three consecutive states with no ``N`` adds one count
    to the configuration ``4a + 2b + c`` (C = 1, T = 0); a state outside
    C/T/N raises ``KeyError``.
    """
    bits = {"C": 1, "T": 0}
    acc: dict[tuple[str, int], list[int]] = {}
    for rec in records:
        states = rec.states
        for off in range(len(states) - 2):
            window = states[off:off + 3]
            if "N" in window:
                continue
            config = ((bits[window[0]] << 2) | (bits[window[1]] << 1)
                      | bits[window[2]])
            key = (rec.chrom, rec.start_cpg + off)
            acc.setdefault(key, [0] * 8)[config] += 1
    return {key: tuple(bins) for key, bins in acc.items()
            if sum(bins) >= coverage_threshold}


def triplet_row_oracle(key, c, n_boot: int, seed_seq):
    """One ``triplet_report`` row built from the single-triplet public
    functions (``estimate``, ``decompose``, ``tv_distance_to_exchangeable``)
    on that triplet alone, or None when its estimate raises."""
    from latentw import (decompose, empirical_distribution, estimate,
                         tv_distance_to_exchangeable)
    from latentw.methylation import TripletRecord

    try:
        est = estimate(c, n_boot=n_boot, seed=seed_seq)
    except Exception:               # noqa: BLE001 - a failure row
        return None
    p_hat = empirical_distribution(c)
    dec = decompose(p_hat)
    tv, _ = tv_distance_to_exchangeable(p_hat)
    q = (0.0,) * 8 if dec.q is None else tuple(dec.q.p.tolist())
    return TripletRecord(chrom=key[0], index=key[1], tv_dist=tv,
                         lam_corrected=est.lambda_corrected,
                         lam_sd=est.se_boot,
                         counts=tuple(c.counts.tolist()), q=q)


def _orbit_indices(k: int, d: int) -> list[list[int]]:
    """The orbits' outcome indices, orbits by sorted representative."""
    return [[_lex_index(m, k) for m in members]
            for _, members in sorted(brute_orbits(k, d).items())]


def lumped_law_oracle(p: np.ndarray, k: int, d: int,
                      ) -> tuple[list[int], np.ndarray | None]:
    """The lumped law of ``p`` that the bootstrap draws, and the sizes
    ``|z|`` of its drawn orbits, each of ``|z|`` consecutive cells after
    the first ``len(law) - sum(sizes)``; ``([], None)`` with no live orbit
    (an orbit whose every member's ``p`` is above 0).

    Orbit by orbit in the order of :func:`brute_orbits` sorted by
    representative: a rest cell with the numpy sum of the dead orbits'
    ``p`` in orbit order, when some orbit is dead; a unit cell, an orbit
    of size 1, with the numpy sum of the live singleton orbits' ``p`` in
    orbit order, when some is live; then the live multi-cell orbits'
    cells.
    """
    rest, unit, sizes, cells = [], [], [], []
    for members in _orbit_indices(k, d):
        if not all(p[x] > 0 for x in members):
            rest += [p[x] for x in members]
        elif len(members) == 1:
            unit.append(p[members[0]])
        else:
            sizes.append(len(members))
            cells += [p[x] for x in members]
    if not unit and not sizes:
        return [], None
    head = [float(np.sum(np.array(part, dtype=float)))
            for part in (rest, unit) if part]
    return [1] * bool(unit) + sizes, np.array(head + cells)


def triplet_mass_moments(counts: list[int], n0: int,
                         ) -> tuple[Fraction, Fraction, Fraction]:
    """Exact mean, variance and fourth central moment of the weight
    numerator ``W* = sum_z |z| * min_z`` of one multinomial
    ``(n0, counts / sum(counts))`` triplet resample, over every resample
    (``C(n0 + 7, 7)`` of them: 19 448 at ``n0 = 10``) with its exact
    integer probability ``n0! / prod(x!) * prod(counts ** x) / n ** n0``.
    """
    n, orbits = sum(counts), _orbit_indices(2, 3)
    fact = [math.factorial(i) for i in range(n0 + 1)]
    law: dict[int, int] = {}
    for bars in itertools.combinations(range(n0 + 7), 7):
        x = [b - a - 1 for a, b in zip((-1,) + bars, bars + (n0 + 7,))]
        weight = fact[n0]
        for xi, ci in zip(x, counts):
            weight = weight // fact[xi] * ci ** xi
        if weight:
            mass = sum(len(members) * min(x[i] for i in members)
                       for members in orbits)
            law[mass] = law.get(mass, 0) + weight
    total = n ** n0
    mean = Fraction(sum(w * p for w, p in law.items()), total)

    def central(r: int) -> Fraction:
        return sum((w - mean) ** r * p for w, p in law.items()) / total

    return mean, central(2), central(4)


def chunked_masses_oracle(p: np.ndarray, n0: int, n_boot: int, k: int,
                          d: int, seed_seq, block_cells: int = 2**15,
                          ) -> list[int]:
    """Integer weight numerators ``W*`` of ``n_boot`` multinomial
    ``(n0, p)`` resamples drawn by the documented chunk plan, one chunk at
    a time in a plain loop.

    Every sample draws its lumped law (:func:`lumped_law_oracle`): a
    rest cell when some orbit is dead, a unit cell holding the live
    singleton orbits, then the cells of the live multi-cell orbits.  Its
    draw cells are those ``m`` cells; with no live orbit every ``W*`` is 0
    and nothing is drawn.  Each chunk is one ``Generator.multinomial``
    call.

    Chunks hold ``max(1, block_cells // m)`` resamples.  One chunk draws
    from ``seed_seq`` itself; with several, chunk ``i`` draws from the
    seed with ``(i,)`` appended to its spawn key.  Each resample's ``W*``
    is ``sum_z |z| * (min count in orbit z)`` over the drawn orbits (the
    dead ones give 0, and the unit cell its count), with the minima taken
    member by member.
    """
    sizes, law = lumped_law_oracle(p, k, d)
    if not sizes:
        return [0] * n_boot
    cells = len(law)
    per_chunk = max(1, block_cells // cells)
    n_chunks = -(-n_boot // per_chunk)
    masses = []
    for i in range(n_chunks):
        seed = seed_seq if n_chunks == 1 else np.random.SeedSequence(
            seed_seq.entropy, spawn_key=tuple(seed_seq.spawn_key) + (i,))
        size = min(per_chunk, n_boot - i * per_chunk)
        rows = np.random.default_rng(seed).multinomial(n0, law, size=size)
        for row in rows.tolist():
            mass, at = 0, cells - sum(sizes)
            for size in sizes:
                mass += size * min(row[at:at + size])
                at += size
            masses.append(mass)
    return masses


def chunked_replicates_oracle(p: np.ndarray, n0: int, n_boot: int, k: int,
                              d: int, seed_seq) -> list[float]:
    """Weights ``W* / n0`` of the resamples of
    :func:`chunked_masses_oracle`."""
    return [mass / n0 for mass in
            chunked_masses_oracle(p, n0, n_boot, k, d, seed_seq)]


def exact_summaries(masses: list[int], n0: int, mass: int, n: int,
                    ) -> tuple[Fraction, Fraction, Fraction]:
    """Exact bootstrap bias, clamped corrected weight and sample variance
    (``ddof`` 1) of the resample weights ``masses[i] / n0`` against the
    plug-in weight ``mass / n``."""
    b = len(masses)
    mean, lam = Fraction(sum(masses), b * n0), Fraction(mass, n)
    var = Fraction(b * sum(w * w for w in masses) - sum(masses) ** 2,
                   b * (b - 1) * n0 * n0)
    return mean - lam, min(max(2 * lam - mean, Fraction(0)), Fraction(1)), var


def limit_variance_oracle(p: list[Fraction], k: int, d: int,
                          ) -> Fraction | None:
    """Variance ``sum_z |z|^2 m_z (1 - m_z) - sum_{z1 != z2} |z1||z2|
    m_z1 m_z2`` of the Gaussian limit of a law ``p`` given as Fractions in
    outcome-index order (a float law as each value's exact Fraction),
    summed term by term in Fractions; None when an orbit's minimum is
    above 0 and held by two or more of its cells."""
    minima, sizes = [], []
    for members in _orbit_indices(k, d):
        m = min(p[x] for x in members)
        if m > 0 and sum(p[x] == m for x in members) > 1:
            return None
        minima.append(m)
        sizes.append(len(members))
    terms = [s * m for s, m in zip(sizes, minima)]
    diag = sum(s * s * m * (1 - m) for s, m in zip(sizes, minima))
    cross = sum(a * b for i, a in enumerate(terms)
                for j, b in enumerate(terms) if i != j)
    return diag - cross


def limit_law_mvn_oracle(p: list[Fraction], k: int, d: int, n_draws: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Draws of ``sum_z |z| * min`` over the argmin blocks of a law ``p``
    given as Fractions in outcome-index order: each orbit's cells exactly
    at its minimum, found here orbit by orbit.  The block coordinates are
    drawn by ``Generator.multivariate_normal(0, diag(m) - m m^T)``, ``m``
    each coordinate's orbit minimum, which factors the covariance itself,
    and reduced block by block in a loop."""
    sizes, blocks = [], []
    for members in _orbit_indices(k, d):
        m = min(p[x] for x in members)
        sizes.append(len(members))
        blocks.append([float(m)] * sum(p[x] == m for x in members))
    m = np.concatenate(blocks)
    cov = np.diag(m) - np.outer(m, m)
    x = rng.multivariate_normal(np.zeros(len(cov)), cov, size=n_draws,
                                check_valid="raise")
    out, offset = np.zeros(n_draws), 0
    for size, block in zip(sizes, blocks):
        out += size * x[:, offset:offset + len(block)].min(axis=1)
        offset += len(block)
    return out


def tv_distance(p1, p2) -> float:
    """Total variation distance of two ``Distribution`` objects on one
    space: half the L1 gap of their float probabilities."""
    assert p1.space == p2.space
    return float(0.5 * np.abs(p1.as_float().p - p2.as_float().p).sum())
