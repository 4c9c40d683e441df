import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentw import (CountVector, Distribution, SampleSpace, decompose,
                     empirical_distribution, estimate, exchangeable_weight,
                     is_exchangeable, lump, lumping_weight_bound,
                     marginal_weight_bound, marginalize, synthesize_mixture,
                     tv_distance_to_exchangeable)
from latentw.errors import (EmptyIndexSetError, NotExchangeableError,
                            ResidualNotPureError)
from latentw.exchangeable import (exchangeable_component_rows,
                                  exchangeable_weight_rows)

from conftest import dirichlet_distributions
from oracle_utils import (brute_weight_vector, exact_decomposition_oracle,
                          tv_distance, tv_fill_oracle, tv_grid_oracle,
                          tv_lp_oracle)


class TestExchangeableWeight:
    def test_one_third_example(self, third_mass):
        assert abs(exchangeable_weight(third_mass) - 1 / 3) < 1e-15

    def test_one_third_exact(self, space23):
        p = Distribution.from_mapping(
            space23,
            {"101": Fraction(1, 3), "110": Fraction(1, 3),
             "111": Fraction(1, 3)},
            exact=True)
        assert exchangeable_weight(p) == Fraction(1, 3)

    def test_exchangeable_gives_one(self, space23):
        assert exchangeable_weight(Distribution.uniform(space23)) == 1.0
        exch = Distribution.from_mapping(
            space23, {"001": 0.2, "010": 0.2, "100": 0.2, "111": 0.4})
        assert abs(exchangeable_weight(exch) - 1.0) < 1e-12

    def test_k2_d2_hand_cases(self, space22):
        # P(01)=P(10)=1/2 is exchangeable -> 1; a bare point mass on 01 -> 0
        swapped = Distribution.from_mapping(space22, {"01": 0.5, "10": 0.5})
        assert exchangeable_weight(swapped) == 1.0
        assert exchangeable_weight(Distribution.point_mass(space22, "01")) == 0.0

    def test_against_permutation_oracle(self):
        # direct per-outcome permutation-minimum definition
        for k, d, seed in [(2, 3, 1), (3, 2, 2), (2, 4, 3), (3, 3, 4)]:
            space = SampleSpace(k, d)
            for p in dirichlet_distributions(space, 25, seed):
                oracle = brute_weight_vector(p.p, k, d)
                assert abs(exchangeable_weight(p) - oracle) < 1e-12

    def test_membership_iff_weight_one(self, space23):
        # weight 1 exactly when p has zero spread within every orbit
        rng = np.random.default_rng(9)
        for _ in range(50):
            raw = rng.dirichlet(np.ones(4))
            exch = Distribution.from_mapping(
                space23, {"000": raw[0], "001": raw[1] / 3, "010": raw[1] / 3,
                          "100": raw[1] / 3, "011": raw[2] / 3,
                          "101": raw[2] / 3, "110": raw[2] / 3,
                          "111": raw[3]})
            assert abs(exchangeable_weight(exch) - 1.0) < 1e-12
            assert is_exchangeable(exch)
        for p in dirichlet_distributions(space23, 50, 10):
            lam = exchangeable_weight(p)
            assert (abs(lam - 1.0) < 1e-9) == is_exchangeable(p)


class TestDecompose:
    def test_one_third_example(self, third_mass):
        dec = decompose(third_mass)
        assert abs(dec.lam - 1 / 3) < 1e-15
        assert np.array_equal(dec.q.p, [0, 0, 0, 0, 0, 0, 0, 1.0])
        assert np.allclose(dec.r.p, [0, 0, 0, 0, 0, 0.5, 0.5, 0])
        assert exchangeable_weight(dec.r) == 0.0

    def test_exact_mode(self, space23):
        p = Distribution.from_mapping(
            space23,
            {"101": Fraction(1, 3), "110": Fraction(1, 3),
             "111": Fraction(1, 3)},
            exact=True)
        dec = decompose(p)
        assert dec.lam == Fraction(1, 3)
        assert dec.q.p[7] == Fraction(1)
        assert dec.r.p[5] == dec.r.p[6] == Fraction(1, 2)
        assert exchangeable_weight(dec.r) == 0

    def test_exchangeable_input(self, space23):
        u = Distribution.uniform(space23)
        dec = decompose(u)
        assert dec.lam == 1.0
        assert dec.r is None
        assert np.allclose(dec.q.p, u.p)

    def test_zero_weight_input(self, space22):
        pm = Distribution.point_mass(space22, "01")
        dec = decompose(pm)
        assert dec.lam == 0.0
        assert dec.q is None
        assert np.array_equal(dec.r.p, pm.p)

    def test_weight_near_one(self, space22):
        # 1 - lam carries few digits here; the residual must still sum to 1
        p = Distribution(space22, [0.0, 0.0, 1e-9, 1.0 - 1e-9])
        dec = decompose(p)
        assert np.array_equal(dec.r.p, [0.0, 0.0, 1.0, 0.0])

    def test_argmin_sets(self, unique_argmin_fixture):
        dec = decompose(unique_argmin_fixture)
        # p = (0.4, 0.1, 0.2, 0.3): argmin of {01,10} is 01 alone
        assert dec.argmin_sets == ((0,), (1,), (3,))
        assert np.allclose(dec.per_class_min, [0.4, 0.1, 0.3])

    def test_argmin_tie_detection(self, space22):
        u = Distribution.uniform(space22)
        dec = decompose(u)
        assert dec.argmin_sets[1] == (1, 2)

    def test_reconstruction_random(self, space23):
        # p = lam*q + (1-lam)*r componentwise, and the residual is pure
        for p in dirichlet_distributions(space23, 300, 21):
            dec = decompose(p)
            lam = dec.lam
            assert 0.0 <= lam <= 1.0
            if dec.q is not None and dec.r is not None:
                recon = lam * dec.q.p + (1 - lam) * dec.r.p
                assert np.max(np.abs(recon - p.p)) < 1e-10
            if dec.r is not None:
                assert exchangeable_weight(dec.r) <= 1e-9
            assert abs(lam - float(np.dot(
                p.space.orbit_index().sizes, dec.per_class_min))) < 1e-12

    def test_uniqueness_by_perturbation(self, space23):
        # any exchangeable S != q with the same weight violates domination
        rng = np.random.default_rng(33)
        index = space23.orbit_index()
        for p in dirichlet_distributions(space23, 40, 34):
            dec = decompose(p)
            if dec.q is None or dec.lam < 0.05:
                continue
            q_class = np.array([dec.q.p[index.members(z)[0]]
                                for z in range(index.n_classes)])
            for _ in range(5):
                give, take = rng.choice(index.n_classes, size=2, replace=False)
                eps = min(0.01, q_class[take] * index.sizes[take] / 2)
                if eps <= 0:
                    continue
                s_class = q_class.copy()
                s_class[give] += eps / index.sizes[give]
                s_class[take] -= eps / index.sizes[take]
                s_vec = s_class[index.class_of]
                s = Distribution(space23, s_vec / s_vec.sum())
                dominated = np.all(p.p >= dec.lam * s.p - 1e-12)
                assert not dominated


class TestSynthesizeMixture:
    def test_beta_extremes(self, space23):
        q = Distribution.uniform(space23)
        r = Distribution.from_mapping(space23, {"101": 0.5, "110": 0.5})
        assert np.array_equal(synthesize_mixture(q, r, 1.0).p, q.p)
        assert np.array_equal(synthesize_mixture(q, r, 0.0).p, r.p)

    def test_planted_weight(self, space23):
        q = Distribution.uniform(space23)
        r = Distribution.from_mapping(space23, {"101": 0.5, "110": 0.5})
        mix = synthesize_mixture(q, r, 0.7)
        assert abs(exchangeable_weight(mix) - 0.7) < 1e-10

    def test_planted_weight_random(self, space23):
        rng = np.random.default_rng(5)
        index = space23.orbit_index()
        for _ in range(100):
            qc = rng.dirichlet(np.ones(index.n_classes))
            q_vec = (qc / index.sizes)[index.class_of]
            q = Distribution(space23, q_vec / q_vec.sum())
            # residual: mass on one non-minimal member per multi-member orbit
            r_vec = np.zeros(8)
            r_vec[2] = rng.uniform(0.2, 0.8)   # orbit {001,010,100}
            r_vec[5] = 1.0 - r_vec[2]          # orbit {011,101,110}
            r = Distribution(space23, r_vec)
            beta = float(rng.uniform(0, 1))
            mix = synthesize_mixture(q, r, beta)
            assert abs(exchangeable_weight(mix) - beta) < 1e-10

    def test_rejects_bad_components(self, space23):
        not_exch = Distribution.from_mapping(space23, {"101": 1.0})
        pure = Distribution.from_mapping(space23, {"101": 0.5, "110": 0.5})
        with pytest.raises(NotExchangeableError):
            synthesize_mixture(not_exch, pure, 0.5)
        with pytest.raises(ResidualNotPureError):
            synthesize_mixture(Distribution.uniform(space23),
                               Distribution.uniform(space23), 0.5)


class TestMarginalBound:
    def test_one_third_example(self, third_mass):
        # marginal on coordinates {1,2} has weight 2/3
        assert abs(marginal_weight_bound(third_mass, [1, 2]) - 2 / 3) < 1e-15

    def test_exact(self, space23):
        p = Distribution.from_mapping(
            space23,
            {"101": Fraction(1, 3), "110": Fraction(1, 3),
             "111": Fraction(1, 3)},
            exact=True)
        assert marginal_weight_bound(p, [1, 2]) == Fraction(2, 3)

    def test_marginal_values(self, third_mass):
        marg = marginalize(third_mass, [1, 2])
        assert np.allclose(marg.p, [0, 0, 1 / 3, 2 / 3])

    def test_full_index_set_equals_weight(self, third_mass):
        full = marginal_weight_bound(third_mass, [1, 2, 3])
        assert full == exchangeable_weight(third_mass)

    def test_exchangeable_marginals(self, space23):
        u = Distribution.uniform(space23)
        for subset in ([1], [2], [1, 3], [2, 3]):
            assert abs(marginal_weight_bound(u, subset) - 1.0) < 1e-12

    def test_single_coordinate_is_one(self, third_mass):
        assert marginal_weight_bound(third_mass, [2]) == 1.0

    def test_single_coordinate_exact_is_fraction_one(self, space23):
        p = Distribution.from_mapping(
            space23, {"101": Fraction(1, 3), "110": Fraction(2, 3)},
            exact=True)
        assert marginal_weight_bound(p, [3]) == Fraction(1)
        assert isinstance(marginal_weight_bound(p, [3]), Fraction)

    def test_single_coordinate_marginal_raises(self, third_mass):
        with pytest.raises(ValueError, match="single coordinate 2"):
            marginalize(third_mass, [2])

    def test_empty_and_invalid(self, third_mass):
        with pytest.raises(EmptyIndexSetError):
            marginal_weight_bound(third_mass, [])
        with pytest.raises(ValueError):
            marginal_weight_bound(third_mass, [0, 1])
        with pytest.raises(ValueError):
            marginal_weight_bound(third_mass, [4])

    def test_monotone_bound_random(self):
        rng = np.random.default_rng(77)
        for k, d in [(2, 3), (3, 3), (2, 4)]:
            space = SampleSpace(k, d)
            for p in dirichlet_distributions(space, 60, k * 10 + d):
                lam = exchangeable_weight(p)
                size = int(rng.integers(1, d + 1))
                subset = sorted(rng.choice(np.arange(1, d + 1), size=size,
                                           replace=False).tolist())
                assert lam <= marginal_weight_bound(p, subset) + 1e-12

    def test_extendibility_equality_probe(self, space23):
        # when lam(P) == lam(P_I) > 0, the marginal's exchangeable
        # component equals the marginal of P's exchangeable component
        rng = np.random.default_rng(15)
        index = space23.orbit_index()
        hits = 0
        for _ in range(60):
            qc = rng.dirichlet(np.ones(index.n_classes))
            q_vec = (qc / index.sizes)[index.class_of]
            q = Distribution(space23, q_vec / q_vec.sum())
            beta = float(rng.uniform(0.2, 0.9))
            # residual = point mass at 011: weight 0, and its {1,2}-marginal
            # (point mass at 01) also has weight 0, forcing equality
            r = Distribution.point_mass(space23, "011")
            mix = synthesize_mixture(q, r, beta)
            lam_full = exchangeable_weight(mix)
            lam_marg = marginal_weight_bound(mix, [1, 2])
            if abs(lam_full - lam_marg) > 1e-9 or lam_full <= 0:
                continue
            hits += 1
            marg = marginalize(mix, [1, 2])
            q_of_marg = decompose(marg).q
            marg_of_q = marginalize(decompose(mix).q, [1, 2])
            assert np.max(np.abs(q_of_marg.p - marg_of_q.p)) < 1e-9
        assert hits >= 50  # construction forces equality, bar rounding


class TestLumping:
    def test_identity_map(self, third_mass):
        ident = {0: 0, 1: 1}
        assert abs(lumping_weight_bound(third_mass, ident)
                   - exchangeable_weight(third_mass)) < 1e-15

    def test_single_label(self, third_mass):
        assert lumping_weight_bound(third_mass, {0: "x", 1: "x"}) == 1.0

    def test_k3_point_mass(self):
        # delta at (1,2) is unexchangeable, but lumping {1,2}->A, {0}->B
        # sends it to a constant outcome, weight 1
        space = SampleSpace(3, 2)
        p = Distribution.point_mass(space, (1, 2))
        assert exchangeable_weight(p) == 0.0
        assert lumping_weight_bound(p, {0: "B", 1: "A", 2: "A"}) == 1.0

    def test_forward_measure(self):
        space = SampleSpace(3, 2)
        p = Distribution.from_mapping(space, {(0, 1): 0.5, (2, 2): 0.5})
        lumped = lump(p, {0: 0, 1: 1, 2: 1})
        assert lumped.space.k == 2
        assert np.allclose(lumped.p,
                           [0, 0.5, 0, 0.5])  # (0,1)->01, (2,2)->11

    def test_partial_map_rejected(self, third_mass):
        with pytest.raises(ValueError, match="total"):
            lumping_weight_bound(third_mass, {0: "a"})

    def test_monotone_bound_random(self):
        rng = np.random.default_rng(101)
        for k, d in [(3, 2), (3, 3), (4, 2)]:
            space = SampleSpace(k, d)
            for p in dirichlet_distributions(space, 60, k * 7 + d):
                lam = exchangeable_weight(p)
                n_labels = int(rng.integers(1, k + 1))
                mapping = {s: int(rng.integers(0, n_labels)) for s in range(k)}
                assert lam <= lumping_weight_bound(p, mapping) + 1e-12


class TestTVProjection:
    def test_exchangeable_is_distance_zero(self, space23):
        u = Distribution.uniform(space23)
        dist, q = tv_distance_to_exchangeable(u)
        assert dist < 1e-10
        assert np.allclose(q.p, u.p, atol=1e-9)

    def test_one_third_example(self, third_mass):
        # grid oracle gives 2/9 (at q = 2/9 on each of {011,101,110},
        # 1/3 on 111)
        dist, q = tv_distance_to_exchangeable(third_mass)
        assert abs(dist - 2 / 9) < 1e-9
        expected_q = np.array([0, 0, 0, 2 / 9, 0, 2 / 9, 2 / 9, 1 / 3])
        assert np.max(np.abs(q.p - expected_q)) < 1e-8

    def test_point_mass_01(self, space22):
        # oracle value 1/2, achieved by the uniform law on {01, 10}
        pm = Distribution.point_mass(space22, "01")
        dist, q = tv_distance_to_exchangeable(pm)
        assert abs(dist - 0.5) < 1e-9
        assert np.allclose(q.p, [0, 0.5, 0.5, 0], atol=1e-8)

    def test_tie_fills_lowest_orbit_first(self):
        # Orbits {01,10} and {02,20} offer equal-slope gaps of 0.4 each for
        # the missing 0.4; either gives TV 0.2, the lower orbit id wins.
        p = Distribution.from_mapping(SampleSpace(3, 2), {
            "00": 0.3, "01": 0.2, "02": 0.2, "11": 0.3})
        dist, q = tv_distance_to_exchangeable(p)
        assert abs(dist - 0.2) < 1e-15
        assert np.allclose(q.p, [0.3, 0.2, 0, 0.2, 0.3, 0, 0, 0, 0],
                           rtol=0, atol=1e-15)

    def test_against_grid_oracle_k2_d2(self, space22):
        for p in dirichlet_distributions(space22, 12, 6):
            dist, q = tv_distance_to_exchangeable(p)
            oracle = tv_grid_oracle(p.p, 2, 2)
            assert dist <= oracle + 1e-9       # grid points are feasible
            assert abs(dist - oracle) < 2e-3   # grid resolution slack
            assert is_exchangeable(q)
            assert abs(tv_distance(p, q) - dist) < 1e-9

    def test_against_grid_oracle_k2_d3(self, space23):
        for p in dirichlet_distributions(space23, 6, 8):
            dist, _ = tv_distance_to_exchangeable(p)
            oracle = tv_grid_oracle(p.p, 2, 3, coarse=24)
            assert dist <= oracle + 1e-9
            assert abs(dist - oracle) < 3e-3

    def test_tv_relation_with_decomposition(self, space23):
        # ||p - q|| = (1 - lam) * ||r - q|| whenever both parts exist
        for p in dirichlet_distributions(space23, 100, 13):
            dec = decompose(p)
            if dec.q is None or dec.r is None:
                continue
            lhs = tv_distance(p, dec.q)
            rhs = (1 - dec.lam) * tv_distance(dec.r, dec.q)
            assert abs(lhs - rhs) < 1e-10

    def test_against_lp_oracle_random_laws(self):
        # The fill is exact; HiGHS is accurate to ~1e-8 and its own q,
        # once rescored, never beats the fill.
        rng = np.random.default_rng(2)
        for k, d in [(2, 2), (2, 3), (3, 3), (2, 5), (4, 3)]:
            space = SampleSpace(k, d)
            for vec in _random_laws(space, rng):
                p = Distribution(space, vec)
                dist, _ = tv_distance_to_exchangeable(p)
                lp_dist, lp_q = tv_lp_oracle(p)
                assert abs(dist - lp_dist) <= 1e-7
                lp_rescored = tv_distance(p, Distribution(space, lp_q))
                assert dist <= lp_rescored + 1e-12


def _random_laws(space, rng):
    """Dirichlet, sparse, point-mass and exchangeable laws on ``space``."""
    n = space.n_outcomes
    index = space.orbit_index()
    laws = [rng.dirichlet(np.full(n, alpha))
            for alpha in (0.2, 1.0, 5.0) for _ in range(6)]
    for _ in range(4):
        sparse = np.zeros(n)
        support = rng.choice(n, size=min(3, n), replace=False)
        sparse[support] = rng.dirichlet(np.ones(len(support)))
        laws.append(sparse)
        laws.append(np.eye(n)[rng.integers(n)])
        exch = (rng.dirichlet(np.ones(index.n_classes))
                / index.sizes)[index.class_of]
        laws.append(exch / exch.sum())
    return laws


@st.composite
def _laws(draw):
    """``(p, form, exchangeable by construction)`` with k^d <= 64,
    boundaries too; ``form`` is a float law, a Fraction law or a law of
    counts."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(2, 5 if k == 2 else 3))
    space = SampleSpace(k, d)
    index = space.orbit_index()
    form = draw(st.sampled_from(["float", "fraction", "counts"]))
    kind = draw(st.sampled_from(["general", "point", "exchangeable"]))
    if kind == "point":
        w = np.eye(space.n_outcomes, dtype=np.int64)[
            draw(st.integers(0, space.n_outcomes - 1))]
    else:
        size = index.n_classes if kind == "exchangeable" else space.n_outcomes
        weight = (st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-9, 1.0))
                  if form == "float" else st.integers(0, 12))
        w = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
        if w.sum() == 0:
            w[draw(st.integers(0, size - 1))] = 1
        if kind == "exchangeable":
            w = w[index.class_of] if form != "float" else (
                (w / index.sizes)[index.class_of])
    if form == "counts":
        p = empirical_distribution(CountVector(space, w))
    elif form == "fraction":
        p = Distribution(space, [Fraction(int(v), int(w.sum())) for v in w])
    else:
        p = Distribution(space, w / w.sum())
    return p, form, kind == "exchangeable"


def _constant_on_orbits(q):
    """``q`` equal to its orbit minimum everywhere: exchangeable with no
    tolerance, whatever ``is_exchangeable`` allows a float law."""
    index = q.space.orbit_index()
    return np.array_equal(q.num,
                          index.class_minima_rows(q.num)[index.class_of])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_laws())
def test_tv_projection_properties(law):
    p, form, exchangeable = law
    dist, q = tv_distance_to_exchangeable(p)
    lam = exchangeable_weight(p)
    assert _constant_on_orbits(q)
    if form == "fraction":          # exact: no tolerance anywhere
        assert isinstance(dist, Fraction) and isinstance(lam, Fraction)
        assert 0 <= dist <= 1 - lam
        assert sum(q.p) == 1
        assert dist == sum(abs(a - b) for a, b in zip(p.p, q.p)) / 2
    else:
        assert 0.0 <= dist <= 1.0 - lam + 1e-12
        assert abs(q.p.sum() - 1.0) <= 1e-12
        assert abs(tv_distance(p, q) - dist) <= 1e-12
    dec_q = decompose(p).q
    if dec_q is not None:          # any exchangeable law is feasible
        assert dist <= tv_distance(p, dec_q) + 1e-12
    if exchangeable:               # a float law: zero up to rounding
        assert dist == 0 if form != "float" else dist <= 1e-14
    again, q_again = tv_distance_to_exchangeable(p)
    assert again == dist and np.array_equal(q_again.p, q.p)


def _stack_rows(space, rng):
    """Count rows of one space: multinomial draws of varied sizes, a point
    mass, a constant row and a sparse pattern."""
    n = space.n_outcomes
    rows = [rng.multinomial(int(rng.integers(1, 5000)),
                            rng.dirichlet(np.full(n, 0.3)))
            for _ in range(12)]
    rows += [7 * np.eye(n, dtype=np.int64)[0], np.full(n, 3),
             (np.arange(n) % 3 == 0).astype(np.int64)]
    return np.array(rows)


@pytest.mark.parametrize("k,d", [(2, 3), (3, 2), (2, 5), (4, 4), (3, 6)])
def test_stacks_equal_single_calls(k, d):
    # a stack of count laws and the component rows compute each row as
    # the single-law functions do, bit for bit, whatever the other rows
    # are
    space = SampleSpace(k, d)
    rows = _stack_rows(space, np.random.default_rng(k * 100 + d))
    dist, q = tv_distance_to_exchangeable(
        empirical_distribution(CountVector(space, rows)))
    assert dist.shape == (len(rows),) and q.p.shape == rows.shape
    q = q.p
    lam, comp, mins = exchangeable_component_rows(space, rows)
    for i, row in enumerate(rows):
        p = empirical_distribution(CountVector(space, row))
        one_dist, one_q = tv_distance_to_exchangeable(p)
        assert dist[i] == one_dist and np.array_equal(q[i], one_q.p)
        dec = decompose(p)
        assert lam[i] == dec.lam == exchangeable_weight(p)
        assert np.array_equal(mins[i], dec.per_class_min)
        if dec.q is None:
            assert not comp[i].any()
        else:
            assert np.array_equal(comp[i], dec.q.p)


@pytest.mark.parametrize("k,d", [(2, 3), (3, 3), (2, 6)])
def test_weight_rows_of_counts_divide_after_minima(k, d):
    # the orbit minima of counts are divided once: every weight is the
    # correctly rounded W/total of the Fraction oracle, per stack and
    # with one total per stack
    space = SampleSpace(k, d)
    rng = np.random.default_rng(k + d)
    totals = np.array([1, 7, 150, 999])
    draws = np.stack([rng.multinomial(t, rng.dirichlet(np.ones(k**d)),
                                      size=50) for t in totals])
    stacked = exchangeable_weight_rows(space, draws, total=totals)
    for i, t in enumerate(totals):
        exact = [float(exact_decomposition_oracle(row, k, d).lam)
                 for row in draws[i]]
        assert stacked[i].tolist() == exact
        assert np.array_equal(
            exchangeable_weight_rows(space, draws[i], total=t), stacked[i])


def _floats(fractions):
    return None if fractions is None else [float(v) for v in fractions]


def _check_against_oracle(counts, k, d):
    """Every output on a law of counts equals the Fraction oracle: exact
    outputs as Fractions, float outputs as their correctly rounded
    floats, bit for bit."""
    space = SampleSpace(k, d)
    c = CountVector(space, counts)
    want = exact_decomposition_oracle(counts, k, d)
    want_tv, want_proj = tv_fill_oracle(counts, k, d)
    for exact in (True, False):
        conv = (lambda v: v) if exact else float
        lists = (lambda v: v) if exact else _floats
        p = empirical_distribution(c, exact=exact)
        assert exchangeable_weight(p) == conv(want.lam)
        dec = decompose(p)
        assert dec.lam == conv(want.lam)
        assert list(dec.per_class_min) == lists(want.minima)
        assert (None if dec.q is None else list(dec.q.p)) == lists(want.q)
        assert (None if dec.r is None else list(dec.r.p)) == lists(want.r)
        dist, proj = tv_distance_to_exchangeable(p)
        assert dist == conv(want_tv)
        assert list(proj.p) == lists(want_proj)
    lam = float(want.lam)
    assert exchangeable_weight_rows(space, c.counts[None],
                                    total=c.n).tolist() == [lam]
    rows_lam, rows_q, rows_min = exchangeable_component_rows(
        space, c.counts[None])
    assert rows_lam.tolist() == [lam]
    assert rows_q[0].tolist() == (_floats(want.q) or [0.0] * len(counts))
    assert rows_min[0].tolist() == _floats(want.minima)
    stack_tv, stack_proj = tv_distance_to_exchangeable(
        empirical_distribution(CountVector(space, c.counts[None])))
    assert stack_tv.tolist() == [float(want_tv)]
    assert stack_proj.p[0].tolist() == _floats(want_proj)
    assert estimate(c, n_boot=2, seed=0).lambda_hat == lam


@st.composite
def _count_tables(draw):
    """Counts on a space with k^d <= 64: small counts (ties and zero
    cells), sparse rows, point masses and orbit-constant rows, scaled up
    to totals near 2**52 at times."""
    k, d = draw(st.sampled_from(_BUDGET_SPACES))
    space = SampleSpace(k, d)
    n = space.n_outcomes
    kind = draw(st.sampled_from(["general", "sparse", "point",
                                 "exchangeable"]))
    if kind == "exchangeable":
        per_orbit = draw(st.lists(st.integers(0, 5),
                                  min_size=space.orbit_index().n_classes,
                                  max_size=space.orbit_index().n_classes))
        w = [per_orbit[z] for z in space.orbit_index().class_of]
    else:
        w = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        if kind != "general":
            keep = draw(st.sets(st.integers(0, n - 1), min_size=1,
                                max_size=1 if kind == "point" else 3))
            w = [v if i in keep else 0 for i, v in enumerate(w)]
    if sum(w) == 0:
        w[draw(st.integers(0, n - 1))] = 1
    scale = draw(st.sampled_from([1, 1, 3, 2**40 + 1]))
    return [v * scale for v in w], k, d


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_count_tables())
def test_outputs_on_counts_match_fraction_oracle(case):
    _check_against_oracle(*case)


def test_oracle_match_past_int64():
    # at (2, 10) the lcm of the orbit sizes is 2520, so a total near 2**52
    # makes 2nL about 2**64: the fill has to leave int64 and stay exact
    rng = np.random.default_rng(52)
    counts = rng.multinomial(2**52 - 12345, rng.dirichlet(np.ones(1024)))
    counts[:3] = (0, 5, 5)             # a zero cell and a tie
    assert 2 * int(counts.sum()) * 2520 > 2**63
    _check_against_oracle(counts.tolist(), 2, 10)


_BUDGET_SPACES = [(k, d) for k in range(2, 9) for d in range(2, 7)
                  if k**d <= 64]


def _all_symbol_maps(k):
    """Every partition of the k symbols, as restricted growth strings."""
    maps = [[0]]
    for _ in range(k - 1):
        maps = [m + [label] for m in maps for label in range(max(m) + 2)]
    return maps


@st.composite
def _decomposition_cases(draw):
    """A float or Fraction law with k^d <= 64 (general, sparse or point
    mass) and the symbol maps to lump it by: all partitions for k <= 5,
    drawn ones above."""
    k, d = draw(st.sampled_from(_BUDGET_SPACES))
    space = SampleSpace(k, d)
    n = space.n_outcomes
    exact = draw(st.booleans())
    kind = draw(st.sampled_from(["general", "sparse", "point"]))
    if kind == "point":
        w = [0] * n
        w[draw(st.integers(0, n - 1))] = 1
    else:
        weight = (st.integers(0, 12) if exact else
                  st.one_of(st.just(0.0), st.floats(1e-9, 1.0)))
        w = draw(st.lists(weight, min_size=n, max_size=n))
        if kind == "sparse":
            keep = draw(st.sets(st.integers(0, n - 1), min_size=1,
                                max_size=3))
            w = [v if i in keep else 0 for i, v in enumerate(w)]
        if sum(w) == 0:
            w[draw(st.integers(0, n - 1))] = 1
    total = sum(w)
    if exact:
        p = Distribution(space, [Fraction(v, total) for v in w])
    else:
        p = Distribution(space, np.array(w, dtype=float) / total)
    if k <= 5:
        maps = _all_symbol_maps(k)
    else:
        maps = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=k,
                                      max_size=k), min_size=1, max_size=6))
    return p, maps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_decomposition_cases())
def test_decomposition_properties(case):
    p, maps = case
    space = p.space
    n = space.n_outcomes
    dec = decompose(p)
    lam = dec.lam
    zero = Fraction(0) if p.is_exact else 0.0
    q = dec.q.p if dec.q is not None else np.array([zero] * n)
    r = dec.r.p if dec.r is not None else np.array([zero] * n)
    if p.is_exact:
        assert isinstance(lam, Fraction)
        assert list(lam * q + (1 - lam) * r) == list(p.p)
        if dec.r is not None:
            assert exchangeable_weight(dec.r) == 0
        slack = 0
    else:
        assert np.max(np.abs(lam * q + (1 - lam) * r - p.p)) <= 1e-12
        if dec.r is not None:
            assert exchangeable_weight(dec.r) <= 1e-9
        slack = 1e-12
    assert (dec.q is None) == (lam == 0)
    for size in range(1, space.d + 1):
        for subset in itertools.combinations(range(1, space.d + 1), size):
            assert marginal_weight_bound(p, subset) >= lam - slack
    for labels in maps:
        mapping = dict(enumerate(labels))
        assert lumping_weight_bound(p, mapping) >= lam - slack
