import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentw import (CountVector, Distribution, ProductClassSpec,
                     SampleSpace, class_weight,
                     empirical_distribution, exchangeable_weight,
                     singleton_weight)
from latentw import product
from latentw import space as space_module
from latentw.errors import DimensionTooLargeError, SpaceTooLargeError

from conftest import dirichlet_distributions
from oracle_utils import (class_weight_scalar_oracle, grid_starts_oracle,
                          supmin_grid_oracle)


def bernoulli_product(space, qs):
    """Product of Bernoulli(q_j) marginals, q = P(symbol 1)."""
    p = np.ones(space.n_outcomes)
    mat = space.outcome_matrix()
    for j, q in enumerate(qs):
        p *= np.where(mat[:, j] == 1, q, 1 - q)
    return Distribution(space, p / p.sum())


class TestSingletonWeight:
    def test_intro_example_exact(self, space22):
        # largest weight of Bernoulli(3/5) x Bernoulli(4/5) inside the
        # 2x2 working example is 5/6
        p = Distribution(space22, [Fraction(1, 10), Fraction(3, 10),
                                   Fraction(1, 10), Fraction(1, 2)])
        mu1, nu1 = Fraction(3, 5), Fraction(4, 5)
        q0 = Distribution(space22, [(1 - mu1) * (1 - nu1), (1 - mu1) * nu1,
                                    mu1 * (1 - nu1), mu1 * nu1])
        assert singleton_weight(p, q0) == Fraction(5, 6)
        # the residual of that mixture is (1/6) * [[1/5, 1/5], [0, 3/5]]
        resid = (np.array(p.p, dtype=object)
                 - Fraction(5, 6) * np.array(q0.p, dtype=object)) * 6
        assert list(resid) == [Fraction(1, 5), Fraction(1, 5),
                               Fraction(0), Fraction(3, 5)]

    def test_intro_example_float(self, intro_joint, space22):
        q0 = bernoulli_product(space22, [3 / 5, 4 / 5])
        assert abs(singleton_weight(intro_joint, q0) - 5 / 6) < 1e-12

    def test_self_weight_is_one(self, intro_joint):
        assert singleton_weight(intro_joint, intro_joint) == 1.0

    def test_unsupported_point_mass(self, space22):
        p = Distribution.from_mapping(space22, {"01": 1.0})
        q0 = Distribution.point_mass(space22, "10")
        assert singleton_weight(p, q0) == 0.0

    def test_counts_divide_once(self, space22):
        # on laws of counts the ratio is a*B / (b*A); with totals near
        # 10**12 those products pass int64 and must not wrap
        a, b = [10**12 + 39, 3 * 10**12, 10**12, 5 * 10**12], [7, 3, 10**12, 5]
        exact = min(Fraction(x * sum(b), y * sum(a)) for x, y in zip(a, b))
        for e, want in ((True, exact), (False, float(exact))):
            p, q0 = (empirical_distribution(CountVector(space22, v), exact=e)
                     for v in (a, b))
            assert singleton_weight(p, q0) == want

    def test_zero_division_convention(self, space22):
        # ratios over q0's zeros never attain the minimum (0/0 -> +inf)
        p = Distribution.from_mapping(space22, {"01": 0.5, "10": 0.5})
        q0 = Distribution.from_mapping(space22, {"01": 1.0})
        assert singleton_weight(p, q0) == 0.5


class TestClassWeight:
    def test_product_class_24_25(self, intro_joint):
        res = class_weight(intro_joint, ProductClassSpec(kind="product"))
        assert abs(res.lam - 24 / 25) <= 1e-4
        assert res.certificate_margin >= -1e-9
        assert res.converged
        # maximizer is Bernoulli(5/8) x Bernoulli(5/6)
        expected = bernoulli_product(intro_joint.space, [5 / 8, 5 / 6])
        assert np.max(np.abs(res.argmax_q.p - expected.p)) < 1e-2
        assert len(res.multistart_log) == 8

    def test_iid_class_uniform_diagonal(self, space22):
        p = Distribution.from_mapping(space22, {"00": 0.5, "11": 0.5})
        res = class_weight(p, ProductClassSpec(kind="iid"))
        assert abs(res.lam - 0.5) <= 1e-4
        # non-unique maximizers; any returned one must be a point mass at
        # a constant outcome
        top = np.argmax(res.argmax_q.p)
        assert res.argmax_q.p[top] > 1 - 1e-6
        assert top in (0, 3)

    def test_iid_class_off_constants_d4(self):
        space = SampleSpace(2, 4)
        p = np.full(16, 1 / 14)
        p[0] = p[15] = 0.0
        dist = Distribution(space, p)
        res = class_weight(dist, ProductClassSpec(kind="iid"))
        assert res.lam <= 1e-4

    def test_member_of_class_scores_one(self, space22):
        q = bernoulli_product(space22, [0.3, 0.8])
        res = class_weight(q, ProductClassSpec(kind="product"))
        assert res.lam >= 1 - 1e-4
        res_iid = class_weight(bernoulli_product(space22, [0.3, 0.3]),
                               ProductClassSpec(kind="iid"))
        assert res_iid.lam >= 1 - 1e-4

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_singleton_on_counts_is_correctly_rounded(self, data):
        # lam is the exact min_x p(x)/q0(x) of the laws of counts, rounded
        # once (dividing the rounded probabilities can miss by an ulp)
        space = SampleSpace(*data.draw(st.sampled_from([(2, 2), (2, 3),
                                                        (3, 2)])))
        counts = st.lists(st.integers(0, 999), min_size=space.n_outcomes,
                          max_size=space.n_outcomes).filter(any)
        a, b = data.draw(counts), data.draw(counts)
        exact = min(Fraction(x * sum(b), y * sum(a))
                    for x, y in zip(a, b) if y > 0)
        p, q0 = (empirical_distribution(CountVector(space, v)) for v in (a, b))
        res = class_weight(p, ProductClassSpec(kind="singleton", q0=q0))
        assert res.lam == float(exact)

    def test_singleton_spec_matches_closed_form(self, intro_joint, space22):
        q0 = bernoulli_product(space22, [3 / 5, 4 / 5])
        res = class_weight(intro_joint, ProductClassSpec(kind="singleton",
                                                         q0=q0))
        assert abs(res.lam - 5 / 6) < 1e-12
        assert res.certificate_margin >= -1e-9

    def test_certificate_and_grid_oracle_iid(self, space23):
        for p in dirichlet_distributions(space23, 8, 44):
            res = class_weight(p, ProductClassSpec(kind="iid"))
            assert np.all(p.p >= res.lam * res.argmax_q.p - 1e-9)
            oracle = supmin_grid_oracle(p.p, "iid", 2, 3)
            assert oracle <= res.lam + 10 * 1e-4

    def test_certificate_and_grid_oracle_product(self, space22):
        for p in dirichlet_distributions(space22, 6, 45):
            res = class_weight(p, ProductClassSpec(kind="product"))
            assert np.all(p.p >= res.lam * res.argmax_q.p - 1e-9)
            oracle = supmin_grid_oracle(p.p, "product", 2, 2)
            assert oracle <= res.lam + 10 * 1e-4

    def test_iid_below_exchangeable(self, space23):
        # iid laws are exchangeable, so the exchangeable class dominates
        for p in dirichlet_distributions(space23, 15, 46):
            res = class_weight(p, ProductClassSpec(kind="iid"))
            assert res.lam <= exchangeable_weight(p) + 1e-4

    def test_lambda_at_most_one(self, space22):
        for p in dirichlet_distributions(space22, 10, 47):
            res = class_weight(p, ProductClassSpec(kind="product"))
            assert res.lam <= 1.0 + 1e-12

    def test_dimension_limit(self):
        # 17 parameters, one above the limit of 16
        space = SampleSpace(2, 17)
        with pytest.raises(DimensionTooLargeError, match="limit 16"):
            class_weight(Distribution.uniform(space),
                         ProductClassSpec(kind="product"))

    def test_space_budget(self, monkeypatch):
        monkeypatch.setattr(space_module, "DEFAULT_MAX_OUTCOMES", 16)
        p = Distribution.uniform(SampleSpace(2, 5))
        for kind in ("iid", "product"):
            with pytest.raises(SpaceTooLargeError):
                class_weight(p, ProductClassSpec(kind=kind))

    def test_deterministic(self, intro_joint):
        a = class_weight(intro_joint, ProductClassSpec(kind="product"))
        b = class_weight(intro_joint, ProductClassSpec(kind="product"))
        assert a.lam == b.lam
        assert np.array_equal(a.argmax_q.p, b.argmax_q.p)
        assert a.multistart_log == b.multistart_log

    def test_spec_validation(self, space22):
        with pytest.raises(ValueError):
            ProductClassSpec(kind="markov")
        with pytest.raises(ValueError):
            ProductClassSpec(kind="singleton")
        with pytest.raises(ValueError):
            ProductClassSpec(kind="iid",
                             q0=Distribution.uniform(space22))


def _assert_matches_scalar_oracle(p, kind, grid_points=33):
    res = class_weight(p, ProductClassSpec(kind=kind), grid_points)
    lam, q, margin, log, converged = class_weight_scalar_oracle(
        p, kind, grid_points)
    assert res.lam == lam
    assert np.array_equal(res.argmax_q.p, q)
    assert res.certificate_margin == margin
    assert res.multistart_log == log
    assert res.converged == converged
    return res


def _oracle_laws(space, seed):
    """A Dirichlet(0.5) law, a sparse law and a point mass."""
    rng = np.random.default_rng(seed)
    n = space.n_outcomes
    sparse = rng.dirichlet(np.ones(n)) * (np.arange(n) % 3 != 1)
    return [Distribution(space, rng.dirichlet(np.full(n, 0.5))),
            Distribution(space, sparse / sparse.sum()),
            Distribution(space, np.eye(n)[rng.integers(n)])]


def _sparse_law(space, seed):
    """A Dirichlet(1) law with every third cell zeroed."""
    n = space.n_outcomes
    w = np.random.default_rng(seed).dirichlet(np.ones(n))
    w *= np.arange(n) % 3 != 1
    return Distribution(space, w / w.sum())


class TestBatchedSearchMatchesScalarOracle:
    """The batched grid and polls reproduce the per-point search exactly."""

    @pytest.mark.parametrize("kind", ["iid", "product"])
    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_random_laws_grid9(self, k, d, kind):
        space = SampleSpace(k, d)
        for p in _oracle_laws(space, 100 * k + d):
            _assert_matches_scalar_oracle(p, kind, grid_points=9)

    @pytest.mark.parametrize("kind", ["iid", "product"])
    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_random_law_default_grid(self, k, d, kind):
        # grid 33; at (2,4) the product grid shrinks to 15 points a side
        p = dirichlet_distributions(SampleSpace(k, d), 1, 10 * k + d, 5.0)[0]
        _assert_matches_scalar_oracle(p, kind)

    def test_budget_limited(self, monkeypatch):
        monkeypatch.setattr(product, "_MAX_EVALS_PER_START", 50)
        p = dirichlet_distributions(SampleSpace(3, 2), 1, 61)[0]
        res = _assert_matches_scalar_oracle(p, "product", grid_points=9)
        assert not res.converged

    def test_budget_trips_at_the_same_iterate(self, monkeypatch):
        # every budget up to a few polls: a miscounted poll stops the
        # search one step early or late somewhere in this sweep
        p = dirichlet_distributions(SampleSpace(2, 3), 1, 65)[0]
        for budget in range(1, 61):
            monkeypatch.setattr(product, "_MAX_EVALS_PER_START", budget)
            _assert_matches_scalar_oracle(p, "product", grid_points=5)

    def test_grid_shrunk_by_budget(self, monkeypatch):
        # 33^4 points exceed the budget; the grid drops to 4 points a side
        monkeypatch.setattr(product, "_MAX_GRID_TOTAL", 500)
        p = dirichlet_distributions(SampleSpace(2, 4), 1, 62)[0]
        res = _assert_matches_scalar_oracle(p, "product")
        assert all(t in (0.0, 1 / 3, 2 / 3, 1.0)
                   for start, _ in res.multistart_log for t in start)

    @pytest.mark.parametrize("chunk", [40, 4])
    def test_batches_span_chunks(self, monkeypatch, chunk):
        # 40 elements: 5 rows of 8 outcomes per chunk; 4: one row per chunk
        monkeypatch.setattr(product, "_CHUNK_ELEMENTS", chunk)
        for p in _oracle_laws(SampleSpace(2, 3), 63):
            _assert_matches_scalar_oracle(p, "product", grid_points=9)


def test_search_scores_in_batches(monkeypatch):
    """The grid is one batch per tile of 9^4 points, the starts one more,
    and each later round one batch of every running start's full poll; a
    per-point loop would make 59 049 grid calls at (2,5)."""
    batches = []
    grid_calls = []
    score = product._Objective.__call__
    grid_starts = product._grid_starts

    def counting_score(self, thetas):
        batches.append(len(thetas))
        return score(self, thetas)

    def counting_grid_starts(objective, dim, grid_points):
        before = len(batches)
        starts = grid_starts(objective, dim, grid_points)
        grid_calls.append(len(batches) - before)
        return starts

    monkeypatch.setattr(product._Objective, "__call__", counting_score)
    monkeypatch.setattr(product, "_grid_starts", counting_grid_starts)
    p = dirichlet_distributions(SampleSpace(2, 5), 1, 64)[0]
    class_weight(p, ProductClassSpec(kind="product"))
    assert grid_calls == [9]
    assert batches[:9] == [9**4] * 9
    n_starts, rounds = batches[9], batches[10:]
    n_dirs = len(product._poll_directions(5))
    assert n_starts == product._N_STARTS
    running = [b // n_dirs for b in rounds]
    assert [r * n_dirs for r in running] == rounds
    assert all(n_starts >= a >= b > 0 for a, b in zip(running, running[1:]))

    # Each start searched alone polls as often as it does in lockstep, so
    # no finished start is scored again.
    objective = product._Objective(p.p, 2, 5)
    starts = grid_starts(objective, 5, 33)
    del batches[:]
    for start in starts:
        product._compass_search(objective, start[None], 33)
    assert len(batches) - len(starts) > len(rounds)
    assert (n_starts + sum(rounds)
            == len(starts) + n_dirs * (len(batches) - len(starts)))


def _grid_laws(space, seed):
    """A Dirichlet(1) law, the uniform law and a point mass."""
    rng = np.random.default_rng(seed)
    n = space.n_outcomes
    return [rng.dirichlet(np.ones(n)), np.full(n, 1 / n),
            np.eye(n)[rng.integers(n)]]


class TestGridTiles:
    """The grid scored tile by tile keeps the starts of the whole grid."""

    @pytest.mark.parametrize("kind", ["iid", "product"])
    @pytest.mark.parametrize("k,d", [(2, 3), (3, 2), (2, 4), (2, 5),
                                     (2, 10), (4, 4), (3, 3)])
    def test_starts_match_whole_grid(self, k, d, kind):
        dim = k - 1 if kind == "iid" else d * (k - 1)
        for p in _grid_laws(SampleSpace(k, d), 40 * k + d):
            objective = product._Objective(p, k, d)
            for grid_points in (1, 2, 9, 33):
                assert np.array_equal(
                    product._grid_starts(objective, dim, grid_points),
                    grid_starts_oracle(objective, dim, grid_points))

    @pytest.mark.parametrize("chunk", [40, 4, 1])
    def test_small_tiles_match_whole_grid(self, monkeypatch, chunk):
        # 40 values: tiles of 9 points at grid 9 (2,3); 4 and 1: tiles of
        # one point, the whole grid set by the leading parameters
        monkeypatch.setattr(product, "_CHUNK_ELEMENTS", chunk)
        for p in _grid_laws(SampleSpace(2, 3), 41):
            objective = product._Objective(p, 2, 3)
            for grid_points in (1, 2, 9):
                assert np.array_equal(
                    product._grid_starts(objective, 3, grid_points),
                    grid_starts_oracle(objective, 3, grid_points))

    def test_grid_memory_is_bounded(self):
        # the whole grid, its values and their argsort peaked at 6.3 MiB
        p = _sparse_law(SampleSpace(2, 10), 40)
        tracemalloc.start()
        try:
            class_weight(p, ProductClassSpec(kind="product"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


def _one_pass_reference(p, k, d, thetas):
    """g on all rows in one pass, as before tiling: Q gathered through the
    outcome matrix coordinate by coordinate, ratios over the outcomes
    with Q > 0, and a row with no positive Q scored 0."""
    margs = product._Objective(p, k, d).marginals(thetas)
    mat = SampleSpace(k, d).outcome_matrix()
    q = margs[:, 0, mat[:, 0]]
    for j in range(1, d):
        q *= margs[:, j, mat[:, j]]
    ratio = np.divide(p, q, out=np.full_like(q, np.inf), where=q > 0.0)
    values = ratio.min(axis=1)
    values[np.isinf(values)] = 0.0
    return values


def _tile_thetas(dim, seed):
    """Interior rows, cube corners (point-mass marginals) and NaN rows,
    whose Q has no positive entry."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.random((30, dim)),
                           rng.integers(0, 2, (15, dim)).astype(float),
                           np.full((2, dim), 0.5),
                           np.full((2, dim), np.nan)])


class TestTiles:
    """Tiles of any shape score every row exactly as one pass does."""

    @pytest.mark.parametrize("chunk", [1, 3, 7, product._CHUNK_ELEMENTS])
    @pytest.mark.parametrize("kind", ["iid", "product"])
    @pytest.mark.parametrize("k,d", [(2, 3), (3, 2), (2, 5), (3, 3)])
    def test_values_match_one_pass(self, monkeypatch, chunk, kind, k, d):
        space = SampleSpace(k, d)
        dim = k - 1 if kind == "iid" else d * (k - 1)
        thetas = _tile_thetas(dim, 10 * k + d)
        monkeypatch.setattr(product, "_CHUNK_ELEMENTS", chunk)
        for p in _oracle_laws(space, 20 * k + d):
            values = product._Objective(p.p, k, d)(thetas)
            assert np.all(values == _one_pass_reference(p.p, k, d, thetas))
        assert np.all(values[-2:] == 0.0)

    def test_rows_split_across_outcome_tiles(self):
        # 2^17 outcomes: every row spans two tiles of the default size
        n = 2**17
        point = np.zeros(n)
        point[n // 3] = 1.0
        thetas = _tile_thetas(1, 17)[::4]
        for p in (_sparse_law(SampleSpace(2, 17), 17).p, point):
            values = product._Objective(p, 2, 17)(thetas)
            assert np.all(values == _one_pass_reference(p, 2, 17, thetas))

    @pytest.mark.parametrize("kind,k,d", [("product", 2, 5),
                                          ("product", 2, 10),
                                          ("iid", 2, 16)])
    def test_class_weight_memory_is_bounded(self, kind, k, d):
        # one-pass scoring peaked at 36, 69 and 43 MiB on these, and a
        # grid built from full meshgrid copies at 9.0 MiB on (2,10)
        p = _sparse_law(SampleSpace(k, d), 30 + d)
        tracemalloc.start()
        try:
            class_weight(p, ProductClassSpec(kind=kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20

    def test_class_weight_raises_no_warnings(self):
        # the divisions by zero are expected, and stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for space in (SampleSpace(2, 3), SampleSpace(3, 2)):
                for p in _oracle_laws(space, 72):
                    for kind in ("iid", "product"):
                        class_weight(p, ProductClassSpec(kind=kind), 9)


class TestOptimizerOptions:
    """``grid_points`` is the search's one setting; the limits are module
    constants, patched here to their smallest values."""

    @pytest.mark.parametrize("field,value", [
        ("grid_points", 0), ("grid_points", -3)])
    def test_rejects_out_of_range(self, intro_joint, field, value):
        # every class checks the grid first, the singleton one included
        for spec in (ProductClassSpec(kind="singleton", q0=intro_joint),
                     ProductClassSpec(kind="iid"),
                     ProductClassSpec(kind="product")):
            with pytest.raises(ValueError,
                               match=f"^{field} must be >= 1, got {value}$"):
                class_weight(intro_joint, spec, value)

    def test_smallest_valid_options_run(self, intro_joint, monkeypatch):
        for name, value in [("_N_STARTS", 1), ("_MAX_GRID_TOTAL", 1),
                            ("_MAX_EVALS_PER_START", 1),
                            ("_STEP_FLOOR", 5e-324)]:
            monkeypatch.setattr(product, name, value)
        res = class_weight(intro_joint, ProductClassSpec(kind="product"), 1)
        assert len(res.multistart_log) == 1
        assert res.certificate_margin >= -1e-9


@st.composite
def _class_laws(draw):
    """Float laws with k^d <= 16, sparse and point-mass ones included."""
    k, d = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]))
    space = SampleSpace(k, d)
    n = space.n_outcomes
    if draw(st.sampled_from(["general", "point"])) == "point":
        return Distribution(space, np.eye(n)[draw(st.integers(0, n - 1))])
    weight = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    if w.sum() == 0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return Distribution(space, w / w.sum())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_class_laws())
def test_class_weight_properties(p):
    iid = class_weight(p, ProductClassSpec(kind="iid"), 9)
    prod = class_weight(p, ProductClassSpec(kind="product"), 9)
    for res in (iid, prod):
        assert res.certificate_margin >= -1e-9
        assert res.lam <= 1 + 1e-12
    assert iid.lam <= exchangeable_weight(p) + 1e-9
    assert iid.lam <= prod.lam + 1e-4
