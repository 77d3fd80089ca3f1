import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

import nlspec as nl
from nlspec import errors

from graphs import path_graph


class TestWeightedGraph:
    def test_valid_construction(self):
        g = path_graph(3)
        assert g.n == 3
        assert np.allclose(g.node_measure, 1.0)

    def test_rejects_bad_edge_order(self):
        with pytest.raises(errors.BadParams):
            nl.WeightedGraph(n=3, edges=((1, 0, 1.0), (1, 2, 1.0)))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(errors.BadParams):
            nl.WeightedGraph(n=2, edges=((0, 1, 1.0), (0, 1, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(errors.BadParams):
            nl.WeightedGraph(n=2, edges=((0, 1, 0.0),))

    def test_rejects_disconnected(self):
        with pytest.raises(errors.BadParams):
            nl.WeightedGraph(n=4, edges=((0, 1, 1.0), (2, 3, 1.0)))

    @pytest.mark.parametrize("n", [True, 2.5, 0])
    def test_node_count_is_a_count(self, n):
        # 2.5 ended in a bare numpy TypeError
        with pytest.raises(errors.BadParams, match=f"n must be an integer >= 1, got {n}"):
            nl.WeightedGraph(n=n, edges=())

    def test_rejects_bad_measure(self):
        with pytest.raises(errors.BadParams):
            nl.WeightedGraph(n=2, edges=((0, 1, 1.0),),
                             node_measure=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("edges", [
        [[0, 1], [1, 2, 1.0]],            # ragged
        np.ones((2, 2)),                  # (E, 2)
        [0, 1, 1.0],                      # one flat triple
    ], ids=["ragged", "two_columns", "flat"])
    def test_rejects_edges_not_e_by_3(self, edges):
        with pytest.raises(errors.BadParams):
            nl.WeightedGraph(n=3, edges=edges)

    @pytest.mark.parametrize("edges,boundary", [
        (((0.5, 1, 1.0), (1, 2, 1.0)), ()),   # non-integer edge index
        (((0, 1, 1.0), (1, 3, 1.0)), ()),     # edge index out of range
        (((0, 1, 1.0), (1, 2, 1.0)), (3,)),   # boundary out of range
        (((0, 1, 1.0), (1, 2, 1.0)), (-1,)),  # negative boundary
        (((0, 1, 1.0), (1, 2, 1.0)), (0.5,)),  # non-integer boundary
    ], ids=["edge_fraction", "edge_range", "boundary_range",
            "boundary_negative", "boundary_fraction"])
    def test_rejects_bad_indices(self, edges, boundary):
        with pytest.raises(errors.BadParams):
            nl.WeightedGraph(n=3, edges=edges, boundary=boundary)

    @pytest.mark.parametrize("w", [np.inf, np.nan, -1.0])
    def test_rejects_nonfinite_weight(self, w):
        with pytest.raises(errors.BadParams):
            nl.WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, w)))

    def test_edges_stored_once_as_arrays(self):
        triples = ((0, 1, 2.0), (1, 2, 0.5), (0, 2, 1.0))
        g = nl.WeightedGraph(n=3, edges=triples, boundary=[2])
        for arr, dtype in zip(g.edge_arrays, (np.int64, np.int64, np.float64)):
            assert arr.dtype == dtype and arr.flags.c_contiguous
        assert g.edges == triples
        assert all(type(i) is int and type(w) is float for (i, _, w) in g.edges)
        assert g.boundary == frozenset({2})
        assert not hasattr(g, "__dict__")
        h = nl.WeightedGraph(3, np.array(triples), frozenset({2}))
        for a, b in zip(g.edge_arrays, h.edge_arrays):
            assert np.array_equal(a, b)

    def test_connectivity_matches_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            pairs = {tuple(sorted(rng.choice(n, 2, replace=False)))
                     for _ in range(int(rng.integers(0, 2 * n)))} if n > 1 else set()
            edges = sorted((int(i), int(j), 1.0) for (i, j) in pairs)
            reached, frontier = {0}, [0]
            while frontier:   # breadth-first search from node 0
                k = frontier.pop()
                for (i, j, _) in edges:
                    for a, b in ((i, j), (j, i)):
                        if a == k and b not in reached:
                            reached.add(b)
                            frontier.append(b)
            if len(reached) == n:
                nl.WeightedGraph(n=n, edges=edges)
            else:
                with pytest.raises(errors.BadParams, match="not connected"):
                    nl.WeightedGraph(n=n, edges=edges)


class TestComponents:
    def test_partition_matches_csgraph(self):
        """The same partition as scipy's connected_components, each node
        labelled by the smallest index of its component; with isolated nodes
        and with no edges at all."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            n_edges = int(rng.integers(0, n + 1)) if rng.random() < 0.9 else 0
            i, j = rng.integers(0, n, (2, n_edges))
            i, j = i[i != j], j[i != j]
            root = nl.core.components(n, i, j)
            adj = coo_array((np.ones(len(i)), (i, j)), shape=(n, n))
            _, label = connected_components(adj, directed=False)
            assert np.array_equal(label[:, None] == label[None, :],
                                  root[:, None] == root[None, :])
            first = {lab: k for k, lab in reversed(list(enumerate(label)))}
            assert np.array_equal(root, [first[lab] for lab in label])
        assert np.array_equal(nl.core.components(4, np.zeros(0, int),
                                                 np.zeros(0, int)), np.arange(4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["forest", "consistent", "none"]))
def test_potentials_property(n, seed, case):
    """potentials gives the roots of `components`, the partition of scipy's
    connected_components, 0 at each root, and reproduces every offset: any
    offsets on a forest, and on graphs with cycles offsets that are the
    differences of node values.  Random graphs keep isolated nodes; "none"
    has no edges."""
    rng = np.random.default_rng(seed)
    if case == "forest":
        # each node joins a smaller one or starts a tree of its own
        j = np.flatnonzero(rng.random(n) < 0.7)
        j = j[j > 0]
        i = rng.integers(0, j)
        d = rng.standard_normal(len(i))
    elif case == "consistent":
        i, j = rng.integers(0, n, (2, int(rng.integers(0, 2 * n + 1))))
        i, j = i[i != j], j[i != j]
        value = rng.standard_normal(n)
        d = value[j] - value[i]
    else:
        i, j, d = np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    flip = rng.random(len(i)) < 0.5  # either orientation of an edge
    i, j, d = np.where(flip, j, i), np.where(flip, i, j), np.where(flip, -d, d)
    root, pi = nl.core.potentials(n, i, j, d)
    assert np.array_equal(root, nl.core.components(n, i, j))
    adj = coo_array((np.ones(len(i)), (i, j)), shape=(n, n))
    _, label = connected_components(adj, directed=False)
    assert np.array_equal(label[:, None] == label[None, :],
                          root[:, None] == root[None, :])
    assert not pi[root == np.arange(n)].any()
    assert np.allclose(pi[j] - pi[i], d, rtol=0.0, atol=1e-12)


class TestEvaluate:
    def test_graph_tv_indicator(self):
        # indicator of the middle node on a 3-path has two unit jumps
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        assert nl.evaluate(F, [0.0, 1.0, 0.0]) == pytest.approx(2.0, abs=1e-15)

    def test_l1_weighted(self):
        F = nl.make_functional("l1", node_measure=np.array([1.0, 2.0]))
        assert nl.evaluate(F, [3.0, -1.0]) == pytest.approx(5.0)

    def test_linf(self):
        F = nl.make_functional("linf", n=3)
        assert nl.evaluate(F, [1.0, -4.0, 2.0]) == pytest.approx(4.0)

    def test_quadratic(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F = nl.make_functional("quadratic_form", matrix=L)
        assert nl.evaluate(F, [1.0, -1.0]) == pytest.approx(4.0 / 2.0 * 2.0 / 2.0)
        assert nl.evaluate(F, [1.0, -1.0]) == pytest.approx(2.0)

    def test_lipschitz_sup_distance_profile(self):
        g = nl.build_grid_graph(nl.GridSpec(width=3, boundary_mode="dirichlet"))
        F = nl.make_functional("lipschitz_sup", g)
        assert nl.evaluate(F, [0.0, 1.0, 2.0, 1.0, 0.0]) == pytest.approx(1.0)

    def test_dirichlet_p(self):
        g = path_graph(2)
        F = nl.make_functional("dirichlet_p", g, p=3.0)
        assert nl.evaluate(F, [0.0, 2.0]) == pytest.approx(8.0 / 3.0)

    def test_rejects_nan(self):
        F = nl.make_functional("l1", n=2)
        with pytest.raises(errors.DimensionMismatch):
            nl.evaluate(F, [1.0, float("nan")])

    def test_rejects_wrong_length(self):
        F = nl.make_functional("l1", n=2)
        with pytest.raises(errors.DimensionMismatch):
            nl.evaluate(F, [1.0, 2.0, 3.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       st.sampled_from([-2.0, 0.5, 3.0]),
       st.sampled_from(["graph_tv", "l1", "linf", "quadratic_form",
                        "dirichlet_1.5", "lipschitz_sup"]))
def test_homogeneity_property(vals, t, kind):
    g = path_graph(4)
    if kind == "quadratic_form":
        F = nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g))
    elif kind == "dirichlet_1.5":
        F = nl.make_functional("dirichlet_p", g, p=1.5)
    elif kind in ("l1", "linf"):
        F = nl.make_functional(kind, n=4)
    else:
        F = nl.make_functional(kind, g)
    u = np.array(vals)
    Ju = nl.evaluate(F, u)
    assert nl.evaluate(F, t * u) == pytest.approx(
        abs(t) ** F.degree * Ju, abs=1e-10 * (1 + Ju))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.lists(st.floats(-5, 5), min_size=4, max_size=4))
def test_convexity_property(a, b):
    g = path_graph(4)
    F = nl.make_functional("graph_tv", g)
    u, v = np.array(a), np.array(b)
    mid = nl.evaluate(F, 0.5 * u + 0.5 * v)
    assert mid <= 0.5 * nl.evaluate(F, u) + 0.5 * nl.evaluate(F, v) + 1e-10


class TestNullspace:
    def test_constants_for_neumann_graph(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        B = nl.nullspace_basis(F)
        assert B.shape == (3, 1)
        assert np.allclose(B[:, 0], B[0, 0])

    def test_empty_for_vector_kinds(self):
        F = nl.make_functional("l1", n=3)
        assert nl.nullspace_basis(F).shape == (3, 0)

    def test_empty_with_boundary(self):
        g = nl.build_grid_graph(nl.GridSpec(width=3, boundary_mode="dirichlet"))
        F = nl.make_functional("graph_tv", g)
        assert nl.nullspace_basis(F).shape[1] == 0

    def test_quadratic_kernel(self):
        g = path_graph(4)
        F = nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g))
        B = nl.nullspace_basis(F)
        assert B.shape == (4, 1)

    def test_projection_is_mean(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        u = np.array([1.0, 2.0, 6.0])
        assert np.allclose(nl.project_nullspace(F, u), 3.0)

    def test_weighted_projection(self):
        m = np.array([1.0, 3.0])
        g = path_graph(2, measure=m)
        F = nl.make_functional("graph_tv", g)
        u = np.array([4.0, 0.0])
        # measure-weighted mean = (1*4 + 3*0)/4
        assert np.allclose(nl.project_nullspace(F, u), 1.0)


class TestRayleigh:
    def test_tv_two_node(self):
        g = path_graph(2)
        F = nl.make_functional("graph_tv", g)
        u = np.array([1.0, -1.0])
        # J = 2, ||u|| = sqrt(2), degree 1 -> R = 2/sqrt(2) = sqrt(2)
        assert nl.rayleigh(F, u) == pytest.approx(np.sqrt(2.0))

    def test_scale_invariance(self):
        g = path_graph(4)
        F = nl.make_functional("graph_tv", g)
        u = np.array([1.0, -2.0, 0.5, 3.0])
        r = nl.rayleigh(F, u)
        for t in (-2.0, 0.5, 3.0):
            assert nl.rayleigh(F, t * u) == pytest.approx(r, rel=1e-10)

    def test_nullspace_element_raises(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        with pytest.raises(errors.NullspaceElement):
            nl.rayleigh(F, np.full(3, 2.5))

    def test_nullspace_test_is_relative_to_the_signal(self):
        # an absolute floor once rejected s = 1e-13 as a nullspace element
        F = nl.make_functional("graph_tv", path_graph(64))
        f = np.random.default_rng(0).standard_normal(64)
        r = nl.rayleigh(F, f)
        for s in (1e-13, 1e-100, 1e100):
            assert nl.rayleigh(F, s * f) == pytest.approx(r, rel=1e-12)
            with pytest.raises(errors.NullspaceElement):
                nl.rayleigh(F, np.full(64, s))


class TestMinNormSubgradient:
    def test_l1_signs(self):
        F = nl.make_functional("l1", n=3)
        z = nl.min_norm_subgradient(F, np.array([2.0, 0.0, -3.0]))
        assert np.array_equal(z, [1.0, 0.0, -1.0])

    def test_l1_single(self):
        F = nl.make_functional("l1", n=1)
        assert np.array_equal(nl.min_norm_subgradient(F, np.array([-5.0])), [-1.0])

    def test_linf_argmax_split(self):
        F = nl.make_functional("linf", n=3)
        z = nl.min_norm_subgradient(F, np.array([3.0, 1.0, 3.0]))
        assert np.allclose(z, [0.5, 0.0, 0.5])

    def test_linf_zero_raises(self):
        F = nl.make_functional("linf", n=2)
        with pytest.raises(errors.ZeroSignal):
            nl.min_norm_subgradient(F, np.zeros(2))

    def test_graph_kind_unsupported(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        with pytest.raises(errors.UnsupportedFunctional):
            nl.min_norm_subgradient(F, np.array([1.0, 0.0, -1.0]))

    def test_euler_identity_and_dual_ball(self):
        rng = np.random.default_rng(5)
        m = np.array([1.0, 2.0, 0.5, 1.5])
        for kind in ("l1", "linf"):
            F = nl.make_functional(kind, node_measure=m)
            for _ in range(10):
                u = rng.standard_normal(4)
                z = nl.min_norm_subgradient(F, u)
                assert nl.euler_residual(F, u, z) <= 1e-12 * (1 + nl.evaluate(F, u))
                assert nl.dual_ball_membership(F, z, tol=1e-12)


class TestDualBall:
    def test_linf_outside(self):
        F = nl.make_functional("linf", n=2)
        assert not nl.dual_ball_membership(F, np.array([0.7, 0.7]))

    def test_linf_inside(self):
        F = nl.make_functional("linf", n=2)
        assert nl.dual_ball_membership(F, np.array([0.5, 0.5]))

    def test_l1_box(self):
        F = nl.make_functional("l1", n=2)
        assert nl.dual_ball_membership(F, np.array([1.0, -1.0]))
        assert not nl.dual_ball_membership(F, np.array([1.1, 0.0]))

    def test_graph_tv_divergence(self):
        g = path_graph(2)
        F = nl.make_functional("graph_tv", g)
        assert nl.dual_ball_membership(F, np.array([1.0, -1.0]))
        assert not nl.dual_ball_membership(F, np.array([1.5, -1.5]))

    @pytest.mark.parametrize("kind", ["graph_tv", "lipschitz_sup"])
    @pytest.mark.parametrize("spec", [
        nl.GridSpec(width=7),
        nl.GridSpec(width=4, height=3, spacing=0.5, boundary_mode="dirichlet"),
    ], ids=["path7", "grid4x3_dirichlet"])
    def test_prox_subgradient_inside_scaled_outside(self, kind, spec):
        # zeta = (f - prox(f))/sigma lies in K_J; scaled by 1.5 it leaves it
        F = nl.make_functional(kind, nl.build_grid_graph(spec))
        f = np.random.default_rng(3).standard_normal(F.dim)
        sol = nl.prox(F, f, 0.05, tol=1e-12)
        assert sol.converged
        assert nl.dual_ball_membership(F, sol.zeta, tol=1e-6)
        assert not nl.dual_ball_membership(F, 1.5 * sol.zeta, tol=1e-6)

    def test_degree2_unsupported(self):
        F = nl.make_functional("quadratic_form", matrix=np.eye(2))
        with pytest.raises(errors.UnsupportedFunctional):
            nl.dual_ball_membership(F, np.zeros(2))


class TestEigenCertificate:
    def test_true_eigenpair(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F = nl.make_functional("quadratic_form", matrix=L)
        w = np.array([1.0, -1.0]) / np.sqrt(2.0)
        c = nl.eigen_certificate(F, w, 2.0)
        assert c.max_residual <= 1e-12

    def test_non_eigenvector_flagged(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F = nl.make_functional("quadratic_form", matrix=L)
        c = nl.eigen_certificate(F, np.array([1.0, 0.0]), 1.0)
        assert c.subgradient_gap > 0.0

    def test_zero_lambda_euler(self):
        g = path_graph(2)
        F = nl.make_functional("graph_tv", g)
        w = np.array([1.0, -1.0])
        c = nl.eigen_certificate(F, w, 0.0)
        assert c.euler_residual == pytest.approx(nl.evaluate(F, w))

    def test_zero_signal_raises(self):
        F = nl.make_functional("l1", n=2)
        with pytest.raises(errors.ZeroSignal):
            nl.eigen_certificate(F, np.zeros(2), 1.0)

    def test_deterministic_in_seed(self):
        F = nl.make_functional("l1", n=3)
        w = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        a = nl.eigen_certificate(F, w, 1.0)
        b = nl.eigen_certificate(F, w, 1.0)
        assert a == b

    @pytest.mark.parametrize("kind, least", [("graph_tv", 0.8),
                                             ("lipschitz_sup", 0.35)])
    def test_false_eigenpair_on_a_path_flagged(self, kind, least):
        # w = a mean-free Gaussian on a 6-node path, lam = J(w): the Euler
        # identity holds, but zeta = lam*w is no subgradient at w
        F = nl.make_functional(kind, nl.build_grid_graph(nl.GridSpec(width=6)))
        w = np.random.default_rng(0).standard_normal(6)
        w -= w.mean()
        w /= np.linalg.norm(w)
        c = nl.eigen_certificate(F, w, nl.evaluate(F, w))
        assert c.euler_residual <= 1e-15
        assert c.subgradient_gap > least

    def test_gap_bounded_by_distance_to_the_subdifferential(self):
        # l1: dJ(w) is sign(w_i) on the support and [-1, 1] off it, so the
        # m-distance from zeta to dJ(w) is in closed form
        m = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        F = nl.make_functional("l1", node_measure=m)
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.standard_normal(5) * (rng.random(5) < 0.7)
            if not w.any():
                continue
            lam = rng.uniform(0.1, 5.0)
            zeta = lam * w / nl.norm(w, m)
            miss = np.where(w != 0, zeta - np.sign(w),
                            np.maximum(np.abs(zeta) - 1.0, 0.0))
            dist = nl.norm(miss, m)
            gap = nl.eigen_certificate(F, w, lam).subgradient_gap
            assert 0.0 < gap <= dist + 1e-12

    def test_draws_no_random_numbers(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("random numbers drawn")
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        F = nl.make_functional("graph_tv", path_graph(4))
        nl.eigen_certificate(F, np.array([1.0, 0.5, -0.5, -1.0]), 1.0)
