import ast
import math
from pathlib import Path

import numpy as np
import pytest

import nlspec as nl
from nlspec import errors, oracles


def path_laplacian(n):
    g = nl.build_grid_graph(nl.GridSpec(width=n))
    return nl.laplacian_matrix(g)


class TestDenseSymmetricEigs:
    def test_two_node_path(self):
        spec = nl.dense_symmetric_eigs(path_laplacian(2))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(spec.eigenvectors[:, 0]), s, atol=1e-12)
        assert np.allclose(np.abs(spec.eigenvectors[:, 1]), s, atol=1e-12)
        assert spec.eigenvectors[0, 1] * spec.eigenvectors[1, 1] < 0

    def test_identity(self):
        spec = nl.dense_symmetric_eigs(np.eye(5))
        assert np.allclose(spec.eigenvalues, 1.0)

    def test_path4_closed_form(self):
        # Neumann path Laplacian: lam_k = 2 - 2 cos(k*pi/n)
        n = 4
        spec = nl.dense_symmetric_eigs(path_laplacian(n))
        expected = np.sort([2.0 - 2.0 * math.cos(k * math.pi / n)
                            for k in range(n)])
        assert np.allclose(spec.eigenvalues, expected, atol=1e-10)

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((9, 9))
        A = A + A.T
        spec = nl.dense_symmetric_eigs(A)
        V, lam = spec.eigenvectors, spec.eigenvalues
        for i in range(9):
            assert np.linalg.norm(A @ V[:, i] - lam[i] * V[:, i]) \
                <= 1e-10 * np.linalg.norm(A)
        assert np.max(np.abs(V.T @ V - np.eye(9))) <= 1e-10
        rec = np.linalg.norm(A - V @ np.diag(lam) @ V.T)
        assert rec <= 1e-9 * np.linalg.norm(A)

    def test_generalized_measure_problem(self):
        m = np.array([1.0, 2.0, 0.5, 1.5])
        A = path_laplacian(4)
        spec = nl.dense_symmetric_eigs(A, node_measure=m)
        V, lam = spec.eigenvectors, spec.eigenvalues
        for i in range(4):
            assert np.linalg.norm(A @ V[:, i] - lam[i] * m * V[:, i]) <= 1e-10
        G = V.T @ np.diag(m) @ V
        assert np.max(np.abs(G - np.eye(4))) <= 1e-10

    def test_not_symmetric_raises(self):
        with pytest.raises(errors.NotSymmetric):
            nl.dense_symmetric_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_too_large_raises(self):
        # the same error as the brute-force prox's limit
        with pytest.raises(errors.DimensionTooLarge):
            nl.dense_symmetric_eigs(np.zeros((2001, 2001)))


def test_oracles_share_no_solver_code():
    """The oracles import no solver or front-end module: of the package they
    use only `core`'s definitions of the graph and the functionals."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    banned = {"prox", "flow", "power", "edgecalc", "validation", "cli"}
    assert not imported & banned
    assert "brute_force_prox" in vars(oracles)


class TestLinearHeatSolution:
    def test_t0_identity(self):
        spec = nl.dense_symmetric_eigs(path_laplacian(5))
        f = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        assert np.allclose(nl.linear_heat_solution(spec, f, 0.0), f, atol=1e-10)

    def test_measure_weighted_heat(self):
        # u' = -M^{-1} A u: u(0) = f, and the M-mass of f is conserved
        m = np.array([1.0, 2.0, 0.5, 1.5, 0.25])
        spec = nl.dense_symmetric_eigs(path_laplacian(5), node_measure=m)
        assert np.array_equal(spec.node_measure, m)
        assert np.array_equal(nl.dense_symmetric_eigs(np.eye(2)).node_measure,
                              np.ones(2))
        f = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        assert np.allclose(nl.linear_heat_solution(spec, f, 0.0), f, atol=1e-10)
        u = nl.linear_heat_solution(spec, f, 200.0)
        assert np.allclose(u, (m @ f) / m.sum(), atol=1e-10)

    def test_single_mode_decay(self):
        spec = nl.dense_symmetric_eigs(path_laplacian(5))
        v = spec.eigenvectors[:, 2]
        lam = spec.eigenvalues[2]
        u = nl.linear_heat_solution(spec, v, 0.8)
        assert np.allclose(u, math.exp(-lam * 0.8) * v, atol=1e-12)

    def test_semigroup_law(self):
        spec = nl.dense_symmetric_eigs(path_laplacian(6))
        rng = np.random.default_rng(11)
        f = rng.standard_normal(6)
        u1 = nl.linear_heat_solution(spec, f, 0.9)
        u2 = nl.linear_heat_solution(spec, nl.linear_heat_solution(spec, f, 0.4), 0.5)
        assert np.allclose(u1, u2, atol=1e-10)

    def test_second_order_asymptotics(self):
        # normalized flow approaches the first nonzero mode at rate lam2-lam1
        L = path_laplacian(6)
        spec = nl.dense_symmetric_eigs(L)
        rng = np.random.default_rng(12)
        f = rng.standard_normal(6)
        u1 = spec.eigenvectors[:, 1]
        c1 = f @ u1
        assert abs(c1) > 1e-3
        lam1, lam2 = spec.eigenvalues[1], spec.eigenvalues[2]
        t = math.log(np.linalg.norm(f) / abs(c1) / 1e-6) / (lam2 - lam1)
        u = nl.linear_heat_solution(spec, f - np.mean(f), t)
        w = u / np.linalg.norm(u)
        dev = min(np.linalg.norm(w - u1), np.linalg.norm(w + u1))
        assert dev <= 1e-5

    def test_negative_time_rejected(self):
        spec = nl.dense_symmetric_eigs(np.eye(2))
        with pytest.raises(errors.BadParams):
            nl.linear_heat_solution(spec, np.zeros(2), -0.1)


class TestDistanceTransform:
    def test_1d_dirichlet_width3(self):
        g = nl.build_grid_graph(nl.GridSpec(width=3, boundary_mode="dirichlet"))
        d = nl.distance_transform(g)
        assert np.allclose(d, [0.0, 1.0, 2.0, 1.0, 0.0])

    def test_all_boundary_is_zero(self):
        g = nl.WeightedGraph(n=2, edges=((0, 1, 1.0),), boundary=frozenset({0, 1}))
        assert np.allclose(nl.distance_transform(g), 0.0)

    def test_3x3_dirichlet_matches_bfs(self):
        g = nl.build_grid_graph(
            nl.GridSpec(width=3, height=3, boundary_mode="dirichlet"))
        d = nl.distance_transform(g)
        # breadth-first search oracle on the unit lattice
        from collections import deque
        adj = [[] for _ in range(g.n)]
        for (i, j, _) in g.edges:
            adj[i].append(j)
            adj[j].append(i)
        bfs = np.full(g.n, np.inf)
        q = deque()
        for b in g.boundary:
            bfs[b] = 0.0
            q.append(b)
        while q:
            x = q.popleft()
            for y in adj[x]:
                if bfs[y] == np.inf:
                    bfs[y] = bfs[x] + 1.0
                    q.append(y)
        assert np.allclose(d, bfs)
        # center of the 3x3 interior sits two hops from the ring
        center = (g.n - 1) // 2
        assert d[center] == pytest.approx(2.0)

    def test_edge_length_is_inverse_weight(self):
        g = nl.WeightedGraph(n=3, edges=((0, 1, 2.0), (1, 2, 0.5)),
                             boundary=frozenset({0}))
        d = nl.distance_transform(g)
        assert np.allclose(d, [0.0, 0.5, 2.5])

    def test_empty_boundary_raises(self):
        g = nl.WeightedGraph(n=2, edges=((0, 1, 1.0),))
        with pytest.raises(errors.EmptyBoundary):
            nl.distance_transform(g)

    def test_eikonal_property(self):
        g = nl.build_grid_graph(
            nl.GridSpec(width=4, height=3, spacing=0.5, boundary_mode="dirichlet"))
        d = nl.distance_transform(g)
        adj = [[] for _ in range(g.n)]
        for (i, j, w) in g.edges:
            adj[i].append((j, 1.0 / w))
            adj[j].append((i, 1.0 / w))
        for node in range(g.n):
            if node in g.boundary:
                continue
            assert min(d[nb] + ln for nb, ln in adj[node]) == pytest.approx(d[node])


class TestEigenProfile:
    def test_initial_condition(self):
        assert nl.eigen_profile(1.0, 2.0, 0.0) == 1.0

    def test_p1_extinction(self):
        assert nl.eigen_profile(2.0, 1.0, 0.5) == 0.0
        assert nl.eigen_profile(2.0, 1.0, 0.49) == pytest.approx(0.02)

    def test_p3_reciprocal(self):
        assert nl.eigen_profile(1.0, 3.0, 1.0) == pytest.approx(0.5)

    def test_p2_exponential(self):
        assert nl.eigen_profile(1.5, 2.0, 2.0) == pytest.approx(math.exp(-3.0))

    def test_ode_residual(self):
        h = 1e-6
        for lam, p in ((1.0, 1.0), (2.0, 1.5), (1.0, 2.0), (1.0, 3.0)):
            for t in (0.1, 0.2):
                am = nl.eigen_profile(lam, p, t - h)
                ap = nl.eigen_profile(lam, p, t + h)
                if am <= 0 or ap <= 0:
                    continue
                a = nl.eigen_profile(lam, p, t)
                assert abs((ap - am) / (2 * h) + lam * a ** (p - 1)) <= 1e-4

    def test_bad_params(self):
        with pytest.raises(errors.BadParams):
            nl.eigen_profile(-1.0, 2.0, 0.0)
