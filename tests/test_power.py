import importlib
import math

import numpy as np
import pytest

import nlspec as nl
from nlspec import errors


def path_graph(n, w=1.0, measure=None):
    edges = tuple((i, i + 1, w) for i in range(n - 1))
    return nl.WeightedGraph(n=n, edges=edges, node_measure=measure)


class TestPowerMethod:
    def test_quadratic_path6_matches_dense_oracle(self):
        g = nl.build_grid_graph(nl.GridSpec(width=6))
        L = nl.laplacian_matrix(g)
        F = nl.make_functional("quadratic_form", matrix=L)
        spec = nl.dense_symmetric_eigs(L)
        lam1 = spec.eigenvalues[1]
        start = np.ones(6) + 0.01 * np.random.default_rng(0).standard_normal(6)
        pair = nl.power_method(F, start, tol=1e-14, max_iter=5000)
        assert abs(pair.lam - lam1) / lam1 <= 1e-8
        v1 = spec.eigenvectors[:, 1] / np.linalg.norm(spec.eigenvectors[:, 1])
        assert abs(pair.w @ v1) >= 1.0 - 1e-10

    def test_one_prox_call_per_iteration(self, monkeypatch):
        # a converged run reuses its last prox for the fixed-point residual;
        # an unconverged one needs one more call at the final iterate
        prox_module = importlib.import_module("nlspec.prox")
        calls = []
        prox = prox_module.prox
        monkeypatch.setattr(prox_module, "prox",
                            lambda *a, **k: calls.append(1) or prox(*a, **k))
        F = nl.make_functional("graph_tv", nl.build_grid_graph(nl.GridSpec(width=5)))
        start = np.array([1.0, 0.2, -0.5, 0.3, -1.0])
        for max_iter, extra in ((2000, 0), (2, 1)):
            calls.clear()
            pair = nl.power_method(F, start, max_iter=max_iter)
            assert pair.converged == (extra == 0)
            assert len(calls) == len(pair.history) + extra
            v = prox(F, pair.w, pair.sigma, tol=1e-13).u
            assert pair.residual == nl.core.norm(v - pair.mu * pair.w, F.measure)

    def test_lambda_formula_from_mu_sigma(self):
        # at degree 2: mu = 0.5, sigma = 1 -> lambda = (1-mu)/(sigma*mu) = 1
        mu, sigma, p = 0.5, 1.0, 2.0
        lam = (1.0 - mu) / (sigma * mu ** (p - 1.0))
        assert lam == pytest.approx(1.0)
        # the same relation holds inside the solver: lam=2 eigenvector of the
        # 2-node Laplacian has prox multiplier mu = 1/(1+2*sigma)
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F = nl.make_functional("quadratic_form", matrix=L)
        pair = nl.power_method(F, np.array([1.0, -1.0]), c=0.9, tol=1e-14)
        assert pair.mu == pytest.approx(1.0 / (1.0 + 2.0 * pair.sigma), rel=1e-12)
        assert pair.lam == pytest.approx(2.0, rel=1e-10)

    def test_eigenvector_is_fixed_point(self):
        g = path_graph(2)
        F = nl.make_functional("graph_tv", g)
        w_star = np.array([1.0, -1.0]) / math.sqrt(2.0)
        lam = math.sqrt(2.0)
        assert nl.eigen_certificate(F, w_star, lam).max_residual <= 1e-12
        pair = nl.power_method(F, w_star, tol=1e-12, max_iter=50)
        assert pair.converged
        assert len(pair.history) == 1  # residual already below tol at k=0
        assert np.allclose(pair.w, w_star, atol=1e-12)
        assert pair.lam == pytest.approx(lam, rel=1e-10)

    def test_nullspace_start_raises(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        with pytest.raises(errors.NullspaceStart):
            nl.power_method(F, np.ones(3))

    def test_bad_params(self):
        F = nl.make_functional("l1", n=2)
        with pytest.raises(errors.BadParams):
            nl.power_method(F, np.array([1.0, 0.0]), c=1.0)
        with pytest.raises(errors.BadParams):
            nl.power_method(F, np.array([1.0, 0.0]), rule="geometric")

    def test_invariants_across_rules_and_steps(self):
        rng = np.random.default_rng(9)
        g = path_graph(4)
        handles = [
            nl.make_functional("graph_tv", g),
            nl.make_functional("l1", n=4),
            nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g)),
            nl.make_functional("dirichlet_p", g, p=1.5),
        ]
        for F in handles:
            for rule in ("constant", "adaptive"):
                for c in (0.5, 0.9):
                    pair = nl.power_method(F, rng.standard_normal(F.dim),
                                           c=c, rule=rule, tol=1e-12,
                                           max_iter=200)
                    Js = [h["J"] for h in pair.history]
                    assert all(b <= a + 1e-8 * (1 + Js[0])
                               for a, b in zip(Js, Js[1:]))
                    assert abs(nl.norm(pair.w, F.measure) - 1.0) <= 1e-12
                    assert pair.mu > 0
                    sig = [h["sigma"] for h in pair.history]
                    if rule == "adaptive":
                        assert all(b >= a - 1e-12 for a, b in zip(sig, sig[1:]))
                    B = nl.nullspace_basis(F)
                    for k in range(B.shape[1]):
                        assert abs(nl.inner(pair.w, B[:, k], F.measure)) <= 1e-10

    def test_fixed_point_consistency(self):
        g = path_graph(4)
        F = nl.make_functional("graph_tv", g)
        pair = nl.power_method(F, np.array([1.0, -1.0, 0.5, 0.3]),
                               tol=1e-12, max_iter=500)
        # scalar stop at tol gives vector residual <= sqrt(2 mu tol)
        assert pair.residual <= math.sqrt(2.0 * 1e-12) * 2.0

    def test_history_and_oscillation_reported(self):
        g = path_graph(5)
        F = nl.make_functional("graph_tv", g)
        pair = nl.power_method(F, np.array([1.0, 0.0, -1.0, 0.5, 0.2]),
                               tol=1e-12, max_iter=300)
        assert len(pair.history) >= 1
        assert pair.oscillation >= 0.0


class TestGroundStateSearch:
    def test_quadratic_best_matches_oracle(self):
        g = nl.build_grid_graph(nl.GridSpec(width=6))
        L = nl.laplacian_matrix(g)
        F = nl.make_functional("quadratic_form", matrix=L)
        lam1 = nl.dense_symmetric_eigs(L).eigenvalues[1]
        out = nl.ground_state_search(F, restarts=5, seed=1, tol=1e-14,
                                     max_iter=5000)
        assert abs(out["best"].lam - lam1) / lam1 <= 1e-8

    def test_lipschitz_ground_state_is_distance_function(self):
        g = nl.build_grid_graph(nl.GridSpec(width=9, boundary_mode="dirichlet"))
        F = nl.make_functional("lipschitz_sup", g)
        d = nl.distance_transform(g)
        dn = d / nl.norm(d, F.measure)
        out = nl.ground_state_search(F, restarts=4, seed=2, tol=1e-11,
                                     max_iter=3000)
        cos = abs(nl.inner(out["best"].w, dn, F.measure))
        assert cos >= 0.99

    def test_tv_two_node_matches_circle_brute_force(self):
        g = path_graph(2)
        F = nl.make_functional("graph_tv", g)
        # brute-force the Rayleigh quotient over the unit circle,
        # restricted to the orthogonal complement of the constants
        thetas = np.linspace(0, 2 * np.pi, 20001)
        best = np.inf
        for th in thetas:
            u = np.array([np.cos(th), np.sin(th)])
            v = u - np.mean(u)
            nv = nl.norm(v, F.measure)
            if nv < 1e-9:
                continue
            best = min(best, nl.evaluate(F, v) / nv)
        out = nl.ground_state_search(F, restarts=3, seed=3, tol=1e-13)
        assert out["best"].rayleigh == pytest.approx(best, abs=1e-6)

    def test_deterministic_merge(self):
        g = path_graph(5)
        F = nl.make_functional("graph_tv", g)
        a = nl.ground_state_search(F, restarts=4, seed=11)
        b = nl.ground_state_search(F, restarts=4, seed=11)
        assert a["lambdas"] == b["lambdas"]
        assert np.array_equal(a["best"].w, b["best"].w)

    def test_restarts_validation(self):
        F = nl.make_functional("l1", n=2)
        with pytest.raises(errors.BadParams):
            nl.ground_state_search(F, restarts=0)
