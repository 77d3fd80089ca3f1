import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest

import nlspec as nl

flow_module = importlib.import_module("nlspec.flow")


def path_graph(n, w=1.0, measure=None):
    edges = tuple((i, i + 1, w) for i in range(n - 1))
    return nl.WeightedGraph(n=n, edges=edges, node_measure=measure)


def two_node_tv():
    g = path_graph(2)
    return nl.make_functional("graph_tv", g)


class TestRunFlow:
    def test_nullspace_start_is_instant_equilibrium(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        tr = nl.run_flow(F, np.full(3, 2.0))
        assert tr.extinction_index == 0
        assert len(tr.t) == 1
        assert np.allclose(tr.u_infinity, 2.0)

    def test_quadratic_eigenvector_recurrence(self):
        # implicit Euler on a lam=2 eigenvector: u_k = f / (1 + tau*lam)^k
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F = nl.make_functional("quadratic_form", matrix=L)
        f = np.array([1.0, -1.0])
        tr = nl.run_flow(F, f, tau=0.1, max_steps=30, prox_tol=1e-13)
        for k, u in enumerate(tr.us):
            assert np.allclose(u, f / 1.2 ** k, atol=1e-10)

    def test_tv_eigenvector_linear_decay(self):
        F = two_node_tv()
        f = np.array([1.0, -1.0])
        lam = math.sqrt(2.0)
        tr = nl.run_flow(F, f, tau=0.1, prox_tol=1e-13)
        d0 = tr.dist[0]
        for k in range(len(tr.t)):
            assert tr.dist[k] == pytest.approx(max(d0 - lam * tr.t[k], 0.0),
                                               abs=1e-10)
        assert tr.extinction_index is not None
        t_ex = tr.t[tr.extinction_index]
        assert abs(t_ex - d0 / lam) <= 0.1 + 1e-12

    def test_update_identity(self):
        F = two_node_tv()
        tr = nl.run_flow(F, np.array([0.7, -0.3]), tau=0.05, prox_tol=1e-13)
        for k in range(1, len(tr.t)):
            lhs = tr.us[k]
            rhs = tr.us[k - 1] - tr.tau[k] * tr.zetas[k]
            assert np.array_equal(lhs, rhs)

    def test_time_monotone_and_lambda_monotone(self):
        g = path_graph(5)
        F = nl.make_functional("graph_tv", g)
        f = np.array([1.0, -0.5, 0.25, 0.7, -1.3])
        tr = nl.run_flow(F, f, prox_tol=1e-12)
        assert np.all(np.diff(tr.t) > 0)
        lam = tr.Lambda[~np.isnan(tr.Lambda)]
        assert np.max(np.diff(lam)) <= 1e-6 * (1 + lam[0]) + 100 * tr.prox_gap_total

    def test_default_tau_quadratic(self):
        g = path_graph(4)
        F = nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g))
        f = np.array([1.0, 0.0, -1.0, 0.5])
        tr = nl.run_flow(F, f, max_steps=5)
        spec = nl.dense_symmetric_eigs(nl.laplacian_matrix(g))
        assert tr.tau[1] == pytest.approx(0.1 / spec.eigenvalues[-1], rel=1e-8)

    def test_unconverged_step_keeps_the_step_it_solved(self, monkeypatch):
        """After four unconverged attempts the last solution is kept, and the
        trace records the step that solution used."""
        steps = []
        prox = flow_module.prox

        def unconverged(F, u, sigma, **kwargs):
            steps.append(sigma)
            return dataclasses.replace(prox(F, u, sigma, **kwargs), converged=False)

        monkeypatch.setattr(flow_module, "prox", unconverged)
        F = nl.make_functional("graph_tv", path_graph(6))
        f = np.random.default_rng(4).standard_normal(6)
        tr = nl.run_flow(F, f, tau=0.05, max_steps=3)
        assert steps == [0.05, 0.025, 0.0125, 0.00625] * 3
        assert np.array_equal(tr.tau[1:], [0.00625] * 3)
        assert tr.t[-1] == pytest.approx(3 * 0.00625)
        assert len(tr.warnings) == 12
        assert nl.decompose(tr)["reconstruction_residual"] <= 1e-14

    @pytest.mark.parametrize("F", [
        nl.make_functional("graph_tv", nl.build_grid_graph(
            nl.GridSpec(width=4, height=3, boundary_mode="dirichlet"))),
        nl.make_functional("dirichlet_p", path_graph(6), p=1.5),
        nl.make_functional("quadratic_form",
                           matrix=nl.laplacian_matrix(path_graph(6))),
        nl.make_functional("l1", n=6),
    ], ids=["tv_dirichlet", "dirichlet_p", "quadratic", "l1"])
    def test_iterates_stored_and_zetas_are_the_prox_subgradients(
            self, F, monkeypatch):
        """The trace stores u_0 = f, u_1, ...; zetas[k] derived from them is
        bit for bit the subgradient the prox of step k returned."""
        returned = []
        prox = flow_module.prox

        def recording(*args, **kwargs):
            sol = prox(*args, **kwargs)
            returned.append(sol.zeta)
            return sol

        monkeypatch.setattr(flow_module, "prox", recording)
        f = np.random.default_rng(6).standard_normal(F.dim)
        tr = nl.run_flow(F, f, max_steps=20)
        assert len(tr.us) == tr.n_steps + 1 == len(returned) + 1
        assert np.array_equal(tr.f, nl.core.clamp_boundary(F, f))
        assert tr.u_last is tr.us[-1]
        assert "zetas" not in vars(tr)  # derived on first use only
        assert not np.any(tr.zetas[0])
        for k in range(1, len(tr.us)):
            assert tr.zetas[k].tobytes() == returned[k - 1].tobytes()

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("f", [[2.0, 2.0, 2.0], [1.0, 0.0, -1.0]],
                             ids=["nullspace", "generic"])
    def test_nonpositive_tau_rejected(self, tau, f):
        F = nl.make_functional("graph_tv", path_graph(3))
        with pytest.raises(nl.errors.BadStep):
            nl.run_flow(F, np.array(f), tau=tau)

    @pytest.mark.parametrize("max_steps", [2.5, -3, 0])
    def test_max_steps_must_be_a_positive_integer(self, max_steps):
        # -3 once returned an empty trace, 2.5 a bare TypeError
        F = nl.make_functional("graph_tv", path_graph(3))
        with pytest.raises(nl.errors.BadParams):
            nl.run_flow(F, np.array([1.0, 0.0, -1.0]), max_steps=max_steps)

    def test_horizon_stop(self):
        g = path_graph(4)
        F = nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g))
        tr = nl.run_flow(F, np.array([1.0, 0.0, -1.0, 0.5]), tau=0.01,
                         time_horizon=0.05, max_steps=1000)
        assert tr.t[-1] >= 0.05
        assert len(tr.t) == 6


class TestDecompose:
    def test_reconstruction(self):
        g = path_graph(4)
        F = nl.make_functional("graph_tv", g)
        f = np.array([0.9, -0.1, 0.4, -0.6])
        tr = nl.run_flow(F, f, prox_tol=1e-12)
        dec = nl.decompose(tr)
        assert dec["reconstruction_residual"] <= 1e-10 + tr.prox_gap_total

    def test_eigenvector_bands_collinear(self):
        F = two_node_tv()
        f = np.array([1.0, -1.0])
        tr = nl.run_flow(F, f, tau=0.1, prox_tol=1e-13)
        dec = nl.decompose(tr)
        for band in dec["bands"]:
            if np.linalg.norm(band) > 0:
                cos = band @ f / (np.linalg.norm(band) * np.linalg.norm(f))
                assert cos == pytest.approx(1.0, abs=1e-12)

    def test_nullspace_input(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        tr = nl.run_flow(F, np.full(3, 1.5))
        dec = nl.decompose(tr)
        assert dec["bands"] == []
        assert np.allclose(dec["nullspace_part"], 1.5)


class TestExtinctionReport:
    def test_upper_bound_formula(self):
        F = two_node_tv()
        # dist_0 = 1 exactly: f = (1,-1)/sqrt(2)
        f = np.array([1.0, -1.0]) / math.sqrt(2.0)
        tr = nl.run_flow(F, f, tau=0.05, prox_tol=1e-13)
        rep = nl.extinction_report(tr, F, lambda1_estimate=2.0)
        assert rep["upper"] == pytest.approx(0.5)
        # p = 1.5: T <= d_0^(2-p) / ((2-p) lambda_1)
        F = nl.make_functional("dirichlet_p", path_graph(2), p=1.5)
        tr = nl.run_flow(F, f, tau=0.05, max_steps=3, prox_tol=1e-13)
        rep = nl.extinction_report(tr, F, lambda1_estimate=2.0)
        assert rep["upper"] == pytest.approx(tr.dist[0] ** 0.5 / (0.5 * 2.0),
                                             rel=1e-14)

    def test_ground_state_bounds_coincide(self):
        F = two_node_tv()
        f = np.array([1.0, -1.0])
        lam = math.sqrt(2.0)
        tr = nl.run_flow(F, f, tau=0.1, prox_tol=1e-13)
        rep = nl.extinction_report(tr, F, lambda1_estimate=lam)
        assert rep["upper"] == pytest.approx(tr.dist[0] / lam, rel=1e-12)
        assert rep["lower"] == pytest.approx(rep["upper"], rel=1e-12)
        assert rep["lower"] - 1e-10 <= rep["measured"] <= rep["upper"] + 0.1

    def test_p2_no_extinction(self):
        g = path_graph(3)
        F = nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g))
        tr = nl.run_flow(F, np.array([1.0, 0.0, -1.0]), tau=0.1, max_steps=20)
        rep = nl.extinction_report(tr, F, lambda1_estimate=1.0)
        assert rep["measured"] is None
        assert rep["upper"] is None
        assert rep["lower"] == 0.0

    def test_memory_linear_in_the_nodes(self):
        """The candidates of the p = 1 lower bound, the flow's iterates, are
        centred one at a time: the identity matrix of this 2,048-node grid
        alone would take 33.6 MB."""
        g = nl.build_grid_graph(nl.GridSpec(width=64, height=32,
                                            spacing=1 / 32))
        F = nl.make_functional("graph_tv", g)
        f = np.random.default_rng(5).standard_normal(g.n)
        tr = nl.run_flow(F, f, max_steps=2)
        tracemalloc.start()
        try:
            rep = nl.extinction_report(tr, F, lambda1_estimate=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["lower"] > 0.0
        assert peak < 4e6


    def test_path_lower_bound_within_one_step(self):
        # TV flow of the seed-0 Gaussian on a 64-node path at the default
        # step (0.091): its iterates pin ||f - u_inf||_* to within a step of
        # the extinction time T
        F = nl.make_functional("graph_tv",
                               nl.build_grid_graph(nl.GridSpec(width=64)))
        tr = nl.run_flow(F, np.random.default_rng(0).standard_normal(64))
        rep = nl.extinction_report(tr, F)
        T, tau = rep["measured"], tr.tau.max()
        assert tau == pytest.approx(0.091, abs=1e-3)
        assert T - tau <= rep["lower"] <= T

    @pytest.mark.parametrize("kind", ["graph_tv", "lipschitz_sup"])
    @pytest.mark.parametrize("spec", [
        nl.GridSpec(width=12),
        nl.GridSpec(width=12, boundary_mode="dirichlet"),
        nl.GridSpec(width=5, height=4),
        nl.GridSpec(width=5, height=4, boundary_mode="dirichlet"),
    ], ids=["path12", "path12_dirichlet", "grid5x4", "grid5x4_dirichlet"])
    def test_lower_bound_below_extinction_time(self, kind, spec):
        # <g, v>/J(v) <= ||g||_* <= T for every v; on these flows the
        # iterates reach at least 0.82 T (unit directions and Gaussian
        # draws at most 0.73 T)
        F = nl.make_functional(kind, nl.build_grid_graph(spec))
        f = np.random.default_rng(1).standard_normal(F.dim)
        tr = nl.run_flow(F, f, prox_tol=1e-12)
        rep = nl.extinction_report(tr, F)
        T = rep["measured"]
        assert 0.75 * T <= rep["lower"] <= T

    def test_draws_no_random_numbers(self, monkeypatch):
        F = nl.make_functional("graph_tv", path_graph(6))
        tr = nl.run_flow(F, np.array([1.0, -0.4, 0.3, 0.9, -1.2, 0.2]),
                         prox_tol=1e-12)

        def no_rng(*args, **kwargs):
            raise AssertionError("random numbers drawn")
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert nl.extinction_report(tr, F)["lower"] > 0.0
        nl.band_eigen_scores(tr, F)


def three_regime_slacks(tr, lam1):
    """The decay envelopes written per p-regime in powers of the distance
    (exponentials at p = 2): the reference for the slacks in Phi_p units."""
    p, t, dist, L = tr.degree, tr.t, tr.dist, tr.Lambda
    d0, d1, t1, L1 = dist[0], dist[1], t[1], L[1]
    if p < 2:
        out = {"upper": d0 ** (2 - p) - (2 - p) * lam1 * t - dist ** (2 - p),
               "lower": dist ** (2 - p) - (d1 ** (2 - p) - (2 - p) * L1 * (t - t1))}
    elif p == 2:
        out = {"upper": d0 ** 2 * np.exp(-2 * lam1 * t) - dist ** 2,
               "lower": dist ** 2 - d1 ** 2 * np.exp(-2 * L1 * (t - t1))}
    else:
        out = {"upper": 1 / (d0 ** (2 - p) + (p - 2) * lam1 * t) - dist ** (p - 2),
               "lower": dist ** (p - 2) - 1 / (d1 ** (2 - p) + (p - 2) * L1 * (t - t1))}
    if p < 2 and tr.extinction_index is not None:
        T = t[tr.extinction_index]
        out["improved_lower"] = dist ** (2 - p) - (2 - p) * lam1 * (T - t)
        out["improved_upper"] = (2 - p) * L * (T - t) - dist ** (2 - p)
    return out


class TestDecayEnvelopes:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_slacks_keep_the_signs_of_the_three_regimes(self, p):
        """Every slack in Phi_p units has the sign of the per-regime form, at
        an under- and an over-estimate of lambda_1; the p = 1 and p = 1.5
        flows reach extinction, and at p = 1 the two forms agree."""
        g = path_graph(6)
        if p == 1:
            F = nl.make_functional("graph_tv", g)
        elif p == 2:
            F = nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g))
        else:
            F = nl.make_functional("dirichlet_p", g, p=p)
        f = np.random.default_rng(3).standard_normal(6)
        tr = nl.run_flow(F, f, tau=0.05, max_steps=400, prox_tol=1e-12)
        assert (tr.extinction_index is not None) == (p < 2)
        for lam1 in (0.5 * nl.rayleigh(F, f), 2.0 * nl.rayleigh(F, f)):
            rep = nl.check_decay_envelopes(tr, F, lam1)
            ref = three_regime_slacks(tr, lam1)
            assert set(rep) == set(ref)
            for name, slack in ref.items():
                assert np.array_equal(np.sign(rep[name]["slack"]), np.sign(slack),
                                      equal_nan=True), name
                if p == 1:
                    np.testing.assert_allclose(
                        rep[name]["slack"], slack, rtol=0,
                        atol=1e-12 * np.nanmax(np.abs(slack)))

    def test_p2_upper_envelope(self):
        g = path_graph(4)
        L = nl.laplacian_matrix(g)
        F = nl.make_functional("quadratic_form", matrix=L)
        lam1 = nl.dense_symmetric_eigs(L).eigenvalues[1]
        rng = np.random.default_rng(7)
        tr = nl.run_flow(F, rng.standard_normal(4), tau=0.05, max_steps=100)
        rep = nl.check_decay_envelopes(tr, F, lam1)
        assert rep["upper"]["worst"] >= -1e-10
        assert rep["lower"]["worst"] >= -1e-8

    def test_p1_eigenvector_hits_improved_bounds(self):
        F = two_node_tv()
        f = np.array([1.0, -1.0])
        lam = math.sqrt(2.0)
        tr = nl.run_flow(F, f, tau=0.1, prox_tol=1e-13)
        rep = nl.check_decay_envelopes(tr, F, lam)
        for name in ("upper", "lower", "improved_lower", "improved_upper"):
            assert rep[name]["worst"] >= -1e-8, name
        # the improved bounds are tight for an eigenvector evolution
        assert rep["improved_lower"]["worst"] <= 1e-6
        assert rep["improved_upper"]["worst"] <= 1e-6

    def test_zero_lambda_trivial(self):
        g = path_graph(4)
        F = nl.make_functional("graph_tv", g)
        tr = nl.run_flow(F, np.array([1.0, -0.2, 0.3, 0.1]), prox_tol=1e-12)
        rep = nl.check_decay_envelopes(tr, F, 0.0)
        assert rep["upper"]["worst"] >= 0.0

    def test_p_greater_2_envelopes(self):
        g = path_graph(3)
        F = nl.make_functional("dirichlet_p", g, p=3.0)
        f = np.array([1.0, 0.0, -1.0])
        lam1 = 0.9 * nl.rayleigh(F, f)  # any under-estimate works for upper
        tr = nl.run_flow(F, f, tau=0.05, max_steps=40, prox_tol=1e-12)
        rep = nl.check_decay_envelopes(tr, F, lam1)
        assert rep["upper"]["worst"] >= -1e-8
        # negative control: a rate above the flow's own breaks the envelope
        rep = nl.check_decay_envelopes(tr, F, 1.5 * nl.rayleigh(F, f))
        assert rep["upper"]["worst"] < 0.0


class TestBandEigenScores:
    def test_l1_flow_bands_certified(self):
        F = nl.make_functional("l1", n=4)
        # magnitudes are multiples of tau so every iterate keeps an exact
        # sign pattern and each zeta is a certified eigen-direction
        f = np.array([0.4, -0.2, 0.8, -0.6])
        tr = nl.run_flow(F, f, tau=0.1, prox_tol=1e-13)
        scores = nl.band_eigen_scores(tr, F)
        for cert in scores["certificates"]:
            assert cert.max_residual <= 1e-8

    def test_eigenvector_orthogonality_zero(self):
        F = two_node_tv()
        tr = nl.run_flow(F, np.array([1.0, -1.0]), tau=0.1, prox_tol=1e-13)
        scores = nl.band_eigen_scores(tr, F)
        assert scores["orthogonality_residual"] <= 1e-10

    def test_degree2_unsupported(self):
        F = nl.make_functional("quadratic_form", matrix=np.eye(2))
        tr = nl.run_flow(F, np.array([1.0, 0.0]), tau=0.1, max_steps=3)
        with pytest.raises(nl.errors.UnsupportedFunctional):
            nl.band_eigen_scores(tr, F)

    def test_orthogonality_over_every_triple(self):
        """More than 64 bands: the residual is the maximum over all triples
        r <= s <= t.  A subsample of 64 bands misses the worst one here."""
        g = path_graph(12, measure=np.linspace(0.5, 1.5, 12))
        F = nl.make_functional("graph_tv", g)
        f = np.random.default_rng(2).standard_normal(12)
        tr = nl.run_flow(F, f, tau=0.03 * nl.prox_nonvanishing_bound(F, f),
                         prox_tol=1e-12)
        Z = np.array(tr.zetas[1:])
        assert len(Z) > 64
        brute = 0.0
        for t in range(len(Z)):
            for s in range(t + 1):
                # every r <= s at once
                vals = ((Z[s] - Z[:s + 1]) * F.measure) @ Z[t]
                brute = max(brute, float(np.max(np.abs(vals))))
        ortho = nl.band_eigen_scores(tr, F)["orthogonality_residual"]
        assert ortho == pytest.approx(brute, rel=1e-12)


class TestProfileConvergence:
    def test_eigenvector_profile_constant(self):
        F = two_node_tv()
        f = np.array([1.0, -1.0])
        tr = nl.run_flow(F, f, tau=0.1, prox_tol=1e-13)
        pc = nl.profile_convergence(tr)
        w_expected = f / nl.norm(f, F.measure)
        assert np.allclose(pc["w_last"], w_expected, atol=1e-9)
        res = pc["profile_residual_history"]
        assert np.nanmax(res[1:]) <= 1e-9

    def test_w_last_is_the_stored_iterate(self):
        # a TV flow to extinction: the profile is taken before the last step
        F = nl.make_functional("graph_tv", path_graph(5))
        tr = nl.run_flow(F, np.array([1.0, -0.5, 0.25, 0.7, -1.3]),
                         prox_tol=1e-12)
        assert tr.extinction_index == tr.n_steps
        idx = int(np.flatnonzero(~np.isnan(tr.Lambda))[-1])
        assert 0 < idx < tr.n_steps
        pc = nl.profile_convergence(tr)
        assert np.array_equal(pc["w_last"],
                              (tr.us[idx] - tr.u_infinity) / tr.dist[idx])

    def test_p2_profile_matches_ground_eigenvector(self):
        g = path_graph(6)
        L = nl.laplacian_matrix(g)
        F = nl.make_functional("quadratic_form", matrix=L)
        spec = nl.dense_symmetric_eigs(L)
        rng = np.random.default_rng(8)
        f = rng.standard_normal(6)
        assert abs(f @ spec.eigenvectors[:, 1]) > 1e-3
        tr = nl.run_flow(F, f, tau=0.05, max_steps=2000, time_horizon=40.0)
        pc = nl.profile_convergence(tr)
        v1 = spec.eigenvectors[:, 1]
        cos = abs(pc["w_last"] @ v1) / np.linalg.norm(v1)
        assert cos >= 0.999
