import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nlspec as nl
from nlspec import errors

from graphs import path_graph


def record_prox_calls(monkeypatch, name="prox"):
    """Patch nlspec.prox.<name> (`prox`, or the `_solve` that it and the
    certificate call) to record (args, kwargs, solution) per call."""
    prox_module = importlib.import_module("nlspec.prox")
    fn, calls = getattr(prox_module, name), []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs, fn(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(prox_module, name, recorded)
    return calls


# one handle per catalog kind on 5 nodes, lipschitz_sup on a Dirichlet path,
# whose ground state is the distance to the ends
CATALOG5 = {
    "graph_tv": nl.make_functional("graph_tv", path_graph(5)),
    "dirichlet_1.5": nl.make_functional("dirichlet_p", path_graph(5), p=1.5),
    "dirichlet_3": nl.make_functional("dirichlet_p", path_graph(5), p=3.0),
    "lipschitz_sup": nl.make_functional("lipschitz_sup", nl.build_grid_graph(
        nl.GridSpec(width=3, boundary_mode="dirichlet"))),
    "l1": nl.make_functional("l1", node_measure=[1.0, 0.5, 2.0, 1.0, 0.25]),
    "linf": nl.make_functional("linf", node_measure=[1.0, 0.5, 2.0, 1.0, 0.25]),
    "quadratic_form": nl.make_functional(
        "quadratic_form", matrix=nl.laplacian_matrix(path_graph(5))),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CATALOG5)), st.sampled_from(["constant", "adaptive"]),
       st.lists(st.floats(-3, 3), min_size=5, max_size=5))
def test_residual_within_its_bound_property(kind, rule, start):
    """prox is firmly nonexpansive with prox(0) = 0, so <u, w>_m >= mu^2 and
    every row's residual mu - <u, w>_m lies in [0, mu - mu^2]: the bound the
    first solve's tolerance stands on, held by the loose solves too."""
    F = CATALOG5[kind]
    try:
        pair = nl.power_method(F, np.array(start), rule=rule, tol=1e-12,
                               max_iter=200)
    except (errors.NullspaceStart, errors.DegenerateEnergy):
        assume(False)
    for row in pair.history:
        mu = row["mu"]
        assert 0.0 <= row["residual"] <= mu - mu * mu + 1e-12, row


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
        # converged or not, the fixed-point residual reuses the last prox call
        calls = record_prox_calls(monkeypatch)
        F = nl.make_functional("graph_tv", nl.build_grid_graph(nl.GridSpec(width=5)))
        start = np.array([1.0, 0.2, -0.5, 0.3, -1.0])
        for max_iter in (2000, 2):
            calls.clear()
            pair = nl.power_method(F, start, max_iter=max_iter)
            assert pair.converged == (max_iter == 2000)
            assert len(calls) == len(pair.history)
            (_, w, sigma), _, sol = calls[-1]
            assert np.array_equal(w, pair.w) and sigma == pair.sigma
            assert pair.mu == nl.norm(sol.u, F.measure) == pair.history[-1]["mu"]
            assert pair.residual == nl.core.norm(sol.u - pair.mu * pair.w, F.measure)
            assert pair.history[-1]["prox_iterations"] == sol.iterations

    @pytest.mark.parametrize("kind, p", [("graph_tv", None), ("dirichlet_p", 1.5)])
    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_unconverged_pair_describes_its_last_prox_call(self, kind, p,
                                                           max_iter, monkeypatch):
        # w, mu, sigma, lam, the residual and history[-1] once mixed the last
        # solved iterate with the next, unsolved one
        calls = record_prox_calls(monkeypatch)
        F = nl.make_functional(kind, nl.build_grid_graph(nl.GridSpec(width=5)), p=p)
        pair = nl.power_method(F, np.array([1.0, 0.2, -0.5, 0.3, -1.0]),
                               max_iter=max_iter)
        assert not pair.converged
        assert len(calls) == len(pair.history) == max_iter
        (_, w, sigma), _, sol = calls[-1]
        assert np.array_equal(w, pair.w) and sigma == pair.sigma
        v = sol.u
        mu = nl.norm(v, F.measure)
        assert pair.mu == mu
        assert pair.lam == pytest.approx(
            (1.0 - mu) / (pair.sigma * mu ** (F.degree - 1.0)), rel=1e-14)
        assert pair.residual == nl.norm(v - mu * pair.w, F.measure)
        last = pair.history[-1]
        assert (last["mu"], last["sigma"]) == (pair.mu, pair.sigma)
        assert last["J"] == nl.evaluate(F, pair.w)
        assert last["residual"] == max(mu - nl.inner(v, pair.w, F.measure), 0.0)

    @pytest.mark.parametrize("u, message", [
        (np.zeros(5), "prox iterate vanished"),
        (np.full(5, 0.3), "iterate collapsed into the nullspace"),
    ], ids=["zero", "constant"])
    def test_degenerate_prox_iterate_raises(self, u, message, monkeypatch):
        prox_module = importlib.import_module("nlspec.prox")
        prox = prox_module.prox
        monkeypatch.setattr(prox_module, "prox", lambda *a, **k: dataclasses.replace(
            prox(*a, **k), u=u.copy()))
        F = nl.make_functional("graph_tv", nl.build_grid_graph(nl.GridSpec(width=5)))
        with pytest.raises(errors.DegenerateEnergy, match=message):
            nl.power_method(F, np.array([1.0, 0.2, -0.5, 0.3, -1.0]))

    def test_nullspace_test_is_relative_to_the_start(self):
        # an absolute floor once rejected s = 1e-13 as a nullspace start
        F = nl.make_functional("graph_tv", path_graph(64))
        f = np.random.default_rng(0).standard_normal(64)
        lam = nl.power_method(F, f).lam
        for s in (1e-13, 1e-100):
            assert nl.power_method(F, s * f).lam == pytest.approx(lam, rel=1e-12)
        for s in (1e-100, 1.0, 1e100):
            with pytest.raises(errors.NullspaceStart):
                nl.power_method(F, s * (1.0 + 1e-15 * f))

    def test_unconverged_prox_solve_is_reported(self, monkeypatch):
        """A run whose residual reaches tol is still unconverged when a prox
        solve of the run was."""
        prox_module = importlib.import_module("nlspec.prox")
        prox = prox_module.prox
        F = nl.make_functional("graph_tv", nl.build_grid_graph(nl.GridSpec(width=5)))
        start = np.array([1.0, 0.2, -0.5, 0.3, -1.0])
        assert nl.power_method(F, start).converged

        def unconverged(*args, **kwargs):
            return dataclasses.replace(prox(*args, **kwargs), converged=False)
        monkeypatch.setattr(prox_module, "prox", unconverged)
        pair = nl.power_method(F, start)
        assert pair.history[-1]["residual"] <= 1e-13
        assert not pair.converged

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
        # residual below tol from k=0, but the first solve runs loose, so
        # two exact solves follow it: the last and the one that made its w
        exact = importlib.import_module("nlspec.power").PROX_TOL
        assert [h["prox_tol"] > exact for h in pair.history] == [True, False, False]
        assert all(h["residual"] <= 1e-12 for h in pair.history)
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

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        """-1 and NaN ran every start to max_iter and returned converged=False."""
        F = nl.make_functional("graph_tv", path_graph(4))
        for call in (lambda: nl.power_method(F, np.arange(4.0), tol=tol),
                     lambda: nl.ground_state_search(F, restarts=2, tol=tol)):
            with pytest.raises(errors.BadParams, match="finite and positive"):
                call()

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

    def test_history_reported(self):
        g = path_graph(5)
        F = nl.make_functional("graph_tv", g)
        pair = nl.power_method(F, np.array([1.0, 0.0, -1.0, 0.5, 0.2]),
                               tol=1e-12, max_iter=300)
        assert len(pair.history) >= 1
        assert all(row.keys() == {"J", "residual", "sigma", "mu", "w_norm",
                                  "prox_tol", "prox_iterations"}
                   for row in pair.history)

    def test_prox_tolerance_schedule(self, monkeypatch):
        # criterion 3's graph and first start: the early solves run loose,
        # the first at the residual's bound over 100, the final two at
        # PROX_TOL
        edgecalc = importlib.import_module("nlspec.edgecalc")
        power_module = importlib.import_module("nlspec.power")
        project = edgecalc.project_weighted_l1
        certificate = power_module.eigen_certificate
        kernel_its = []  # one weighted-l1 projection per dual kernel iteration

        def counted(*args, **kwargs):
            kernel_its.append(1)
            return project(*args, **kwargs)

        def uncounted(*args, **kwargs):  # the certificate's own solve
            n = len(kernel_its)
            out = certificate(*args, **kwargs)
            del kernel_its[n:]
            return out

        monkeypatch.setattr(edgecalc, "project_weighted_l1", counted)
        monkeypatch.setattr(power_module, "eigen_certificate", uncounted)
        g = nl.build_grid_graph(nl.GridSpec(width=33, boundary_mode="dirichlet"))
        F = nl.make_functional("lipschitz_sup", g)
        g0 = np.random.default_rng(33).standard_normal(F.dim)
        pair = nl.power_method(F, np.ones(F.dim) + 0.01 * g0, tol=1e-11,
                               max_iter=4000)
        assert pair.converged
        tols = [h["prox_tol"] for h in pair.history]
        exact = power_module.PROX_TOL
        assert tols[0] == power_module.RESID_BOUND / 100.0 > exact
        assert tols[-2] == tols[-1] == exact
        assert sum(h["prox_iterations"] for h in pair.history) == len(kernel_its)

    @pytest.mark.parametrize("n", [4, 33])
    @pytest.mark.parametrize("kind", ["lipschitz_sup", "graph_tv"])
    def test_loose_solves_never_raise_J(self, kind, n):
        # without the redo at PROX_TOL, loose solves raise J here by up to
        # 3e-4 on lipschitz_sup
        F = nl.make_functional(kind, path_graph(n))
        for rule in ("constant", "adaptive"):
            for seed in range(4):
                start = np.random.default_rng(seed).standard_normal(n)
                pair = nl.power_method(F, start, rule=rule, tol=1e-12,
                                       max_iter=300)
                Js = [h["J"] for h in pair.history]
                assert max(np.diff(Js)) <= 1e-8 * (1.0 + Js[0])


def search_starts(F, restarts, seed):
    """The starts of ground_state_search(F, restarts, seed)."""
    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(F.dim) for _ in range(restarts)]
    starts[0] = np.ones(F.dim) + 0.01 * starts[0]
    return starts


def criterion3_chain(rule, warm=True):
    """Criterion 3's three power chains on the 33-node Dirichlet path, the
    starts of ground_state_search(seed=33), with each prox solve started
    from the previous solve's dual flow or, with warm=False, from zero."""
    prox_module = importlib.import_module("nlspec.prox")
    prox = prox_module.prox
    F = nl.make_functional("lipschitz_sup", nl.build_grid_graph(
        nl.GridSpec(width=33, boundary_mode="dirichlet")))
    starts = search_starts(F, 3, 33)
    with pytest.MonkeyPatch.context() as mp:
        if not warm:
            mp.setattr(prox_module, "prox",
                       lambda *a, psi0=None, **k: prox(*a, **k))
        return [nl.power_method(F, s, rule=rule, tol=1e-11, max_iter=4000)
                for s in starts]


class TestDualWarmStart:
    @pytest.mark.parametrize("rule", ["constant", "adaptive"])
    def test_warm_chain_keeps_lambda_and_saves_iterations(self, rule):
        """The same lambda to 1e-12, and fewer prox iterations in every
        chain.  Under the constant rule the last solve, whose input is the
        output of an exact solve of almost the same w, certifies within 30
        iterations (cold: 145-230), and a chain takes at most 3/4 of the
        cold iterations.  The adaptive rule moves w further per step, so its
        last solves take 45-95 (cold: 215-225)."""
        power_module = importlib.import_module("nlspec.power")
        warm, cold = criterion3_chain(rule), criterion3_chain(rule, warm=False)
        total = [sum(h["prox_iterations"] for h in p.history) for p in warm]
        cold_total = [sum(h["prox_iterations"] for h in p.history) for p in cold]
        for a, b, its, cold_its in zip(warm, cold, total, cold_total):
            assert a.converged and b.converged
            assert a.lam == pytest.approx(b.lam, rel=1e-12, abs=0.0)
            assert a.history[-1]["prox_tol"] == power_module.PROX_TOL
            last = a.history[-1]["prox_iterations"]
            assert its < cold_its and last < b.history[-1]["prox_iterations"]
            if rule == "constant":
                assert last <= 30
        if rule == "constant":
            assert sum(total) <= 0.75 * sum(cold_total)

    @pytest.mark.parametrize("rule", ["constant", "adaptive"])
    def test_start_is_the_previous_flow_scaled_to_the_step(self, rule,
                                                           monkeypatch):
        calls = record_prox_calls(monkeypatch)
        F = nl.make_functional("lipschitz_sup", path_graph(12))
        start = np.random.default_rng(5).standard_normal(12)
        pair = nl.power_method(F, start, rule=rule, tol=1e-12)
        assert pair.converged and len(calls) > 3
        assert calls[0][1]["psi0"] is None
        ratios = []
        for (prev_args, _, prev), (args, kwargs, _) in zip(calls, calls[1:]):
            ratios.append(args[2] / prev_args[2])
            assert np.array_equal(kwargs["psi0"], prev.psi * ratios[-1])
        assert (max(ratios) == min(ratios) == 1.0) == (rule == "constant")

    @pytest.mark.parametrize("kind, p", [
        ("lipschitz_sup", None), ("graph_tv", None), ("dirichlet_p", 1.5),
        ("dirichlet_p", 3.0), ("quadratic_form", None)])
    def test_certificate_starts_from_the_last_flow_over_one_minus_mu(
            self, kind, p, monkeypatch):
        """The certificate solves prox_{J/lam}(2w) = w, so its flow has
        div = w where the last solve's had (1 - mu)*w.  Off the dual kernel
        there is no flow, and the certificate starts from nothing."""
        calls = record_prox_calls(monkeypatch, "_solve")
        g = path_graph(8)
        F = (nl.make_functional(kind, matrix=nl.laplacian_matrix(g))
             if kind == "quadratic_form" else nl.make_functional(kind, g, p=p))
        pair = nl.power_method(F, np.random.default_rng(1).standard_normal(8))
        assert pair.converged and pair.mu < 1.0
        (_, _, last), (args, kwargs, _) = calls[-2:]
        # the certificate's input, and the last solve's
        assert np.allclose(args[1], 2.0 * pair.w, rtol=0.0, atol=1e-14)
        assert pair.residual == nl.norm(last[0] - pair.mu * pair.w, F.measure)
        psi = last[4]
        assert (psi is None) == (kind == "quadratic_form" or p == 3.0)
        if psi is None:
            assert kwargs["psi0"] is None
        else:
            assert np.array_equal(kwargs["psi0"], psi / (1.0 - pair.mu))

    @pytest.mark.parametrize("case", ["criterion3", "p1.5"])
    def test_warm_certificate_keeps_the_cold_verdict(self, case, monkeypatch):
        """Each chain's certificate started from the last flow reads what
        the one started from zero reads, within the two solves' error bars:
        the prox objective is 1-strongly convex, so a solve that stops at
        `gap` returns u within sqrt(2*gap) of the exact prox, and its
        subgradient_gap ||u - w||/sigma is within sqrt(2*gap)/sigma of the
        exact one.  On criterion 3's graph the warm solve takes a fifth of
        the cold one's 180 iterations or fewer."""
        calls = record_prox_calls(monkeypatch, "_solve")
        if case == "criterion3":
            F = nl.make_functional("lipschitz_sup", nl.build_grid_graph(
                nl.GridSpec(width=33, boundary_mode="dirichlet")))
            starts, tol, max_iter = search_starts(F, 3, 33), 1e-11, 4000
        else:
            F = nl.make_functional("dirichlet_p", nl.build_grid_graph(nl.GridSpec(
                width=6, height=5, boundary_mode="dirichlet")), p=1.5)
            starts, tol, max_iter = search_starts(F, 3, 0), 1e-13, 2000
        for start in starts:
            pair = nl.power_method(F, start, tol=tol, max_iter=max_iter)
            assert pair.converged
            args, kwargs, (u, warm_its, warm_gap, ok, _) = calls[-1]
            assert ok and kwargs["psi0"] is not None
            sigma = args[2]
            warm = pair.certificate
            assert warm.subgradient_gap == nl.norm(u - pair.w, F.measure) / sigma
            cold = nl.eigen_certificate(F, pair.w, pair.lam)
            _, kwargs, (_, cold_its, cold_gap, ok, _) = calls[-1]
            assert ok and kwargs["psi0"] is None
            bar = (math.sqrt(2.0 * abs(warm_gap))
                   + math.sqrt(2.0 * abs(cold_gap))) / sigma
            assert abs(warm.subgradient_gap - cold.subgradient_gap) <= bar
            assert warm.euler_residual == cold.euler_residual
            for bound in (1e-12, 1e-5):
                assert (warm.max_residual <= bound) == (cold.max_residual <= bound)
            if case == "criterion3":
                assert warm.max_residual <= 1e-12
                assert 5 * warm_its <= cold_its

    def test_restarts_and_flows_start_cold(self, monkeypatch):
        prox_module = importlib.import_module("nlspec.prox")
        kernel, starts = prox_module._prox_dual_fista, []

        def recorded(*args):
            starts.append(args[6] if len(args) > 6 else None)
            return kernel(*args)

        monkeypatch.setattr(prox_module, "_prox_dual_fista", recorded)
        F = nl.make_functional("graph_tv", path_graph(6))
        out = nl.ground_state_search(F, restarts=2, seed=3)
        # per chain: a cold first solve, then warm ones and a warm
        # certificate, so the second chain's first solve follows a
        # certificate
        cold = [k for k, psi0 in enumerate(starts) if psi0 is None]
        assert len(cold) == 2 and cold[0] == 0
        assert starts[cold[1] - 1] is not None and starts[-1] is not None
        assert sum(len(p.history) for p in out["all"]) == len(starts) - 2
        starts.clear()
        nl.run_flow(F, np.arange(6.0), tau=0.1, max_steps=5)
        nl.dual_ball_membership(F, np.array([0.5, -0.5, 0.0, 0.2, -0.2, 0.0]))
        assert starts and all(psi0 is None for psi0 in starts)


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

    @pytest.mark.parametrize("kind, width, height, p, seed", [
        ("lipschitz_sup", 12, 12, None, 2),
        ("lipschitz_sup", 12, 12, None, 3),
        ("dirichlet_p", 16, 16, 3.0, 0),
        ("dirichlet_p", 33, 1, 3.0, 0),
    ], ids=["lipschitz_12x12_seed2", "lipschitz_12x12_seed3", "p3_16x16_seed0",
            "p3_path33_seed0"])
    def test_default_search_certifies_every_pair(self, kind, width, height, p,
                                                 seed):
        """At its defaults every pair is converged, certified and has lambda
        at p*J(w).  Under the constant rule the 12x12 seed-2 search returned
        a pair flagged converged with a certificate of 8.7e-9, the 16x16
        search pairs with lambda 2.6e-5 off p*J(w), and the path search two
        pairs unconverged after 2,000 rows."""
        g = nl.build_grid_graph(nl.GridSpec(width=width, height=height,
                                            boundary_mode="dirichlet"))
        F = nl.make_functional(kind, g, p=p)
        out = nl.ground_state_search(F, restarts=3, seed=seed)
        assert len(out["all"]) == 3
        for pair in out["all"]:
            assert pair.converged
            assert pair.certificate.max_residual <= 1e-9
            assert abs(pair.lam - pair.rayleigh) <= 1e-7 * pair.rayleigh

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

    def test_failed_start_is_recorded_and_a_bug_propagates(self, monkeypatch):
        prox_module = importlib.import_module("nlspec.prox")
        prox = prox_module.prox

        def first_call_raises(exc):
            pending = [exc]

            def wrapped(*args, **kwargs):
                if pending:
                    raise pending.pop()
                return prox(*args, **kwargs)

            monkeypatch.setattr(prox_module, "prox", wrapped)

        F = nl.make_functional("graph_tv", path_graph(5))
        first_call_raises(errors.DegenerateEnergy("vanished"))
        out = nl.ground_state_search(F, restarts=2, seed=3)
        assert [idx for idx, _ in out["failures"]] == [0]
        assert len(out["all"]) == 1
        first_call_raises(TypeError("bug"))
        with pytest.raises(TypeError, match="bug"):
            nl.ground_state_search(F, restarts=2, seed=3)

    def test_every_start_failing_raises_the_first_error(self, monkeypatch):
        power_module = importlib.import_module("nlspec.power")
        calls = []

        def always_raises(*args, **kwargs):
            calls.append(None)
            raise errors.DegenerateEnergy(f"start {len(calls) - 1} vanished")

        monkeypatch.setattr(power_module, "power_method", always_raises)
        F = nl.make_functional("graph_tv", path_graph(5))
        with pytest.raises(errors.DegenerateEnergy, match="^start 0 vanished$"):
            nl.ground_state_search(F, restarts=3, seed=3)
        assert len(calls) == 3

    def test_restarts_validation(self):
        F = nl.make_functional("l1", n=2)
        with pytest.raises(errors.BadParams):
            nl.ground_state_search(F, restarts=0)

    @pytest.mark.parametrize("call", [
        lambda F: nl.power_method(F, np.array([1.0, 0.0]), max_iter=2.5),
        lambda F: nl.power_method(F, np.array([1.0, 0.0]), max_iter="3"),
        lambda F: nl.ground_state_search(F, restarts=2.5),
        lambda F: nl.ground_state_search(F, max_iter=2.5),
        lambda F: nl.power_method(F, np.array([1.0, 0.0]), max_iter=True),
        lambda F: nl.ground_state_search(F, restarts=True),
    ], ids=["power_max_iter", "power_max_iter_str", "restarts",
            "search_max_iter", "power_max_iter_bool", "restarts_bool"])
    def test_counts_must_be_integers(self, call):
        # a fraction once ended in a bare TypeError from range(), and True
        # ran once
        with pytest.raises(errors.BadParams):
            call(nl.make_functional("l1", n=2))
