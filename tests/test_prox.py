import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlspec as nl
from nlspec import edgecalc, errors

from graphs import path_graph

prox_module = importlib.import_module("nlspec.prox")


def catalog3():
    g = path_graph(3)
    m = np.array([1.0, 0.5, 2.0])
    return {
        "graph_tv": nl.make_functional("graph_tv", g),
        "dirichlet_1.5": nl.make_functional("dirichlet_p", g, p=1.5),
        "dirichlet_3": nl.make_functional("dirichlet_p", g, p=3.0),
        "lipschitz_sup": nl.make_functional("lipschitz_sup", g),
        "l1": nl.make_functional("l1", node_measure=m),
        "linf": nl.make_functional("linf", node_measure=m),
        "quadratic_form": nl.make_functional(
            "quadratic_form", matrix=nl.laplacian_matrix(g)),
    }


class TestProxExamples:
    def test_l1_soft_threshold(self):
        F = nl.make_functional("l1", n=1)
        sol = nl.prox(F, [1.0], 0.4)
        assert sol.u == pytest.approx([0.6])
        assert sol.zeta == pytest.approx([1.0])
        assert sol.converged

    def test_zero_input_fixed(self):
        for F in catalog3().values():
            sol = nl.prox(F, np.zeros(F.dim), 0.7, tol=1e-12)
            assert np.max(np.abs(sol.u)) <= 1e-9

    def test_quadratic_eigenvector_shrink(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F = nl.make_functional("quadratic_form", matrix=L)
        sol = nl.prox(F, [1.0, -1.0], 0.5)
        assert np.allclose(sol.u, [0.5, -0.5], atol=1e-12)

    def test_bad_step_raises(self):
        F = nl.make_functional("l1", n=1)
        with pytest.raises(errors.BadStep):
            nl.prox(F, [1.0], 0.0)
        with pytest.raises(errors.BadStep):
            nl.prox(F, [1.0], 0.5, tol=0.0)

    def test_zeta_identity_exact(self):
        rng = np.random.default_rng(2)
        for F in catalog3().values():
            f = nl.core.clamp_boundary(F, rng.standard_normal(F.dim))
            sol = nl.prox(F, f, 0.3, tol=1e-12)
            assert np.array_equal(sol.zeta * 0.3 + sol.u, f)


class TestBruteForceOracle:
    def test_reproduces_soft_threshold(self):
        F = nl.make_functional("l1", n=1)
        u = nl.brute_force_prox(F, np.array([1.0]), 0.4)
        assert u == pytest.approx([0.6], abs=1e-4)

    def test_matches_prox_on_tv_instances(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = rng.uniform(-1, 1, 3)
            sigma = rng.uniform(0.1, 0.8)
            u = nl.prox(F, f, sigma, tol=1e-12).u
            ub = nl.brute_force_prox(F, f, sigma)
            assert np.max(np.abs(u - ub)) <= 1e-3

    def test_small_sigma_limit(self):
        g = path_graph(2)
        F = nl.make_functional("graph_tv", g)
        f = np.array([0.3, -0.4])
        u = nl.brute_force_prox(F, f, 1e-8)
        assert np.max(np.abs(u - f)) <= 1e-6

    def test_dimension_guard(self):
        F = nl.make_functional("l1", n=5)
        with pytest.raises(errors.DimensionTooLarge):
            nl.brute_force_prox(F, np.zeros(5), 0.1)

    def test_searches_free_nodes_only(self):
        """The limit of 4 counts the nodes a Dirichlet boundary leaves free."""
        g = nl.build_grid_graph(nl.GridSpec(width=4, boundary_mode="dirichlet"))
        F = nl.make_functional("graph_tv", g)
        f = nl.core.clamp_boundary(F, np.random.default_rng(4).uniform(-1, 1, g.n))
        ub = nl.brute_force_prox(F, f, 0.3)
        assert g.n == 6 and ub[0] == 0.0 and ub[-1] == 0.0
        assert np.max(np.abs(nl.prox(F, f, 0.3, tol=1e-12).u - ub)) <= 1e-3
        g = nl.build_grid_graph(nl.GridSpec(width=5, boundary_mode="dirichlet"))
        with pytest.raises(errors.DimensionTooLarge):
            nl.brute_force_prox(nl.make_functional("graph_tv", g), np.zeros(7), 0.1)


class TestNonvanishingBound:
    def test_l1_unit(self):
        F = nl.make_functional("l1", n=1)
        assert nl.prox_nonvanishing_bound(F, [1.0]) == pytest.approx(1.0)
        assert nl.prox(F, [1.0], 0.9).u == pytest.approx([0.1])
        assert nl.prox(F, [1.0], 1.1).u == pytest.approx([0.0])

    def test_scaling_law(self):
        g = path_graph(3)
        for kind, p in (("graph_tv", 1.0), ("dirichlet_p", 3.0)):
            F = nl.make_functional(kind, g, p=p) if kind == "dirichlet_p" \
                else nl.make_functional(kind, g)
            f = np.array([1.0, -0.5, 0.25])
            b1 = nl.prox_nonvanishing_bound(F, f)
            b2 = nl.prox_nonvanishing_bound(F, 2.0 * f)
            assert b2 == pytest.approx(2.0 ** (2.0 - F.degree) * b1, rel=1e-10)

    def test_nullspace_raises(self):
        g = path_graph(3)
        F = nl.make_functional("graph_tv", g)
        with pytest.raises(errors.NullspaceElement):
            nl.prox_nonvanishing_bound(F, np.ones(3))


class TestProxProperties:
    def test_optimality_certificate(self):
        rng = np.random.default_rng(4)
        for name, F in catalog3().items():
            for _ in range(5):
                f = rng.standard_normal(F.dim)
                sol = nl.prox(F, f, 0.5, tol=1e-12)
                er = nl.euler_residual(F, sol.u, sol.zeta)
                assert er <= 1e-6 * (1 + nl.evaluate(F, sol.u)), name

    def test_mass_conservation(self):
        rng = np.random.default_rng(5)
        for name, F in catalog3().items():
            f = rng.standard_normal(F.dim)
            u = nl.prox(F, f, 0.4, tol=1e-12).u
            dev = nl.norm(nl.project_nullspace(F, u)
                          - nl.project_nullspace(F, f), F.measure)
            assert dev <= 1e-10, name

    def test_continuity_in_sigma(self):
        rng = np.random.default_rng(6)
        for name, F in catalog3().items():
            f = rng.standard_normal(F.dim)
            target = nl.prox(F, f, 0.5, tol=1e-12).u
            prev = None
            for k in (1.5, 1.1, 1.01, 1.001):
                u = nl.prox(F, f, 0.5 * k, tol=1e-12).u
                dev = nl.norm(u - target, F.measure)
                if prev is not None:
                    assert dev <= prev + 1e-7, name
                prev = dev
            assert prev <= 1e-2, name


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.floats(0.05, 1.5))
def test_nonexpansive_property(a, b, sigma):
    g = path_graph(3)
    F = nl.make_functional("graph_tv", g)
    fa, fb = np.array(a), np.array(b)
    ua = nl.prox(F, fa, sigma, tol=1e-11).u
    ub = nl.prox(F, fb, sigma, tol=1e-11).u
    assert nl.norm(ua - ub, F.measure) <= nl.norm(fa - fb, F.measure) + 1e-5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=2), st.floats(0.05, 2.0))
def test_l1_prox_closed_form_property(vals, sigma):
    F = nl.make_functional("l1", n=2)
    f = np.array(vals)
    u = nl.prox(F, f, sigma).u
    expected = np.sign(f) * np.maximum(np.abs(f) - sigma, 0.0)
    assert np.allclose(u, expected)


class TestMaxIter:
    @pytest.mark.parametrize("max_iter", [-1, 0, 2.5])
    @pytest.mark.parametrize("kind, p", [("graph_tv", None),
                                         ("dirichlet_p", 3.0)],
                             ids=["dual", "lbfgs"])
    def test_rejects_non_positive_or_fractional(self, kind, p, max_iter):
        # unchecked, the dual loop's range() raises a bare TypeError at 2.5
        # and leaves its counter unbound at max_iter <= 0, and L-BFGS ignores
        # max_iter <= 0
        F = nl.make_functional(kind, path_graph(4), p=p)
        with pytest.raises(errors.BadParams):
            nl.prox(F, np.arange(4.0), 0.1, max_iter=max_iter)

    def test_accepts_numpy_integers(self):
        F = nl.make_functional("graph_tv", path_graph(4))
        assert nl.prox(F, np.arange(4.0), 0.1, max_iter=np.int64(500)).converged

    @pytest.mark.parametrize("kind", ["graph_tv", "lipschitz_sup"])
    def test_spent_budget_returns_the_best_unconverged_iterate(self, kind):
        """On a 16x16 grid at sigma = 0.5 the dual kernel needs 120
        (graph_tv) and 40 (lipschitz_sup) iterations.  Stopped earlier it
        reports the budget and converged=False; its gap is the best over
        the checks it made, and a larger budget makes a superset of the
        same checks, so the gap cannot rise."""
        F = nl.make_functional(kind, nl.build_grid_graph(nl.GridSpec(16, 16)))
        f = np.random.default_rng(0).standard_normal(F.dim)
        for max_iter in (7, 12):
            sol = nl.prox(F, f, 0.5, max_iter=max_iter)
            assert not sol.converged and sol.iterations == max_iter
        gaps = [nl.prox(F, f, 0.5, max_iter=k).gap for k in (5, 10, 20)]
        assert gaps[0] >= gaps[1] >= gaps[2] > 0.0


class TestDirichletBoundaryClamping:
    def test_boundary_zeroed(self):
        g = nl.build_grid_graph(nl.GridSpec(width=3, boundary_mode="dirichlet"))
        F = nl.make_functional("graph_tv", g)
        f = np.array([5.0, 1.0, 2.0, 1.0, -5.0])
        sol = nl.prox(F, f, 0.2, tol=1e-12)
        assert sol.u[0] == 0.0 and sol.u[4] == 0.0
        assert sol.zeta[0] == 0.0 and sol.zeta[4] == 0.0


class TestRestartedDualFista:
    @pytest.mark.parametrize("kind", ["graph_tv", "lipschitz_sup"])
    def test_converges_on_128_grid(self, kind):
        g = nl.build_grid_graph(nl.GridSpec(width=128, height=128,
                                            spacing=1 / 128))
        F = nl.make_functional(kind, g)
        f = np.random.default_rng(0).standard_normal(g.n)
        assert nl.prox(F, f, 0.01).converged

    def test_step_bound_computed_once_per_graph(self, monkeypatch):
        calls = []
        compute = edgecalc.grad_div_opnorm

        def counted(*args, **kwargs):
            calls.append(args)
            return compute(*args, **kwargs)

        monkeypatch.setattr(edgecalc, "grad_div_opnorm", counted)
        rng = np.random.default_rng(6)
        graphs = [nl.build_grid_graph(nl.GridSpec(width=5, height=4,
                                                  boundary_mode="dirichlet")),
                  path_graph(6)]
        for count, g in enumerate(graphs, start=1):
            for kind in ("graph_tv", "lipschitz_sup"):
                F = nl.make_functional(kind, g)
                for sigma in (0.1, 0.5):
                    sol = nl.prox(F, rng.standard_normal(g.n), sigma, tol=1e-12)
                    nl.dual_ball_membership(F, sol.zeta)
            assert len(calls) == count
            assert g.grad_div_opnorm == compute(g)

    def test_divergence_built_lazily_once_per_graph(self, monkeypatch):
        calls = []
        build = edgecalc.div_matrix

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(edgecalc, "div_matrix", counted)
        rng = np.random.default_rng(7)
        graphs = [nl.build_grid_graph(nl.GridSpec(width=5, height=4,
                                                  boundary_mode="dirichlet")),
                  path_graph(6)]
        for count, g in enumerate(graphs, start=1):
            Fs = [nl.make_functional("graph_tv", g),
                  nl.make_functional("lipschitz_sup", g),
                  nl.make_functional("dirichlet_p", g, p=1.5),
                  nl.make_functional("dirichlet_p", g, p=3.0)]
            assert len(calls) == count - 1 and g._div is None
            for F in Fs:
                for sigma in (0.1, 0.5):
                    sol = nl.prox(F, rng.standard_normal(g.n), sigma, tol=1e-12)
                    if F.degree == 1:
                        nl.dual_ball_membership(F, sol.zeta)
            assert len(calls) == count

    def test_graph_solves_call_no_blas(self, monkeypatch):
        """The threaded BLAS of np.dot and np.linalg.norm keeps a worker
        thread spinning between the short calls of a FISTA iteration."""
        g = nl.build_grid_graph(nl.GridSpec(width=6, height=5, spacing=0.5))
        Fs = [nl.make_functional("graph_tv", g),
              nl.make_functional("lipschitz_sup", g),
              nl.make_functional("dirichlet_p", g, p=1.5)]
        fresh = nl.build_grid_graph(nl.GridSpec(width=7, height=3))
        f = np.random.default_rng(8).standard_normal(g.n)

        def blas(*args, **kwargs):
            raise AssertionError("BLAS call in a graph solve")

        monkeypatch.setattr(np, "dot", blas)
        monkeypatch.setattr(np.linalg, "norm", blas)
        for F in Fs:
            assert nl.prox(F, f, 0.1).converged
        assert fresh.grad_div_opnorm > 0.0
        trace = nl.run_flow(Fs[0], f, max_steps=2)
        assert trace.n_steps == 2

    @pytest.mark.parametrize("kind", ["graph_tv", "lipschitz_sup", "dirichlet_p"])
    def test_matches_brute_force(self, kind):
        """Within 1e-3 of the grid-search oracle on 3-node paths and on the
        4-node Dirichlet path, whose oracle searches only the 2 free nodes."""
        graphs = [path_graph(3), path_graph(3, w=2.0, measure=[1.0, 0.5, 2.0]),
                  nl.build_grid_graph(nl.GridSpec(width=2,
                                                  boundary_mode="dirichlet"))]
        rng = np.random.default_rng(3)
        for g in graphs:
            F = nl.make_functional(kind, g, p=1.5) if kind == "dirichlet_p" \
                else nl.make_functional(kind, g)
            for _ in range(15):
                f = nl.core.clamp_boundary(F, rng.uniform(-1, 1, g.n))
                sigma = rng.uniform(0.1, 0.8)
                sol = nl.prox(F, f, sigma, tol=1e-12)
                assert sol.converged
                ub = nl.brute_force_prox(F, f, sigma)
                assert np.max(np.abs(sol.u - ub)) <= 1e-3


class TestClusterRounding:
    """The box kinds round u = f - div(psi) to the means of its clusters, so
    the prox is exact once the dual iterates have found the jump set."""

    def test_exact_at_ordinary_tolerance(self):
        grids = [("graph_tv", nl.GridSpec(12, 10, boundary_mode="dirichlet")),
                 ("graph_tv", nl.GridSpec(16, 16)),
                 ("dirichlet_p", nl.GridSpec(33, boundary_mode="dirichlet"))]
        for kind, spec in grids:
            F = nl.make_functional(kind, nl.build_grid_graph(spec), p=1.0)
            clamped = ~F.graph.interior_mask
            for seed in range(3):
                f = np.random.default_rng(seed).standard_normal(F.dim)
                for sigma in (0.05, 0.3, 1.0):
                    a = nl.prox(F, f, sigma, tol=1e-11)
                    b = nl.prox(F, f, sigma, tol=1e-15, max_iter=400_000)
                    assert a.converged and b.converged
                    assert np.max(np.abs(a.u - b.u)) <= 1e-12
                    assert not a.u[clamped].any() and not b.u[clamped].any()

    def test_step_certified_exactly(self):
        """The +-1 step on a Neumann path is a graph_tv eigenvector, and its
        certificate reads exactly 0."""
        F = nl.make_functional("graph_tv", nl.build_grid_graph(nl.GridSpec(64)))
        w = np.where(np.arange(64) < 32, 1.0, -1.0)
        lam = nl.rayleigh(F, w)
        assert lam == 0.25
        assert nl.eigen_certificate(F, w, lam).subgradient_gap == 0.0


def pdirichlet_grid(p, boundary_mode="neumann", width=16, spacing=1.0):
    g = nl.build_grid_graph(nl.GridSpec(width=width, height=width, spacing=spacing,
                                        boundary_mode=boundary_mode))
    return nl.make_functional("dirichlet_p", g, p=p)


class TestPDirichletDual:
    """dirichlet_p with 1 < p < 2 takes the dual kernel; p >= 2 L-BFGS."""

    def test_converges_on_128_grid(self):
        F = pdirichlet_grid(1.5, width=128, spacing=1 / 128)
        f = np.random.default_rng(0).standard_normal(F.dim)
        sol = nl.prox(F, f, 0.01, tol=1e-8)
        assert sol.converged

    @pytest.mark.parametrize("boundary_mode", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
    def test_matches_lbfgs_route(self, p, boundary_mode):
        F = pdirichlet_grid(p, boundary_mode)
        f = nl.core.clamp_boundary(F, np.random.default_rng(1).standard_normal(F.dim))
        sol = nl.prox(F, f, 0.1, tol=1e-12)
        u, _, _, ok = prox_module._prox_dirichlet_smooth(F, f, 0.1, 1e-12, 50000)
        assert sol.converged and ok
        assert nl.norm(sol.u - u, F.measure) <= 1e-6 * nl.norm(u, F.measure)

    @pytest.mark.parametrize("boundary_mode", ["neumann", "dirichlet"])
    def test_p_near_one_converges(self, boundary_mode):
        F = pdirichlet_grid(1.05, boundary_mode)
        f = np.random.default_rng(2).standard_normal(F.dim)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = nl.prox(F, f, 0.1)
        assert sol.converged and np.isfinite(sol.gap)

    def test_route_by_p(self, monkeypatch):
        """Each graph kind takes one route, by kind and degree: L-BFGS, or
        the dual kernel with one edgewise map; an unknown kind has none."""
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        counted(prox_module, "minimize")
        for name in ("project_box", "prox_power_conjugate",
                     "project_weighted_l1"):
            counted(edgecalc, name)
        g = pdirichlet_grid(1.5, width=4).graph
        f = np.random.default_rng(3).standard_normal(16)
        for kind, p, route in (
                ("graph_tv", None, "project_box"),
                ("dirichlet_p", 1.0, "project_box"),
                ("dirichlet_p", 1.05, "prox_power_conjugate"),
                ("dirichlet_p", 1.5, "prox_power_conjugate"),
                ("dirichlet_p", 1.99, "prox_power_conjugate"),
                ("dirichlet_p", 2.0, "minimize"),
                ("dirichlet_p", 3.0, "minimize"),
                ("lipschitz_sup", None, "project_weighted_l1")):
            F = nl.make_functional(kind, g, p=p)
            del calls[:]
            assert nl.prox(F, f, 0.3, tol=1e-12).converged
            assert set(calls) == {route}, (kind, p)
        F = nl.FunctionalHandle(kind="no_such_kind", degree=1.0,
                                measure=g.node_measure, graph=g)
        with pytest.raises(errors.UnsupportedFunctional):
            nl.prox(F, f, 0.3)

    def test_p_one_is_graph_tv(self):
        """dirichlet_p at p = 1 is graph_tv, solved bit for bit alike."""
        for spec in (nl.GridSpec(12, 10, boundary_mode="dirichlet"),
                     nl.GridSpec(33)):
            g = nl.build_grid_graph(spec)
            f = np.random.default_rng(4).standard_normal(g.n)
            a = nl.prox(nl.make_functional("graph_tv", g), f, 0.3)
            b = nl.prox(nl.make_functional("dirichlet_p", g, p=1.0), f, 0.3)
            assert (a.u == b.u).all() and a.iterations == b.iterations
            assert a.gap == b.gap and a.converged


def reference_gap(F, f, sigma, v, psi):
    """P(v) - D(psi) with D(psi) = <f, d>_m - 0.5*||d||^2_m - h*(psi), d =
    div(psi): the reference the kernel's Fenchel-Young gap equals in exact
    arithmetic, with the P value it is relative to."""
    m = F.measure
    d = edgecalc.edge_div(psi, F.graph)
    pval = 0.5 * nl.norm(v - f, m) ** 2 + sigma * nl.evaluate(F, v)
    dval = (nl.inner(f, d, m) - 0.5 * nl.norm(d, m) ** 2
            - prox_module._edge_dual(F, sigma)[1](psi))
    return pval, pval - dval


def kernel_gap(F, f, sigma, v, psi):
    """P(v) and the gap of candidate v against psi as the dual kernel forms
    them."""
    _, hstar, _, h = prox_module._edge_dual(F, sigma)
    i_idx, j_idx, _ = F.graph.edge_arrays
    d = edgecalc.edge_div(psi, F.graph)
    u, dv = f - d, edgecalc.edge_diff(v, i_idx, j_idx)
    if np.array_equal(v, u):  # the kernel's u: no miss, and r = d
        return prox_module._fenchel_young(h, hstar, psi, dv, F.measure, d)
    return prox_module._fenchel_young(h, hstar, psi, dv, F.measure, v - f, v - u)


def gap_graphs():
    return [path_graph(3), path_graph(3, w=2.0, measure=[1.0, 0.5, 2.0]),
            nl.build_grid_graph(nl.GridSpec(width=2, boundary_mode="dirichlet")),
            nl.build_grid_graph(nl.GridSpec(width=5, height=4, spacing=0.5,
                                            boundary_mode="dirichlet")),
            nl.build_grid_graph(nl.GridSpec(width=6, height=5, spacing=0.5))]


GAP_KINDS = [("graph_tv", None), ("dirichlet_p", 1.0), ("dirichlet_p", 1.5),
             ("dirichlet_p", 3.0), ("lipschitz_sup", None)]


class TestFenchelYoungGap:
    """The dual kernel and L-BFGS certify by the edgewise Fenchel-Young form
    sigma*J(v) + h*(psi) - <psi, Dv> + 0.5*||v - (f - div psi)||^2_m of the
    gap P(v) - D(psi), which never subtracts a term of the size of f."""

    @pytest.mark.parametrize("kind, p", GAP_KINDS)
    def test_matches_primal_minus_dual(self, kind, p):
        """At admissible flows psi of three sizes, for u = f - div(psi),
        the cluster means of u and a random boundary-zero v."""
        rng = np.random.default_rng(9)
        for g in gap_graphs():
            F = nl.make_functional(kind, g, p=p)
            project, _, box, _ = prox_module._edge_dual(F, 0.4)
            for scale in (0.01, 0.3, 3.0):
                f = nl.core.clamp_boundary(F, rng.standard_normal(g.n))
                psi = project(scale * rng.standard_normal(len(g.edge_arrays[0])))
                u = f - edgecalc.edge_div(psi, g)
                vs = [u, nl.core.clamp_boundary(F, rng.standard_normal(g.n))]
                if box is not None:
                    vs.append(prox_module._cluster_means(F, f, psi, np.abs(psi) < box))
                for v in vs:
                    pval, ref = reference_gap(F, f, 0.4, v, psi)
                    pv, gap = kernel_gap(F, f, 0.4, v, psi)
                    assert abs(pv - pval) <= 1e-12 * (1.0 + abs(pval)), (kind, p)
                    assert abs(gap - ref) <= 1e-12 * (1.0 + abs(pval)), (kind, p)

    @pytest.mark.parametrize("c", [1e8, 1e10, 1e12])
    def test_constant_offset(self, c):
        """prox(c + f) = c + prox(f) on a Neumann path.  At c = 1e8 and 1e10
        the solve takes the iterations of c = 0, and u - c is prox(f) up to
        the rounding of c + f; at c = 1e12 that rounding (1e-4) keeps the gap
        above tol, and the solve says so."""
        F = nl.make_functional("graph_tv", nl.build_grid_graph(nl.GridSpec(64)))
        f = np.random.default_rng(0).standard_normal(64)
        sigma = 0.1 * nl.prox_nonvanishing_bound(F, f)
        ref = nl.prox(F, f, sigma, tol=1e-11)
        if c < 1e12:
            sol = nl.prox(F, c + f, sigma, tol=1e-11)
            assert sol.converged and sol.iterations == ref.iterations
            assert np.max(np.abs(sol.u - c - ref.u)) <= 1e-15 * c
        else:
            sol = nl.prox(F, c + f, sigma, tol=1e-11, max_iter=500)
            assert not sol.converged and sol.iterations == 500
        assert sol.gap >= 0.0

    @pytest.mark.parametrize("kind, p", GAP_KINDS)
    def test_no_aliasing(self, kind, p):
        """prox never writes into its input, and a later call never writes
        into the arrays an earlier one returned."""
        rng = np.random.default_rng(10)
        for g in gap_graphs()[2:]:
            F = nl.make_functional(kind, g, p=p)
            f = rng.standard_normal(g.n)
            f_before = f.copy()
            first = nl.prox(F, f, 0.3)
            assert np.array_equal(f, f_before)
            u, zeta = first.u.copy(), first.zeta.copy()
            nl.prox(F, rng.standard_normal(g.n), 0.3)
            nl.prox(F, first.u, 0.3)
            assert np.array_equal(first.u, u) and np.array_equal(first.zeta, zeta)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("graph_tv", 0), ("dirichlet_p", 1), ("graph_tv", 1)]),
       st.integers(0, 2 ** 32 - 1), st.floats(-8.0, 8.0), st.floats(0.05, 1.5))
def test_box_kind_gap_never_negative_property(case, seed, log_scale, sigma):
    """For the box kinds every edge term sigma*w_e*|du_e| - psi_e*du_e of
    the gap is >= 0 after rounding too, at every input scale."""
    kind, which = case
    g = gap_graphs()[3 + which]
    F = nl.make_functional(kind, g, p=1.0 if kind == "dirichlet_p" else None)
    scale = 10.0 ** log_scale
    f = scale * np.random.default_rng(seed).standard_normal(g.n)
    sol = nl.prox(F, f, sigma * scale, tol=1e-13, max_iter=2000)
    assert sol.gap >= 0.0


class TestQuadraticProx:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        n = 60
        B = rng.standard_normal((n, n))
        A = B @ B.T / n
        m = rng.uniform(0.2, 3.0, n)
        F = nl.make_functional("quadratic_form", matrix=A, node_measure=m)
        f = rng.standard_normal(n)
        for sigma in (1e-3, 1.0, 1e3):
            sol = nl.prox(F, f, sigma)
            exact = np.linalg.solve(np.diag(m) + sigma * A, m * f)
            assert sol.iterations == 0 and sol.converged
            assert np.linalg.norm(sol.u - exact) <= 1e-12 * np.linalg.norm(exact)


class TestLbfgsRoute:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_clamped_nodes_stay_zero(self, p):
        F = pdirichlet_grid(p, "dirichlet", width=8)
        f = nl.core.clamp_boundary(F, np.random.default_rng(5).standard_normal(F.dim))
        u, its, gap, ok = prox_module._prox_dirichlet_smooth(F, f, 0.5, 1e-12, 50000)
        assert ok and its > 0
        # the gap subtracts h*: without it the gap of the optimum is -(p-1)*sigma*J
        pval = 0.5 * nl.norm(u - f, F.measure) ** 2 + 0.5 * nl.evaluate(F, u)
        assert abs(gap) <= 1e-12 * (1.0 + pval)
        assert np.all(u[~F.graph.interior_mask] == 0.0)
        assert np.any(u[F.graph.interior_mask] != 0.0)
