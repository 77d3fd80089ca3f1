import numpy as np
import pytest

import nlspec as nl
from nlspec import edgecalc


def project_weighted_l1_loop(g, a, b, radius):
    """The breakpoint search one candidate at a time: the reference for the
    Newton steps of `edgecalc.project_weighted_l1`."""
    absg = np.abs(g)
    if float(np.sum(a * absg)) <= radius:
        return g.copy()
    if radius == 0.0:
        return np.where(a > 0, 0.0, g)
    c = a / b
    bp = np.where(c > 0, absg / np.where(c > 0, c, 1.0), np.inf)
    order = np.argsort(bp)
    a_o, g_o, c_o = a[order], absg[order], c[order]
    s1 = np.cumsum((a_o * g_o)[::-1])[::-1]
    s2 = np.cumsum((a_o * c_o)[::-1])[::-1]
    t_prev = 0.0
    for k in range(len(g)):
        if s2[k] <= 0:
            break
        t = (s1[k] - radius) / s2[k]
        if t_prev <= t <= bp[order[k]] + 1e-15:
            shrink = np.maximum(absg - t * c, 0.0)
            return np.sign(g) * shrink
        t_prev = bp[order[k]]
    return np.zeros_like(g)


def weighted_l1_cases(count=400, seed=0):
    """(g, a, b, radius) with zero entries, tied breakpoints, zero weights,
    radius 0, points already inside the ball and scales from 1e-8 to 1e8
    (where rounding can leave no admissible breakpoint) among them."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 40))
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        a = rng.uniform(0.1, 3.0, n)
        b = rng.uniform(0.1, 3.0, n)
        kind = k % 6
        if kind == 0:
            g[rng.random(n) < 0.4] = 0.0
        elif kind == 1:  # many equal breakpoints |g_i| b_i / a_i
            g = rng.choice([-2.0, -1.0, 1.0, 2.0], n)
            a = b = np.ones(n)
        elif kind == 2:
            a[rng.random(n) < 0.3] = 0.0
        elif kind == 5:
            g, a, b = (rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
                       for _ in range(3))
            a, b = np.abs(a), np.abs(b)
        total = float(np.sum(a * np.abs(g)))
        if kind == 3:
            radius = 0.0
        elif kind == 4:
            radius = total * rng.uniform(1.0, 2.0)
        elif kind == 5:
            radius = total * rng.choice([1e-17, 1e-12, 0.5, 1 - 1e-15])
        else:
            radius = total * rng.uniform(0.0, 1.0)
        yield g, a, b, radius


#: Newton's sums over a mask round unlike the reference's reversed cumsums:
#: over the 400 `weighted_l1_cases` they differ in 84, by at most 2.57 units
#: of eps*max|g|
WEIGHTED_L1_ULPS = 4.0


def assert_close_in_ulps(x, y, g):
    bound = WEIGHTED_L1_ULPS * np.finfo(float).eps * np.max(np.abs(g), initial=0.0)
    assert np.max(np.abs(x - y), initial=0.0) <= bound


class TestProjectWeightedL1:
    def test_matches_breakpoint_loop(self):
        for g, a, b, radius in weighted_l1_cases():
            got, _ = edgecalc.project_weighted_l1(g, a, b, radius)
            want = project_weighted_l1_loop(g, a, b, radius)
            assert got.dtype == want.dtype
            if radius == 0.0 or float(np.sum(a * np.abs(g))) <= radius:
                assert got.tobytes() == want.tobytes()
            else:
                assert_close_in_ulps(got, want, g)

    def test_projection_saturates_the_constraint(self):
        for g, a, b, radius in weighted_l1_cases(count=60, seed=1):
            x, _ = edgecalc.project_weighted_l1(g, a, b, radius)
            total = float(np.sum(a * np.abs(g)))
            used = float(np.sum(a * np.abs(x)))
            # up to rounding relative to the whole mass sum a|g|
            assert used <= radius + 1e-12 * total
            if total > radius and np.all(a > 0):
                assert abs(used - radius) <= 1e-9 * total

    def test_multiplier_is_complementary(self):
        eps = np.finfo(float).eps
        for g, a, b, radius in weighted_l1_cases(seed=2):
            x, t = edgecalc.project_weighted_l1(g, a, b, radius)
            total = float(np.sum(a * np.abs(g)))
            used = float(np.sum(a * np.abs(x)))
            assert t >= 0.0
            if total <= radius:
                assert t == 0.0
            else:  # t > 0: the constraint is active, up to rounding
                assert t > 0.0
                assert abs(used - radius) <= 2.0 * eps * total

    def test_start_does_not_change_the_answer(self):
        for g, a, b, radius in weighted_l1_cases():
            x, t = edgecalc.project_weighted_l1(g, a, b, radius)
            for t0 in (0.0, t / 3.0, t, 3.0 * t, 1e300):
                y, s = edgecalc.project_weighted_l1(g, a, b, radius, t0)
                assert_close_in_ulps(y, x, g)
                assert s >= 0.0

    @pytest.mark.parametrize("g, a, b, radius, x, t", [
        # |g_i| = t*c_i at the multiplier on coordinate 1, exactly
        ([4.0, -2.0, 1.0], [1.0, 2.0, 0.5], [1.0, 1.0, 1.0], 3.25,
         [3.0, 0.0, 0.5], 1.0),
        # above the root only coordinate 0, of a_0 = 0, stays active
        ([5.0, 1.0, -2.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.0,
         [5.0, 0.0, -1.0], 1.0),
        ([-3.0], [2.0], [1.0], 2.0, [-1.0], 1.0),
        ([0.0, 0.0], [1.0, 2.0], [1.0, 3.0], 1.0, [0.0, 0.0], 0.0),
    ], ids=["tie_at_multiplier", "only_zero_weight_active", "n_1", "zero_g"])
    def test_edge_cases_from_every_start(self, g, a, b, radius, x, t):
        g, a, b = (np.array(v) for v in (g, a, b))
        for t0 in (0.0, t / 3.0, t, 3.0 * t, 1e300):
            got, s = edgecalc.project_weighted_l1(g, a, b, radius, t0)
            assert got.tolist() == x
            assert s == t

    def test_radius_0_is_the_limit_of_small_radii(self):
        # the a_i = 0 coordinate keeps g_i, at radius 0 as at any radius > 0
        g, a, b = np.array([5.0, 1.0]), np.array([0.0, 1.0]), np.ones(2)
        at_0, t0 = edgecalc.project_weighted_l1(g, a, b, 0.0)
        near_0, t1 = edgecalc.project_weighted_l1(g, a, b, 1e-300)
        assert at_0.tolist() == near_0.tolist() == [5.0, 0.0]
        assert (t0, t1) == (np.inf, 1.0)
        assert project_weighted_l1_loop(g, a, b, 0.0).tolist() == [5.0, 0.0]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            edgecalc.project_weighted_l1(np.ones(2), np.ones(2), np.ones(2), -1.0)


POWER_QS = (2.5, 3.0, 5.0, 21.0)
POWER_RHOS = np.concatenate(([0.0], np.logspace(-12, 12, 97)))
POWER_CS = (1e-3, 1.0, 1e6)


def closed_form_or_newton(rho, c, q):
    """r from `prox_power_conjugate` at z = rho, a = 1, L = c: the q = 3
    closed form, else the Newton solve."""
    return edgecalc.prox_power_conjugate(rho, np.ones_like(rho), c, q)


class TestPowerConjugateProx:
    @pytest.mark.parametrize("q", POWER_QS)
    @pytest.mark.parametrize("root", [closed_form_or_newton, edgecalc.power_root])
    def test_root_solves_the_equation(self, q, root):
        for c in POWER_CS:
            r = root(POWER_RHOS, c, q)
            assert np.all((r >= 0.0) & (r <= POWER_RHOS))
            residual = c * (r - POWER_RHOS) + r ** (q - 1.0)
            assert np.all(np.abs(residual) <= 1e-12 * c * POWER_RHOS)
            assert r[0] == 0.0

    def test_closed_form_matches_newton(self):
        for c in POWER_CS:
            closed = closed_form_or_newton(POWER_RHOS, c, 3.0)
            newton = edgecalc.power_root(POWER_RHOS, c, 3.0)
            assert np.allclose(closed, newton, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("q", POWER_QS)
    def test_prox_keeps_sign_and_solves_optimality(self, q):
        rng = np.random.default_rng(int(q))
        z = rng.standard_normal(200) * 10.0 ** rng.uniform(-6, 6, 200)
        z[::7] = 0.0
        a = 10.0 ** rng.uniform(-4, 2, 200)
        for L in POWER_CS:
            phi = edgecalc.prox_power_conjugate(z, a, L, q)
            assert np.array_equal(np.sign(phi), np.sign(z))
            assert np.all(phi[z == 0.0] == 0.0)
            # a * (|z|/a) may round one ulp above |z|
            assert np.all(np.abs(phi) <= np.abs(z) * (1.0 + 1e-15))
            # L*(phi - z) + h*'(phi) = 0, h*'(phi) = sign(phi)*|phi/a|^(q-1)
            grad = np.sign(phi) * np.abs(phi / a) ** (q - 1.0)
            assert np.all(np.abs(L * (phi - z) + grad) <= 1e-12 * L * np.abs(z))
            want = np.sign(z) * a * edgecalc.power_root(np.abs(z) / a, L * a, q)
            assert np.allclose(phi, want, rtol=1e-13, atol=0.0)

    def test_large_q_does_not_overflow(self):
        # p = 1.01: a^(1-q) = (1e-4)^(-100) would overflow
        z = np.array([-1e3, -1.0, 0.0, 1e-8, 5.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            phi = edgecalc.prox_power_conjugate(z, np.full(5, 1e-4), 8.0, 101.0)
        assert np.all(np.isfinite(phi))
        assert np.array_equal(np.sign(phi), np.sign(z))


def random_dirichlet_graph(rng, n):
    """A connected weighted graph (a random spanning tree plus extra edges)
    with 1-3 Dirichlet nodes and a node measure that is not dyadic."""
    pairs = {(int(rng.integers(k)), k) for k in range(1, n)}
    while len(pairs) < min(2 * n, n * (n - 1) // 2):
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        pairs.add((i, j))
    edges = [(i, j, rng.uniform(0.2, 3.0)) for i, j in sorted(pairs)]
    boundary = rng.choice(n, int(rng.integers(1, 4)), replace=False).tolist()
    measure = rng.uniform(0.3, 2.0, n) / 3.0
    return edges, boundary, measure


def edge_div_scatter(phi, graph):
    """The divergence as a scatter of each edge's flow onto its two nodes:
    the reference for the matrix that `edgecalc.div_matrix` builds."""
    i_idx, j_idx, _ = graph.edge_arrays
    out = np.zeros(graph.n)
    np.add.at(out, j_idx, phi)
    np.subtract.at(out, i_idx, phi)
    out /= graph.node_measure
    out[~graph.interior_mask] = 0.0
    return out


def shuffled_edges(g, rng):
    """`g` with its edges in random order: each node's incoming and outgoing
    edges interleave in edge order."""
    i_idx, j_idx, w = g.edge_arrays
    edges = np.column_stack((i_idx, j_idx, w))[rng.permutation(len(w))]
    return nl.WeightedGraph(g.n, edges, boundary=g.boundary,
                            node_measure=g.node_measure)


class TestEdgeDiv:
    @pytest.mark.parametrize("spec", [
        nl.GridSpec(width=32, height=32, spacing=1 / 32),
        nl.GridSpec(width=31, boundary_mode="dirichlet")],
        ids=["neumann_32x32", "dirichlet_path_33"])
    @pytest.mark.parametrize("shuffle", [False, True],
                             ids=["grid_order", "shuffled"])
    def test_matches_scatter_bit_for_bit_on_dyadic_grids(self, spec, shuffle):
        g = nl.build_grid_graph(spec)
        rng = np.random.default_rng(4)
        if shuffle:
            g = shuffled_edges(g, rng)
        for _ in range(5):
            phi = rng.standard_normal(len(g.edge_arrays[0]))
            assert np.array_equal(edgecalc.edge_div(phi, g),
                                  edge_div_scatter(phi, g))

    def test_matches_scatter_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            edges, boundary, measure = random_dirichlet_graph(rng, n)
            g = nl.WeightedGraph(n, edges, boundary=boundary,
                                 node_measure=measure)
            phi = rng.standard_normal(len(edges))
            d, want = edgecalc.edge_div(phi, g), edge_div_scatter(phi, g)
            scale = np.abs(phi).max() / measure.min()
            assert np.max(np.abs(d - want)) <= 1e-14 * scale

    def test_adjoint_on_boundary_zero_signals(self):
        from nlspec import WeightedGraph
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            edges, boundary, measure = random_dirichlet_graph(rng, n)
            g = WeightedGraph(n, edges, boundary=boundary, node_measure=measure)
            i_idx, j_idx, _ = g.edge_arrays
            interior = g.interior_mask
            phi = rng.standard_normal(len(i_idx))
            u = np.where(interior, rng.standard_normal(n), 0.0)
            d = edgecalc.edge_div(phi, g)
            assert np.all(d[~interior] == 0.0)
            lhs = float(np.sum(measure * d * u))
            rhs = float(phi @ edgecalc.edge_diff(u, i_idx, j_idx))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def grad_div_matrix(g):
    """phi -> edge_diff(edge_div(phi)) as an explicit E x E matrix, built
    from the incidence matrix and not from `div_matrix`."""
    i_idx, j_idx, _ = g.edge_arrays
    D = np.zeros((len(i_idx), g.n))
    D[np.arange(len(i_idx)), j_idx] += 1.0
    D[np.arange(len(i_idx)), i_idx] -= 1.0
    return D @ (np.where(g.interior_mask, 1.0 / g.node_measure, 0.0)[:, None] * D.T)


class TestGradDivOpnorm:
    def test_bounds_the_norm_on_a_long_path_with_one_light_node(self):
        # a seeded power estimate times 1.01 falls below the norm here:
        # 4.0356 against 4.0404
        from scipy.linalg import eigvalsh_tridiagonal
        n = 20000
        m = np.ones(n)
        m[n // 2] = 0.9
        g = nl.WeightedGraph(n, [(k, k + 1, 1.0) for k in range(n - 1)],
                             node_measure=m)
        # the node-side operator M^(-1/2) L M^(-1/2) shares the edge-side norm
        deg = np.full(n, 2.0)
        deg[[0, -1]] = 1.0
        s = 1.0 / np.sqrt(m)
        lam = eigvalsh_tridiagonal(deg * s * s, -s[:-1] * s[1:], select="i",
                                   select_range=(n - 1, n - 1))[0]
        assert edgecalc.grad_div_opnorm(g) >= lam

    def test_within_2x_of_the_norm_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            # at most 3 Dirichlet nodes, so some interior node has an edge
            n = int(rng.integers(4, 30))
            edges, boundary, measure = random_dirichlet_graph(rng, n)
            g = nl.WeightedGraph(n, edges, boundary=boundary,
                                 node_measure=measure)
            lam = np.linalg.eigvalsh(grad_div_matrix(g))[-1]
            assert 1.0 - 1e-12 <= edgecalc.grad_div_opnorm(g) / lam <= 2.0

    def test_zero_operator_gives_one(self):
        no_edges = nl.WeightedGraph(1, [])
        all_clamped = nl.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)],
                                       boundary=[0, 1, 2])
        for g in (no_edges, all_clamped):
            assert not np.any(grad_div_matrix(g))
            assert edgecalc.grad_div_opnorm(g) == 1.0

    @pytest.mark.parametrize("spec, value", [
        (nl.GridSpec(width=128, height=128, spacing=1 / 128), 131072.0),
        (nl.GridSpec(width=32, height=32, spacing=1 / 32), 8192.0),
        (nl.GridSpec(width=31, boundary_mode="dirichlet"), 4.0)],
        ids=["grid_128", "grid_32", "dirichlet_path_33"])
    def test_exact_on_grids(self, spec, value):
        assert edgecalc.grad_div_opnorm(nl.build_grid_graph(spec)) == value
