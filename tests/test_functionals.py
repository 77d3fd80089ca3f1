import numpy as np
import pytest

import nlspec as nl
from nlspec import cli, core, errors, functionals


class TestGridSpec:
    def test_neumann_path(self):
        g = nl.build_grid_graph(nl.GridSpec(width=3))
        assert g.n == 3
        assert len(g.edges) == 2
        assert all(w == 1.0 for (_, _, w) in g.edges)
        assert not g.boundary

    def test_dirichlet_path_adds_boundary(self):
        g = nl.build_grid_graph(nl.GridSpec(width=3, boundary_mode="dirichlet"))
        assert g.n == 5
        assert g.boundary == frozenset({0, 4})

    def test_2x2_half_spacing(self):
        g = nl.build_grid_graph(nl.GridSpec(width=2, height=2, spacing=0.5))
        assert g.n == 4
        assert len(g.edges) == 4
        assert all(w == 2.0 for (_, _, w) in g.edges)
        assert np.allclose(g.node_measure, 0.25)

    def test_2d_dirichlet_ring(self):
        g = nl.build_grid_graph(
            nl.GridSpec(width=2, height=2, boundary_mode="dirichlet"))
        assert g.n == 16
        assert len(g.boundary) == 12

    def test_invalid_specs(self):
        with pytest.raises(errors.BadParams):
            nl.GridSpec(width=0)
        with pytest.raises(errors.BadParams):
            nl.GridSpec(width=2, spacing=0.0)
        with pytest.raises(errors.BadParams):
            nl.GridSpec(width=2, boundary_mode="periodic")

    @pytest.mark.parametrize("size", [{"width": True}, {"width": 2.5},
                                      {"width": 4, "height": True},
                                      {"width": 4, "height": 0}],
                             ids=["width_bool", "width_fraction", "height_bool",
                                  "height_0"])
    def test_width_and_height_are_counts(self, size):
        """width=True built a 1-node graph, and width=2.5 ended in a bare
        numpy TypeError."""
        name, value = list(size.items())[-1]
        with pytest.raises(errors.BadParams,
                           match=f"{name} must be an integer >= 1, got {value}"):
            nl.GridSpec(**size)
        assert nl.GridSpec(np.int64(3), np.int64(2)).lattice_shape == (2, 3)


def reference_grid(spec):
    """The lattice as a plain double loop: each node's right, then lower edge."""
    rows, cols = spec.lattice_shape
    h = spec.spacing
    edges, boundary = [], set()
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c
            if c + 1 < cols:
                edges.append((k, k + 1, 1.0 / h))
            if r + 1 < rows:
                edges.append((k, k + cols, 1.0 / h))
            ring = c in (0, cols - 1) or (rows > 1 and r in (0, rows - 1))
            if spec.boundary_mode == "dirichlet" and ring:
                boundary.add(k)
    measure = np.full(rows * cols, h ** (1 if spec.height == 1 else 2))
    return edges, boundary, measure


def reference_laplacian(graph):
    L = np.zeros((graph.n, graph.n))
    for (i, j, w) in graph.edges:
        L[i, i] += w
        L[j, j] += w
        L[i, j] -= w
        L[j, i] -= w
    return L


class TestGridAndLaplacianPinned:
    @pytest.mark.parametrize("mode", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("spacing", [1.0, 0.5])
    @pytest.mark.parametrize("width,height", [(1, 1), (5, 1), (1, 4), (4, 3)])
    def test_grid_matches_double_loop(self, width, height, spacing, mode):
        spec = nl.GridSpec(width=width, height=height, spacing=spacing,
                           boundary_mode=mode)
        g = nl.build_grid_graph(spec)
        edges, boundary, measure = reference_grid(spec)
        ref = [np.array([e[k] for e in edges], dtype=t)
               for k, t in enumerate((np.int64, np.int64, np.float64))]
        for got, want in zip(g.edge_arrays, ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert g.boundary == frozenset(boundary)
        assert g.node_measure.dtype == measure.dtype
        assert np.array_equal(g.node_measure, measure)
        interior = np.array([k not in boundary for k in range(g.n)])
        assert g.interior_mask.dtype == interior.dtype
        assert np.array_equal(g.interior_mask, interior)
        assert np.array_equal(nl.laplacian_matrix(g), reference_laplacian(g))

    def test_laplacian_unequal_weights(self):
        rng = np.random.default_rng(3)
        n = 7
        edges = [(i, i + 1, float(w)) for i, w in
                 enumerate(rng.uniform(0.1, 3.0, n - 1))]
        edges += [(0, 3, 0.7), (2, 6, 1.3), (1, 5, 2.9)]
        g = nl.WeightedGraph(n=n, edges=edges)
        L, ref = nl.laplacian_matrix(g), reference_laplacian(g)
        assert np.max(np.abs(L - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert np.allclose(L.sum(axis=1), 0.0, atol=1e-14)


class TestMakeFunctional:
    def test_measure_stored_once(self):
        g = nl.build_grid_graph(nl.GridSpec(width=3, spacing=0.5))
        for F in (nl.make_functional("graph_tv", g), nl.make_functional("l1", g)):
            assert F.measure is g.node_measure and F.dim == 3
        F = nl.make_functional("linf", n=4)
        assert F.measure is F.measure and F.dim == 4
        assert np.array_equal(F.measure, np.ones(4))
        Fq = nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g))
        assert Fq.measure is Fq.measure and np.array_equal(Fq.measure, np.ones(3))
        # array fields: handles compare and hash by identity
        assert F == F and F != nl.make_functional("linf", n=4)
        assert len({F, Fq}) == 2

    def test_dirichlet_p_requires_p(self):
        g = nl.build_grid_graph(nl.GridSpec(width=3))
        with pytest.raises(errors.BadParams):
            nl.make_functional("dirichlet_p", g)
        # J is NaN at p = NaN and 0 at p = inf
        for p in (0.5, float("nan"), float("inf")):
            with pytest.raises(errors.BadParams):
                nl.make_functional("dirichlet_p", g, p=p)

    def test_graph_kinds_require_graph(self):
        with pytest.raises(errors.BadParams):
            nl.make_functional("graph_tv")

    def test_quadratic_requires_symmetry(self):
        with pytest.raises(errors.BadParams):
            nl.make_functional("quadratic_form",
                               matrix=np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_quadratic_requires_psd(self):
        with pytest.raises(errors.BadParams):
            nl.make_functional("quadratic_form", matrix=-np.eye(2))

    def test_quadratic_rejects_an_empty_matrix(self):
        # once a bare numpy ValueError from the symmetry test's np.max
        with pytest.raises(errors.BadParams, match="^n must be an integer >= 1, got 0$"):
            nl.make_functional("quadratic_form", matrix=np.zeros((0, 0)))

    def test_unknown_kind(self):
        with pytest.raises(errors.BadParams, match="^unknown functional kind 'huber'$"):
            nl.make_functional("huber")

    def test_l1_from_graph_measure(self):
        g = nl.build_grid_graph(nl.GridSpec(width=2, height=2, spacing=0.5))
        F = nl.make_functional("l1", g)
        assert nl.evaluate(F, np.ones(4)) == pytest.approx(1.0)

    def test_quadratic_form_on_a_graph_takes_its_measure(self):
        """On a grid of spacing h the measure is h^d, as for every kind."""
        g = nl.build_grid_graph(nl.GridSpec(width=2, height=2, spacing=0.5))
        L = nl.laplacian_matrix(g)
        F = nl.make_functional("quadratic_form", g, matrix=L)
        assert F.measure is g.node_measure
        spec = nl.dense_symmetric_eigs(L, node_measure=g.node_measure)
        for lam, v in zip(spec.eigenvalues[1:], spec.eigenvectors.T[1:]):
            assert nl.rayleigh(F, v) == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("kind", ["quadratic_form", "l1", "linf"])
    def test_non_graph_kinds_reject_dirichlet_nodes(self, kind):
        """Only the graph kinds clamp Dirichlet nodes; these took the graph's
        measure and dropped its boundary, so prox(ones).u[0] read 1.0 (0.9
        for l1) where graph_tv clamps it to 0."""
        def matrix(g):  # the argument quadratic_form reads
            return nl.laplacian_matrix(g) if kind == "quadratic_form" else None
        g = nl.build_grid_graph(nl.GridSpec(3, boundary_mode="dirichlet"))
        with pytest.raises(errors.BadParams, match="Dirichlet"):
            nl.make_functional(kind, g, matrix=matrix(g))
        F = nl.make_functional("graph_tv", g)
        assert nl.prox(F, np.ones(5), 0.1).u[0] == 0.0
        neumann = nl.build_grid_graph(nl.GridSpec(3))
        assert nl.make_functional(kind, neumann, matrix=matrix(neumann)).dim == 3

    @pytest.mark.parametrize("kind, graph, args, words", [
        ("graph_tv", True, {"p": 2.0}, "'graph_tv' on a graph does not read p"),
        ("dirichlet_p", True, {"p": 1.5, "node_measure": [2.0] * 4},
         "does not read node_measure"),
        ("l1", True, {"n": 7}, "'l1' on a graph does not read n"),
        ("quadratic_form", False, {"matrix": np.eye(1), "n": 1},
         "'quadratic_form' does not read n"),
        ("graph_tv", True, {"p": 1.0, "matrix": np.eye(4), "n": 4,
                            "node_measure": [1.0] * 4},
         "does not read p, matrix, n, node_measure"),
        ("huber", True, {"p": 1.0}, "unknown functional kind 'huber' on a "
                                    "graph does not read p")],
        ids=["graph_tv_p", "dirichlet_p_node_measure", "l1_n_on_graph",
             "quadratic_form_n", "graph_tv_all", "unknown_p"])
    def test_rejects_arguments_the_kind_does_not_read(self, kind, graph,
                                                      args, words):
        """The first four built TV with degree 1, kept the grid's measure of
        ones, and built dim 4 and dim 1 without a word."""
        g = nl.build_grid_graph(nl.GridSpec(4)) if graph else None
        with pytest.raises(errors.BadParams, match=words):
            nl.make_functional(kind, g, **args)

    def test_each_kind_rejects_what_its_row_leaves_out(self):
        """Each kind builds from what it needs and rejects by name every
        argument its KIND_ARGS row leaves out, and on a graph also n and
        node_measure; `nlspec run` reads the same rows."""
        g = nl.build_grid_graph(nl.GridSpec(4))
        value = {"p": 1.5, "matrix": nl.laplacian_matrix(g), "n": 4,
                 "node_measure": [2.0] * 4}
        need = {"dirichlet_p": ["p"], "quadratic_form": ["matrix"],
                "l1": ["n"], "linf": ["n"]}
        assert set(cli.KINDS) == set(functionals.KIND_ARGS)
        for kind, reads in functionals.KIND_ARGS.items():
            assert tuple(cli.KINDS[kind]) == reads
            for graph in (g,) if kind in core.GRAPH_KINDS else (g, None):
                on_graph = set(functionals.GRAPH_ARGS) if graph else set()
                base = {a: value[a] for a in need.get(kind, ()) if a not in on_graph}
                assert nl.make_functional(kind, graph, **base).dim == 4
                for a in set(value) - set(reads) | on_graph:
                    with pytest.raises(errors.BadParams, match=f"does not read {a}"):
                        nl.make_functional(kind, graph, **base, **{a: value[a]})

    def test_quadratic_form_size_must_match_the_graph(self):
        g = nl.build_grid_graph(nl.GridSpec(width=4))
        with pytest.raises(errors.BadParams, match="3 rows, for 4 nodes"):
            nl.make_functional("quadratic_form", g, matrix=np.eye(3))


class TestCatalogIdentities:
    def test_dirichlet2_equals_half_laplacian_quadratic(self):
        g = nl.build_grid_graph(nl.GridSpec(width=2))
        Fd = nl.make_functional("dirichlet_p", g, p=2.0)
        L = nl.laplacian_matrix(g)
        assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])
        Fq = nl.make_functional("quadratic_form", matrix=L)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.standard_normal(2)
            assert nl.evaluate(Fd, u) == pytest.approx(nl.evaluate(Fq, u),
                                                       abs=1e-12)

    def test_tv_is_dirichlet_1(self):
        g = nl.build_grid_graph(nl.GridSpec(width=4, spacing=0.5))
        Ftv = nl.make_functional("graph_tv", g)
        F1 = nl.make_functional("dirichlet_p", g, p=1.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = rng.standard_normal(4)
            assert nl.evaluate(Ftv, u) == nl.evaluate(F1, u)

    def test_grid_scaling_convention(self):
        # jumps scale by 1/h, measure by h: TV of a unit step is 1/h * h-free
        g = nl.build_grid_graph(nl.GridSpec(width=2, spacing=0.25))
        F = nl.make_functional("graph_tv", g)
        assert nl.evaluate(F, [0.0, 1.0]) == pytest.approx(4.0)
        assert nl.norm(np.ones(2), F.measure) == pytest.approx(np.sqrt(0.5))
