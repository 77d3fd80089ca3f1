"""Functional catalog constructors and grid graphs.

Grid convention: edge weight 1/h between axis neighbors, node measure h^d.
With this scaling the discrete Rayleigh quotients of the degree-1 functionals
converge to their continuum counterparts under grid refinement.  Dirichlet
grids carry an explicit layer of clamped boundary nodes; node indices are
row-major over the full lattice (boundary layer included).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (WeightedGraph, FunctionalHandle, GRAPH_KINDS, VECTOR_KINDS,
                   check_count, node_measure_array)
from .errors import BadParams


@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int = 1
    spacing: float = 1.0
    boundary_mode: str = "neumann"

    def __post_init__(self):
        check_count("width", self.width)
        check_count("height", self.height)
        if not self.spacing > 0:
            raise BadParams("grid spacing must be positive")
        if self.boundary_mode not in ("neumann", "dirichlet"):
            raise BadParams(f"unknown boundary mode {self.boundary_mode!r}")

    @property
    def lattice_shape(self):
        """(rows, cols) of the full lattice including any boundary layer."""
        if self.boundary_mode == "neumann":
            return (self.height, self.width)
        if self.height == 1:
            return (1, self.width + 2)
        return (self.height + 2, self.width + 2)


def build_grid_graph(spec: GridSpec) -> WeightedGraph:
    rows, cols = spec.lattice_shape
    h = spec.spacing
    dim = 1 if spec.height == 1 else 2
    node = np.arange(rows * cols)
    r, c = np.divmod(node, cols)
    # row-major over nodes, each node's right then lower neighbor: the FISTA
    # iterates depend on this order through edge_div
    i, down = np.nonzero(np.column_stack((c + 1 < cols, r + 1 < rows)))
    j = i + np.where(down, cols, 1)
    edges = np.column_stack((i, j, np.full(len(i), 1.0 / h)))

    boundary = ()
    if spec.boundary_mode == "dirichlet":
        ring = (c == 0) | (c == cols - 1)
        if rows > 1:
            ring |= (r == 0) | (r == rows - 1)
        boundary = node[ring]

    return WeightedGraph(n=rows * cols, edges=edges, boundary=boundary,
                         node_measure=np.full(rows * cols, h ** dim))


#: the keyword arguments each kind of `make_functional` reads; on a graph,
#: n and node_measure come from the graph and may not be given
KIND_ARGS = {"dirichlet_p": ("p",), "quadratic_form": ("matrix", "node_measure"),
             "l1": ("n", "node_measure"), "linf": ("n", "node_measure"),
             "graph_tv": (), "lipschitz_sup": ()}
GRAPH_ARGS = ("n", "node_measure")


def make_functional(kind: str, graph: WeightedGraph = None, *, p: float = None,
                    matrix=None, n: int = None, node_measure=None) -> FunctionalHandle:
    """Build a handle for one of the catalog functionals, kind a key of
    KIND_ARGS, from the arguments that kind reads (None reads as absent);
    on a `graph`, each takes the graph's node measure.  Only the graph kinds
    clamp a graph's Dirichlet nodes, so the others reject a graph that has
    any."""
    args = {"p": p, "matrix": matrix, "n": n, "node_measure": node_measure}
    unread = [a for a, v in args.items() if v is not None and (
        a not in KIND_ARGS.get(kind, ()) or graph is not None and a in GRAPH_ARGS)]
    if kind not in KIND_ARGS or unread:
        known = "" if kind in KIND_ARGS else "unknown "
        where = " on a graph" if graph is not None else ""
        raise BadParams(f"{known}functional kind {kind!r}{where}"
                        + (f" does not read {', '.join(unread)}" if unread else ""))
    if kind in GRAPH_KINDS:
        if graph is None:
            raise BadParams(f"{kind} requires a graph")
        degree = 1.0
        if kind == "dirichlet_p":
            if p is None or not 1 <= p < np.inf:
                raise BadParams(f"dirichlet_p requires finite p >= 1, got {p}")
            degree = float(p)
        return FunctionalHandle(kind=kind, degree=degree,
                                measure=graph.node_measure, graph=graph)

    if graph is not None:  # the graph carries the measure
        if graph.boundary:
            raise BadParams(f"{kind} has no Dirichlet nodes; the graph has "
                            f"{len(graph.boundary)}")
        n, node_measure = graph.n, graph.node_measure
    if kind in VECTOR_KINDS:
        if n is None and node_measure is None:
            raise BadParams(f"{kind} requires a dimension")
        m = node_measure_array(node_measure,
                               np.size(node_measure) if n is None else n)
        return FunctionalHandle(kind=kind, degree=1.0, measure=m)

    if matrix is None:
        raise BadParams("quadratic_form requires a matrix")
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise BadParams("quadratic_form matrix must be square")
    if n is not None and len(A) != n:
        raise BadParams(f"quadratic_form matrix has {len(A)} rows, for {n} nodes")
    m = node_measure_array(node_measure, A.shape[0])  # rejects a 0x0 matrix
    scale = max(float(np.max(np.abs(A))), 1.0)
    if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
        raise BadParams("quadratic_form matrix must be symmetric")
    # generalized spectrum A v = lam * M v, via symmetric rescaling
    s = np.sqrt(m)
    vals, vecs = np.linalg.eigh(A / np.outer(s, s))
    if vals[0] < -1e-10 * scale:
        raise BadParams(f"quadratic_form matrix is not PSD (min eigenvalue {vals[0]})")
    vecs = vecs / s[:, None]  # columns m-orthonormal
    return FunctionalHandle(kind="quadratic_form", degree=2.0, measure=m,
                            matrix=A, _quad_eigvals=vals, _quad_eigvecs=vecs)


def laplacian_matrix(graph: WeightedGraph) -> np.ndarray:
    """Graph Laplacian L with 0.5*<Lu,u> = dirichlet_p(u) at p=2."""
    i, j, w = graph.edge_arrays
    L = np.zeros((graph.n, graph.n))
    L[i, j] = L[j, i] = -w
    np.add.at(L, (i, i), w)
    np.add.at(L, (j, j), w)
    return L
