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

from .core import (WeightedGraph, FunctionalHandle, GRAPH_KINDS,
                   node_measure_array)
from .errors import BadParams


@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int = 1
    spacing: float = 1.0
    boundary_mode: str = "neumann"

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise BadParams("grid needs width >= 1 and height >= 1")
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


def make_functional(kind: str, graph: WeightedGraph = None, *, p: float = None,
                    matrix=None, n: int = None, node_measure=None) -> FunctionalHandle:
    """Build a handle for one of the catalog functionals.

    kind in {quadratic_form, dirichlet_p, graph_tv, l1, linf, lipschitz_sup}.
    """
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

    if kind in ("l1", "linf"):
        if graph is not None:
            m = graph.node_measure
        elif n is None and node_measure is None:
            raise BadParams(f"{kind} requires a dimension")
        else:
            m = node_measure_array(node_measure,
                                   np.size(node_measure) if n is None else int(n))
        return FunctionalHandle(kind=kind, degree=1.0, measure=m)

    if kind == "quadratic_form":
        if matrix is None:
            raise BadParams("quadratic_form requires a matrix")
        A = np.asarray(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise BadParams("quadratic_form matrix must be square")
        scale = max(float(np.max(np.abs(A))), 1.0)
        if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
            raise BadParams("quadratic_form matrix must be symmetric")
        m = node_measure_array(node_measure, A.shape[0])
        # generalized spectrum A v = lam * M v, via symmetric rescaling
        s = np.sqrt(m)
        vals, vecs = np.linalg.eigh(A / np.outer(s, s))
        if vals[0] < -1e-10 * scale:
            raise BadParams(f"quadratic_form matrix is not PSD (min eigenvalue {vals[0]})")
        vecs = vecs / s[:, None]  # columns m-orthonormal
        return FunctionalHandle(kind="quadratic_form", degree=2.0, measure=m,
                                matrix=A, _quad_eigvals=vals, _quad_eigvecs=vecs)

    raise BadParams(f"unknown functional kind {kind!r}")


def laplacian_matrix(graph: WeightedGraph) -> np.ndarray:
    """Graph Laplacian L with 0.5*<Lu,u> = dirichlet_p(u) at p=2."""
    i, j, w = graph.edge_arrays
    L = np.zeros((graph.n, graph.n))
    L[i, j] = L[j, i] = -w
    np.add.at(L, (i, i), w)
    np.add.at(L, (j, j), w)
    return L
