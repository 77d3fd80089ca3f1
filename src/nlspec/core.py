"""Domain types and theorem-level diagnostics: what each functional is.

Signals are plain float64 numpy arrays over graph nodes; all inner products
carry the per-node measure m_i (default 1), i.e.

    <u, v> = sum_i m_i u_i v_i.

The functional catalog is p-homogeneous and convex; `evaluate_batch`
dispatches on the handle kind and `evaluate` is its single-signal form.
Diagnostics (Rayleigh quotient, Euler identity residual, minimal-norm
subgradients) are pure functions of their inputs.  How each kind is
minimized, and the certificates that need a prox solve, live in `prox`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import edgecalc
from .errors import (
    BadParams,
    DimensionMismatch,
    NullspaceElement,
    UnsupportedFunctional,
    ZeroSignal,
)

GRAPH_KINDS = ("graph_tv", "dirichlet_p", "lipschitz_sup")
VECTOR_KINDS = ("l1", "linf")

#: ||u - P_N u||_m / ||u||_m at or below which u counts as an element of N_J:
#: the rounding error of the projection
NULLSPACE_TOL = 1e-13


def as_signal(values, n: Optional[int] = None) -> np.ndarray:
    u = np.asarray(values, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise DimensionMismatch(f"signal must be a 1-D vector, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise DimensionMismatch("signal contains NaN or infinite entries")
    if n is not None and u.size != n:
        raise DimensionMismatch(f"signal has length {u.size}, expected {n}")
    return u


def check_count(name: str, value) -> int:
    """`value`, checked to be an int or numpy integer >= 1, not a bool (a
    size, or an iteration, step or restart count)."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       and value >= 1):
        raise BadParams(f"{name} must be an integer >= 1, got {value!r}")
    return value


def node_measure_array(node_measure, n: int) -> np.ndarray:
    """Ones without a measure; else the measure, checked finite, positive,
    length n; n is checked by `check_count`."""
    check_count("n", n)
    if node_measure is None:
        return np.ones(n)
    try:
        m = np.asarray(node_measure, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadParams(f"node_measure must be numeric: {exc}") from exc
    if m.shape != (n,) or not np.all((0 < m) & (m < np.inf)):
        raise BadParams(f"node_measure must be finite, positive and of length {n}")
    return m


class WeightedGraph:
    """Undirected weighted graph with an optional Dirichlet boundary set.

    `edges` is an (E, 3) sequence or array of (i, j, w) with integer
    0 <= i < j < n and finite w > 0.  It is stored only as the arrays of
    `edge_arrays`; the `edges` property derives the triples from them.
    """

    __slots__ = ("n", "boundary", "node_measure", "_i", "_j", "_w", "_interior",
                 "_opnorm", "_div")

    def __init__(self, n: int, edges, boundary=frozenset(), node_measure=None):
        m = node_measure_array(node_measure, n)  # checks n
        try:
            e = np.asarray(edges, dtype=float)
            b = np.fromiter(boundary, dtype=float)
        except (TypeError, ValueError) as exc:
            raise BadParams(f"edges must be (i, j, w) triples and boundary "
                            f"node indices: {exc}") from exc
        if e.size == 0:
            e = e.reshape(0, 3)
        if e.ndim != 2 or e.shape[1] != 3:
            raise BadParams(f"edges must have shape (E, 3), got {e.shape}")
        if not (np.isfinite(e).all() and np.isfinite(b).all()):
            raise BadParams("edges and boundary must be finite")
        i, j = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64)
        bi = b.astype(np.int64)
        ok = (i == e[:, 0]) & (j == e[:, 1]) & (0 <= i) & (i < j) & (j < n)
        if not ok.all():
            k = int(np.argmin(ok))
            raise BadParams(f"bad edge {e[k, :2].tolist()}: need integers 0 <= i < j < n")
        if not (e[:, 2] > 0).all():
            raise BadParams(f"edge weights must be positive, got {e[:, 2].min()}")
        key = np.sort(i * n + j)
        if (key[1:] == key[:-1]).any():
            raise BadParams("duplicate edge")
        if not ((bi == b) & (0 <= bi) & (bi < n)).all():
            raise BadParams(f"boundary nodes must be integers in [0, {n})")
        if components(n, i, j).any():  # a second component's root is > 0
            raise BadParams("graph is not connected")
        interior = np.ones(n, dtype=bool)
        interior[bi] = False
        self.n = n
        self.boundary = frozenset(bi.tolist())
        self.node_measure = m
        self._i, self._j, self._w = i, j, e[:, 2].copy()
        self._interior = interior
        self._opnorm = None
        self._div = None

    @property
    def edges(self) -> tuple:
        """(i, j, w) triples, derived from `edge_arrays` on each access."""
        return tuple(zip(self._i.tolist(), self._j.tolist(), self._w.tolist()))

    @property
    def edge_arrays(self):
        return self._i, self._j, self._w

    @property
    def interior_mask(self) -> np.ndarray:
        return self._interior

    @property
    def grad_div_opnorm(self) -> float:
        """Step bound of the dual FISTA kernel, computed on first use by
        `edgecalc.grad_div_opnorm` and kept for the graph's lifetime."""
        if self._opnorm is None:
            self._opnorm = edgecalc.grad_div_opnorm(self)
        return self._opnorm

    @property
    def div(self):
        """The divergence as an n x E sparse matrix, built on first use by
        `edgecalc.div_matrix` and kept for the graph's lifetime."""
        if self._div is None:
            self._div = edgecalc.div_matrix(self)
        return self._div


def components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The root of each of the n nodes in the graph of the edges (i, j), by
    hook-and-jump union-find (Shiloach & Vishkin, J. Algorithms 1982).

    Every node points to a smaller or equal index, so pointer jumping ends at
    one root per component: the smallest index in it.
    """
    root = np.arange(n)
    while True:
        ri, rj = root[i], root[j]
        if (ri == rj).all():
            return root
        np.minimum.at(root, ri, rj)
        np.minimum.at(root, rj, ri)
        jumped = root[root]
        while (jumped != root).any():
            root, jumped = jumped, jumped[jumped]


def potentials(n: int, i: np.ndarray, j: np.ndarray, d: np.ndarray):
    """(root, pi): the roots of `components`, and node potentials, 0 at each
    root, with pi[j] - pi[i] = d on the edges of a spanning forest of the
    edges (i, j), so on every edge when the offsets d sum to 0 around each
    cycle.

    The same hook-and-jump union-find, with each node's offset from its
    parent: a root hooks onto a smaller root by one edge (its smallest
    index), and pointer jumping sums the offsets.  On a whole grid it costs
    2.2x `components` at 32x32 and 4.8x at 128x128, so `components` keeps
    serving the callers that need only roots, `WeightedGraph`'s check among
    them.
    """
    root, pi = np.arange(n), np.zeros(n)
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            return root, pi
        # an edge inside a tree stays inside it
        i, j, d, ri, rj = i[cross], j[cross], d[cross], ri[cross], rj[cross]
        # edge k asks for pi_rj - pi_ri = shift[k] at the roots
        shift = d + pi[i] - pi[j]
        up = rj > ri
        pick = np.full(n, len(i))
        np.minimum.at(pick, np.where(up, rj, ri), np.arange(len(i)))
        hooked = np.flatnonzero(pick < len(i))
        k = pick[hooked]
        root[hooked] = np.where(up[k], ri[k], rj[k])
        pi[hooked] = np.where(up[k], shift[k], -shift[k])
        jumped = root[root]
        while (jumped != root).any():
            pi += pi[root]
            root, jumped = jumped, jumped[jumped]


@dataclass(frozen=True, eq=False)
class FunctionalHandle:
    """Descriptor of a p-homogeneous convex functional (equal only to itself)."""

    kind: str
    degree: float  # the homogeneity p, also the exponent of dirichlet_p
    measure: np.ndarray  # node measure m_i of every inner product
    graph: Optional[WeightedGraph] = None
    matrix: Optional[np.ndarray] = None
    # spectral data of quadratic forms, filled at construction
    _quad_eigvals: Optional[np.ndarray] = field(default=None, repr=False)
    _quad_eigvecs: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.measure)

    @property
    def has_boundary(self) -> bool:
        return self.graph is not None and len(self.graph.boundary) > 0


def inner(u: np.ndarray, v: np.ndarray, measure: np.ndarray) -> float:
    return float((measure * u * v).sum())


def norm(u: np.ndarray, measure: np.ndarray) -> float:
    return math.sqrt(max(inner(u, u, measure), 0.0))


def clamp_boundary(F: FunctionalHandle, u: np.ndarray) -> np.ndarray:
    """Zero out Dirichlet nodes; identity for boundary-free functionals."""
    if not F.has_boundary:
        return u
    v = u.copy()
    v[~F.graph.interior_mask] = 0.0
    return v


def evaluate(F: FunctionalHandle, u) -> float:
    """J(u) for every catalog kind; >= 0 and exactly p-homogeneous."""
    return float(evaluate_batch(F, as_signal(u, F.dim)))


def evaluate_batch(F: FunctionalHandle, U: np.ndarray) -> np.ndarray:
    """J along the last axis of U: one signal, or the rows of a batch."""
    U = np.asarray(U, dtype=float)
    if F.kind == "quadratic_form":
        # row-by-column matmul: the 1-D case reduces exactly like u @ (M @ u)
        MU = (F.matrix @ U.T).T
        return 0.5 * (U[..., None, :] @ MU[..., :, None])[..., 0, 0]
    if F.kind == "l1":
        return np.sum(F.measure * np.abs(U), axis=-1)
    if F.kind == "linf":
        return np.max(np.abs(U), axis=-1)
    # the node axis leads in V, so edge_diff gathers whole rows
    V = clamp_boundary(F, U.T)
    i_idx, j_idx, w = F.graph.edge_arrays
    D = np.abs(edgecalc.edge_diff(V, i_idx, j_idx)).T
    if F.kind == "lipschitz_sup":
        return np.max(w * D, axis=-1, initial=0.0)
    # graph_tv is dirichlet_p at p = 1, where D ** 1.0 / 1.0 is D exactly
    return np.sum(w * D ** F.degree, axis=-1) / F.degree


def nullspace_basis(F: FunctionalHandle) -> np.ndarray:
    """Measure-orthonormal basis of N_J = {u : J(u) = 0}, shape (n, k)."""
    n, m = F.dim, F.measure
    if F.kind == "quadratic_form":
        vals, vecs = F._quad_eigvals, F._quad_eigvecs
        scale = max(float(np.max(np.abs(vals))), 1.0)
        cols = vecs[:, np.abs(vals) <= 1e-12 * scale]
        return cols
    if F.kind in VECTOR_KINDS or F.has_boundary:
        return np.zeros((n, 0))
    # connected graph without boundary: constants
    c = np.ones(n) / norm(np.ones(n), m)
    return c.reshape(n, 1)


def project_nullspace(F: FunctionalHandle, u) -> np.ndarray:
    u = as_signal(u, F.dim)
    B = nullspace_basis(F)
    if B.shape[1] == 0:
        return np.zeros_like(u)
    # einsum, not BLAS: see the edgecalc module docstring
    coeff = np.einsum("ik,i->k", B, F.measure * u)
    return np.einsum("ik,k->i", B, coeff)


def split_nullspace(F: FunctionalHandle, u):
    """(P_N u, v = u - P_N u, ||v||_m, in_N): u counts as an element of N_J
    when ||v||_m <= NULLSPACE_TOL * ||u||_m, so the answer is scale-free."""
    u = as_signal(u, F.dim)
    pu = project_nullspace(F, u)
    v = u - pu
    nv = norm(v, F.measure)
    return pu, v, nv, nv <= NULLSPACE_TOL * norm(u, F.measure)


def rayleigh(F: FunctionalHandle, u) -> float:
    """p * J(u - P_N u) / ||u - P_N u||^p."""
    _, v, nv, in_null = split_nullspace(F, u)
    if in_null:
        raise NullspaceElement("signal is in the nullspace of the functional")
    return F.degree * evaluate(F, v) / nv ** F.degree


def euler_residual(F: FunctionalHandle, u, zeta) -> float:
    """|p J(u) - <zeta, u>|; zero whenever zeta is a subgradient at u."""
    u = as_signal(u, F.dim)
    zeta = as_signal(zeta, F.dim)
    return abs(F.degree * evaluate(F, u) - inner(zeta, u, F.measure))


def min_norm_subgradient(F: FunctionalHandle, u) -> np.ndarray:
    """Closed-form minimal-norm subgradient for l1 / linf."""
    u = as_signal(u, F.dim)
    m = F.measure
    if F.kind == "l1":
        return np.sign(u)
    if F.kind == "linf":
        umax = float(np.max(np.abs(u)))
        if umax == 0.0:
            raise ZeroSignal("linf has no subgradient selection at 0")
        eps = 1e-9 * umax
        argmax = np.abs(u) >= umax - eps
        mass = float(np.sum(m[argmax]))
        zeta = np.zeros_like(u)
        zeta[argmax] = np.sign(u[argmax]) / mass
        return zeta
    raise UnsupportedFunctional(
        "min-norm subgradients in closed form exist only for l1/linf")
