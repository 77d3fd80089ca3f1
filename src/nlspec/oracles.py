"""Independent ground-truth generators used to cross-check the solvers.

These deliberately avoid the production code paths: the eigensolver is a
cyclic Jacobi sweep (not the library eigh), the heat flow is the closed-form
eigenbasis sum, the distance transform is label-setting shortest paths, and
the prox is a nested grid search on the primal objective.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import (FunctionalHandle, WeightedGraph, as_signal, clamp_boundary,
                   evaluate_batch, node_measure_array)
from .errors import BadParams, DimensionTooLarge, EmptyBoundary, NotSymmetric


@dataclass(frozen=True)
class DenseSpectrum:
    eigenvalues: np.ndarray   # non-decreasing
    eigenvectors: np.ndarray  # columns, orthonormal in the node measure
    node_measure: np.ndarray  # ones when none was given


def _jacobi(A: np.ndarray):
    """Cyclic Jacobi rotations, at most 100 sweeps, until the off-diagonal
    Frobenius norm is below 1e-12 * ||A||_F."""
    n = A.shape[0]
    B = A.copy()
    V = np.eye(n)
    normA = np.linalg.norm(A) + 1e-300
    for _ in range(100):
        off = np.linalg.norm(B - np.diag(np.diag(B)))
        if off <= 1e-12 * normA:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = B[p, q]
                if abs(apq) <= 1e-3 * 1e-12 * normA / max(n, 1):
                    continue
                theta = 0.5 * (B[q, q] - B[p, p]) / apq
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                cth = 1.0 / math.sqrt(t * t + 1.0)
                s = t * cth
                # apply the rotation to rows/cols p, q in place
                Bp, Bq = B[:, p].copy(), B[:, q].copy()
                B[:, p] = cth * Bp - s * Bq
                B[:, q] = s * Bp + cth * Bq
                Bp, Bq = B[p, :].copy(), B[q, :].copy()
                B[p, :] = cth * Bp - s * Bq
                B[q, :] = s * Bp + cth * Bq
                B[p, q] = B[q, p] = 0.5 * (B[p, q] + B[q, p])
                Vp, Vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = cth * Vp - s * Vq
                V[:, q] = s * Vp + cth * Vq
    return np.diag(B).copy(), V


def dense_symmetric_eigs(A, node_measure=None) -> DenseSpectrum:
    """Full spectrum of a symmetric matrix by cyclic Jacobi rotations.

    Solves the generalized problem A v = lam * M v, M the node measure (ones
    without one), via the symmetric rescaling M^{-1/2} A M^{-1/2}; returned
    eigenvectors are orthonormal in the measure-weighted inner product.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix must be square")
    n = A.shape[0]
    if n > 2000:
        raise DimensionTooLarge("dense oracle limited to n <= 2000")
    scale = max(float(np.max(np.abs(A))), 1e-300)
    if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric")
    m = node_measure_array(node_measure, n)
    s = np.sqrt(m)
    B = A / np.outer(s, s)
    vals, vecs = _jacobi(0.5 * (B + B.T))
    vecs = vecs / s[:, None]
    order = np.argsort(vals)
    return DenseSpectrum(eigenvalues=vals[order], eigenvectors=vecs[:, order],
                         node_measure=m)


def linear_heat_solution(spectrum: DenseSpectrum, f, t: float) -> np.ndarray:
    """u(t) = sum_i c_i exp(-lam_i t) v_i with c_i = <f, v_i>_m."""
    if t < 0:
        raise BadParams("time must be nonnegative")
    V = spectrum.eigenvectors
    c = V.T @ (spectrum.node_measure * np.asarray(f, dtype=float))
    lam = np.clip(spectrum.eigenvalues, 0.0, None)
    return V @ (c * np.exp(-lam * t))


def distance_transform(graph: WeightedGraph) -> np.ndarray:
    """Shortest-path distance to the boundary set with edge length 1/weight."""
    if not graph.boundary:
        raise EmptyBoundary("distance transform needs a nonempty boundary")
    adj = [[] for _ in range(graph.n)]
    for (i, j, w) in graph.edges:
        length = 1.0 / w
        adj[i].append((j, length))
        adj[j].append((i, length))
    dist = np.full(graph.n, np.inf)
    heap = []
    for b in graph.boundary:
        dist[b] = 0.0
        heapq.heappush(heap, (0.0, b))
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for (nb, length) in adj[node]:
            nd = d + length
            if nd < dist[nb]:
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return dist


def brute_force_prox(F: FunctionalHandle, f, sigma: float) -> np.ndarray:
    """Nested grid search around f over the nodes not clamped by a Dirichlet
    boundary (at most 4); clamped nodes stay 0.

    The search spans +-2 around f with 21 points per axis over 6 levels.
    Each level refines by 5x, so its window spans two steps of the level
    before on either side.  A window of one step (10x) loses the minimizer
    in flat valleys of the objective: on 3-node paths it stopped up to 5e-2
    away.
    """
    f = clamp_boundary(F, as_signal(f, F.dim))
    free = np.flatnonzero(F.graph.interior_mask) if F.has_boundary \
        else np.arange(F.dim)
    k = len(free)
    if k > 4:
        raise DimensionTooLarge("brute-force prox supports at most 4 free nodes")
    m = F.measure
    axes = np.linspace(-1.0, 1.0, 21)
    offsets = np.stack(np.meshgrid(*([axes] * k), indexing="ij"),
                       axis=-1).reshape(-1, k)
    best = f
    r = 2.0
    for _ in range(6):
        U = np.tile(best, (len(offsets), 1))
        U[:, free] += r * offsets
        obj = 0.5 * np.sum(m * (U - f) ** 2, axis=1) + sigma * evaluate_batch(F, U)
        best = U[int(np.argmin(obj))]
        r /= 5.0
    return best


def eigen_profile(lam: float, p: float, t: float) -> float:
    """Temporal decay factor a(t) of a separable eigenfunction solution:
    (1-(2-p)*lam*t)^{1/(2-p)} for p != 2, exp(-lam*t) for p = 2, clipped at 0."""
    if lam < 0 or p < 1 or t < 0:
        raise BadParams("need lam >= 0, p >= 1, t >= 0")
    if p == 2.0:
        return math.exp(-lam * t)
    base = 1.0 - (2.0 - p) * lam * t
    if base <= 0.0:
        # p < 2: finite extinction; p > 2: base = 1 + (p-2) lam t > 0 always
        return 0.0
    return base ** (1.0 / (2.0 - p))
