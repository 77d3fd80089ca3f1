"""Proximal operators for the functional catalog.

prox_{sigma J}(f) = argmin 0.5*||u - f||^2_m + sigma*J(u), with a certified
optimality gap per call and a brute-force oracle for cross-checking.

Methods by kind:
  quadratic_form   conjugate gradients on (M + sigma*A) u = M f
  l1               coordinate-wise soft threshold (measure cancels)
  linf             exact sort-based projection onto the scaled dual l1 ball
  graph_tv         FISTA with adaptive restart on the dual edge-flow
                   problem, box constraint (also dirichlet_p with p = 1)
  lipschitz_sup    FISTA with adaptive restart on the dual, weighted-l1
                   coupling of edge flows
  dirichlet_p      the same dual kernel for 1 < p < 2, with the edgewise prox
                   of the conjugate sigma*w*|psi/(sigma*w)|^q/q, q = p/(p-1),
                   in place of a projection; L-BFGS on the (smooth) primal
                   for p >= 2.  Both certify with the Fenchel gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.optimize import minimize

from . import edgecalc
from .core import (
    FunctionalHandle,
    clamp_boundary,
    dual_flow_prox,
    evaluate,
    evaluate_batch,
    inner,
    norm,
    project_nullspace,
    as_signal,
)
from .errors import BadStep, DimensionTooLarge, NullspaceElement, UnsupportedFunctional


@dataclass(frozen=True)
class ProxSolution:
    u: np.ndarray
    zeta: np.ndarray  # (f - u) / sigma, a subgradient at u when converged
    # dual FISTA iterations (graph_tv, lipschitz_sup, dirichlet_p with
    # p < 2), L-BFGS iterations (dirichlet_p with p >= 2), CG steps or 0
    iterations: int
    gap: float
    converged: bool


def prox(F: FunctionalHandle, f, sigma: float, tol: float = 1e-10,
         max_iter: int = 50000) -> ProxSolution:
    if not sigma > 0:
        raise BadStep(f"prox step must be positive, got {sigma}")
    if not tol > 0:
        raise BadStep("tolerance must be positive")
    # Dirichlet nodes are clamped throughout: the minimization runs over
    # boundary-zero signals, so zeta = (f - u)/sigma vanishes on the boundary
    f = clamp_boundary(F, as_signal(f, F.dim))

    if F.kind == "quadratic_form":
        u, its, gap, ok = _prox_quadratic(F, f, sigma, tol, max_iter)
    elif F.kind == "l1":
        u = np.sign(f) * np.maximum(np.abs(f) - sigma, 0.0)
        its, gap, ok = 0, 0.0, True
    elif F.kind == "linf":
        m = F.measure
        u = f - edgecalc.project_weighted_l1(f, m, m, sigma)
        its, gap, ok = 0, 0.0, True
    elif F.kind in ("graph_tv", "lipschitz_sup") or (
            F.kind == "dirichlet_p" and F.p < 2.0):
        u, its, gap, ok = _prox_dual_fista(F, f, sigma, tol, max_iter)
    elif F.kind == "dirichlet_p":
        u, its, gap, ok = _prox_dirichlet_smooth(F, f, sigma, tol, max_iter)
    else:
        raise UnsupportedFunctional(F.kind)

    zeta = (f - u) / sigma
    return ProxSolution(u=u, zeta=zeta, iterations=its, gap=gap, converged=ok)


def _prox_quadratic(F, f, sigma, tol, max_iter):
    m = F.measure
    A = F.matrix
    b = m * f

    def apply_B(x):
        return m * x + sigma * (A @ x)

    u = f.copy()
    r = b - apply_B(u)
    p = r.copy()
    rr = float(r @ r)
    nb = math.sqrt(float(b @ b)) + 1e-300
    # CG converges in at most n steps in exact arithmetic; drive the residual
    # to machine precision so the gap bound 0.5*||r||^2/min(m) is negligible
    target = 1e-15 * nb
    its = 0
    for its in range(1, min(max_iter, 20 * len(f) + 50) + 1):
        if math.sqrt(rr) <= target:
            break
        Bp = apply_B(p)
        pBp = float(p @ Bp)
        if pBp <= 0.0:
            break
        alpha = rr / pBp
        u = u + alpha * p
        r = r - alpha * Bp
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    gap = 0.5 * rr / float(np.min(m))
    pval = 0.5 * norm(u - f, m) ** 2 + sigma * evaluate(F, u)
    ok = gap <= tol * (1.0 + abs(pval))
    return u, its, gap, ok


def _prox_dual_fista(F, f, sigma, tol, max_iter):
    graph = F.graph
    i_idx, j_idx, _ = graph.edge_arrays
    m = graph.node_measure
    interior = graph.interior_mask
    fc = f.copy()
    fc[~interior] = 0.0

    project, conjugate = dual_flow_prox(F, sigma)

    def primal_dual(psi):
        d = edgecalc.edge_div(psi, i_idx, j_idx, m)
        d[~interior] = 0.0
        u = fc - d
        u[~interior] = 0.0
        pval = 0.5 * norm(u - fc, m) ** 2 + sigma * evaluate(F, u)
        dval = -0.5 * norm(d, m) ** 2 + inner(fc, d, m) - conjugate(psi)
        return u, pval, pval - dval

    u, pval, gap = primal_dual(np.zeros(len(i_idx)))
    best = (u, gap)
    its = 0
    iterates = edgecalc.dual_fista(fc, graph, project)
    for its, psi in enumerate(islice(iterates, max_iter), start=1):
        if its % 5 == 0 or its == max_iter:
            u, pval, gap = primal_dual(psi)
            if gap < best[1]:
                best = (u, gap)
            if gap <= tol * (1.0 + abs(pval)):
                return u, its, gap, True
    u, gap = best
    pval = 0.5 * norm(u - fc, m) ** 2 + sigma * evaluate(F, u)
    return u, its, gap, gap <= tol * (1.0 + abs(pval))


def _prox_dirichlet_smooth(F, f, sigma, tol, max_iter):
    graph = F.graph
    i_idx, j_idx, w = graph.edge_arrays
    m = graph.node_measure
    interior = graph.interior_mask
    p = F.p
    q = p / (p - 1.0)
    fc = f.copy()
    fc[~interior] = 0.0
    idx_int = np.where(interior)[0]

    def full(x):
        u = np.zeros(F.dim)
        u[idx_int] = x
        return u

    def objective(x):
        u = full(x)
        d = edgecalc.edge_diff(u, i_idx, j_idx)
        val = 0.5 * float(np.sum(m[idx_int] * (x - fc[idx_int]) ** 2))
        val += sigma / p * float(np.sum(w * np.abs(d) ** p))
        phi = sigma * w * np.abs(d) ** (p - 1.0) * np.sign(d)
        div = edgecalc.edge_div(phi, i_idx, j_idx, m)[idx_int]
        grad = m[idx_int] * (x - fc[idx_int] + div)
        return val, grad

    def fenchel_gap(x):
        u = full(x)
        d = edgecalc.edge_diff(u, i_idx, j_idx)
        pval = 0.5 * norm(u - fc, m) ** 2 + sigma * evaluate(F, u)
        phi = sigma * w * np.abs(d) ** (p - 1.0) * np.sign(d)
        y = -m[idx_int] * edgecalc.edge_div(phi, i_idx, j_idx, m)[idx_int]
        fstar = float(y @ fc[idx_int]) + 0.5 * float(np.sum(y * y / m[idx_int]))
        gstar = float(np.sum((sigma * w) ** (1.0 - q) * np.abs(phi) ** q)) / q
        dval = -fstar - gstar
        return pval, pval - dval

    x = fc[idx_int].copy()
    its = 0
    ftol = 1e-14
    for _ in range(6):
        res = minimize(objective, x, jac=True, method="L-BFGS-B",
                       options={"maxiter": max_iter, "ftol": ftol,
                                "gtol": 1e-12, "maxcor": 20})
        x = res.x
        its += res.nit
        pval, gap = fenchel_gap(x)
        if gap <= tol * (1.0 + abs(pval)):
            return full(x), its, gap, True
        ftol *= 1e-2
    return full(x), its, gap, False


def brute_force_prox(F: FunctionalHandle, f, sigma: float, radius: float = 2.0,
                     levels: int = 6, points: int = 21) -> np.ndarray:
    """Independent oracle: nested grid search around f over the nodes not
    clamped by a Dirichlet boundary (at most 4); clamped nodes stay 0.

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
    axes = np.linspace(-1.0, 1.0, points)
    offsets = np.stack(np.meshgrid(*([axes] * k), indexing="ij"),
                       axis=-1).reshape(-1, k)
    best = f
    r = float(radius)
    for _ in range(levels):
        U = np.tile(best, (len(offsets), 1))
        U[:, free] += r * offsets
        obj = 0.5 * np.sum(m * (U - f) ** 2, axis=1) + sigma * evaluate_batch(F, U)
        best = U[int(np.argmin(obj))]
        r /= 5.0
    return best


def prox_nonvanishing_bound(F: FunctionalHandle, f) -> float:
    """sigma < ||f - P_N f||^2 / J(f) guarantees prox(f) != P_N f."""
    f = as_signal(f, F.dim)
    jf = evaluate(F, f)
    if jf <= 0.0:
        raise NullspaceElement("J(f) = 0: bound undefined")
    g = f - project_nullspace(F, f)
    return norm(g, F.measure) ** 2 / jf
