"""Proximal operators for the functional catalog, and the certificates they
answer.

prox_{sigma J}(f) = argmin 0.5*||u - f||^2_m + sigma*J(u), with a certified
optimality gap per call and a brute-force oracle for cross-checking.

Routes by kind and degree, chosen only here (`_solve`, and `_edge_dual` for
the edgewise maps):
  quadratic_form   exact spectral filter in the stored eigenbasis
  l1               coordinate-wise soft threshold (measure cancels)
  linf             exact sort-based projection onto the scaled dual l1 ball
  dirichlet_p      L-BFGS on the (smooth) primal for p >= 2
  other graph      FISTA with adaptive restart on the dual edge-flow problem,
  kinds            with an edgewise map after each step: the box at degree 1,
                   whose primal is also rounded to its clusters; the prox of
                   the power conjugate for 1 < p < 2; the weighted-l1 ball for
                   lipschitz_sup.  Both routes certify with one Fenchel gap.

The same solver answers the dual questions for every kind:
`dual_ball_membership` by Moreau's identity prox_J = I - P_{K_J} for degree-1
J (1965), and `eigen_certificate` by the resolvent form of zeta in dJ(w),
prox_{sigma J}(w + sigma*zeta) = w (Bungert, Burger, Chambolle & Novaga, APDE
2021).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import edgecalc
from .core import (GRAPH_KINDS, FunctionalHandle, as_signal, check_count,
                   clamp_boundary, components, euler_residual, evaluate,
                   evaluate_batch, inner, norm, split_nullspace)
from .errors import (BadStep, DimensionTooLarge, NullspaceElement,
                     UnsupportedFunctional, ZeroSignal)

#: iteration cap of every prox solve, the certificate solves' included
MAX_ITER = 50000


@dataclass(frozen=True)
class ProxSolution:
    u: np.ndarray
    zeta: np.ndarray  # (f - u) / sigma, a subgradient at u when converged
    # dual FISTA iterations (graph_tv, lipschitz_sup, dirichlet_p with
    # p < 2), L-BFGS iterations (dirichlet_p with p >= 2), or 0
    iterations: int
    gap: float
    converged: bool


def prox(F: FunctionalHandle, f, sigma: float, tol: float = 1e-10,
         max_iter: int = MAX_ITER) -> ProxSolution:
    if not sigma > 0:
        raise BadStep(f"prox step must be positive, got {sigma}")
    if not tol > 0:
        raise BadStep("tolerance must be positive")
    check_count("max_iter", max_iter)
    # Dirichlet nodes are clamped throughout: the minimization runs over
    # boundary-zero signals, so zeta = (f - u)/sigma vanishes on the boundary
    f = clamp_boundary(F, as_signal(f, F.dim))
    u, its, gap, ok = _solve(F, f, sigma, tol, max_iter)
    return ProxSolution(u=u, zeta=(f - u) / sigma, iterations=its, gap=gap,
                        converged=ok)


def _solve(F, f, sigma, tol, max_iter):
    """prox_{sigma J}(f) for a clamped f and checked arguments, as
    (u, iterations, gap, converged)."""
    if F.kind == "quadratic_form":
        return _prox_quadratic(F, f, sigma, tol)
    if F.kind == "l1":
        return np.sign(f) * np.maximum(np.abs(f) - sigma, 0.0), 0, 0.0, True
    if F.kind == "linf":
        m = F.measure
        return f - edgecalc.project_weighted_l1(f, m, m, sigma), 0, 0.0, True
    if F.kind not in GRAPH_KINDS:
        raise UnsupportedFunctional(F.kind)
    if F.kind == "dirichlet_p" and F.degree >= 2.0:
        return _prox_dirichlet_smooth(F, f, sigma, tol, max_iter)
    return _prox_dual_fista(F, f, sigma, tol, max_iter)


def _prox_quadratic(F, f, sigma, tol):
    """The exact solution of (M + sigma*A) u = M f in the m-orthonormal
    eigenbasis V of A v = lam*M v that `make_functional` stores:
    u = V (V^T M f) / (1 + sigma*lam).  Its residual r bounds the gap by
    0.5*||r||^2/min(m)."""
    m = F.measure
    V = F._quad_eigvecs
    u = V @ ((V.T @ (m * f)) / (1.0 + sigma * F._quad_eigvals))
    r = m * (f - u) - sigma * (F.matrix @ u)
    gap = 0.5 * float(r @ r) / float(np.min(m))
    pval = 0.5 * norm(u - f, m) ** 2 + sigma * evaluate(F, u)
    return u, 0, gap, gap <= tol * (1.0 + abs(pval))


def _edge_dual(F, sigma):
    """The edge-flow side of the prox dual of sigma*J on a graph,
    min_psi 0.5*||div(psi) - f||^2_m + sum_e h*_e(psi_e), as a triple:

    - the edgewise prox of h*/L, L = F.graph.grad_div_opnorm, that
      `_prox_dual_fista` applies after each gradient step: the projection
      onto sum_e |psi_e| / w_e <= sigma (lipschitz_sup), onto the box
      |psi_e| <= sigma*w_e (degree 1), or for degree p > 1
      `edgecalc.prox_power_conjugate` with
      h*_e(psi) = sigma*w_e*|psi/(sigma*w_e)|^q/q, q = p/(p-1);
    - psi -> sum_e h*_e(psi_e), the conjugate value the duality gap
      subtracts: 0 for the indicators;
    - the box radii sigma*w for the box kinds, else None: an edge strictly
      inside its box joins two nodes on which the exact prox is equal.

    The edgecalc maps, and L, are looked up at call time, so a caller that
    only needs h* never computes L.
    """
    w = F.graph.edge_arrays[2]
    if F.kind == "lipschitz_sup":
        inv_w, ones = 1.0 / w, np.ones_like(w)
        return (lambda psi: edgecalc.project_weighted_l1(psi, inv_w, ones, sigma),
                _zero_conjugate, None)
    a = sigma * w
    if F.degree > 1.0:
        q, graph = F.degree / (F.degree - 1.0), F.graph
        return (lambda psi: edgecalc.prox_power_conjugate(
                    psi, a, graph.grad_div_opnorm, q),
                lambda psi: float(np.sum(a * np.abs(psi / a) ** q)) / q, None)
    lower = -a
    return lambda psi: edgecalc.project_box(psi, lower, a), _zero_conjugate, a


def _zero_conjugate(psi):
    return 0.0


def _fenchel_gap(F, f, sigma, u, d, hstar):
    """P(u) and the gap P(u) - D(psi) of the graph prox and its dual, from
    d = div(psi) and hstar = sum_e h*_e(psi_e) (`_edge_dual`):

        P(u)   = 0.5*||u - f||^2_m + sigma*J(u)
        D(psi) = <f, d>_m - 0.5*||d||^2_m - h*(psi)
    """
    m = F.measure
    pval = 0.5 * norm(u - f, m) ** 2 + sigma * evaluate(F, u)
    dval = -0.5 * norm(d, m) ** 2 + inner(f, d, m) - hstar
    return pval, pval - dval


def _prox_dual_fista(F, f, sigma, tol, max_iter):
    """FISTA (Beck & Teboulle 2009) on min_psi 0.5*||div(psi) - f||^2_m +
    sum_e h*_e(psi_e), with the edgewise prox of h*/L (`_edge_dual`)
    after each gradient step of 1/L, L = graph.grad_div_opnorm >= the norm of
    edge_diff o edge_div.  The momentum restarts when it points against the
    step (O'Donoghue & Candes, FoCM 2015); every fifth iterate is tested by
    the Fenchel gap at u = f - div(psi).

    For the box kinds a check may also try u rounded to its clusters
    (`_cluster_means`) and keep the candidate of smaller gap against the same
    psi.  The exact prox is constant on the components of the edges strictly
    inside the box (complementary slackness), and their means of f - div(psi)
    depend only on the clipped flows of their boundary edges: once the
    iterates have found the jump set the rounded u is exact, and the gap is
    the dual error alone where u = f - div(psi) carries its square root.
    Tries are rationed by the relative gap of u = f - div(psi): the first at
    sqrt(tol), each later one after a tenfold fall since the last.
    """
    graph = F.graph
    i_idx, j_idx, _ = graph.edge_arrays
    project, conjugate, box = _edge_dual(F, sigma)
    next_round = math.sqrt(tol) if box is not None else -math.inf

    def primal_gap(psi):
        nonlocal next_round
        d = edgecalc.edge_div(psi, graph)
        hstar = conjugate(psi)
        u = f - d
        pval, gap = _fenchel_gap(F, f, sigma, u, d, hstar)
        rel = gap / (1.0 + abs(pval))
        if rel <= next_round:
            next_round = rel / 10.0
            v = _cluster_means(F, f, psi, np.abs(psi) < box)
            pv, gv = _fenchel_gap(F, f, sigma, v, d, hstar)
            if gv < gap:
                return v, pv, gv
        return u, pval, gap

    psi = y = np.zeros(len(i_idx))
    best = primal_gap(psi)
    L = graph.grad_div_opnorm
    t = 1.0
    for its in range(1, max_iter + 1):
        r = edgecalc.edge_div(y, graph) - f
        psi_new = project(y - edgecalc.edge_diff(r, i_idx, j_idx) / L)
        step = psi_new - psi
        if np.einsum("i,i", y - psi_new, step) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = psi_new + ((t - 1.0) / t_new) * step
        psi, t = psi_new, t_new
        if its % 5 == 0 or its == max_iter:
            u, pval, gap = primal_gap(psi)
            if gap <= tol * (1.0 + abs(pval)):
                return u, its, gap, True
            if gap < best[2]:
                best = (u, pval, gap)
    u, pval, gap = best
    return u, its, gap, gap <= tol * (1.0 + abs(pval))


def _cluster_means(F, f, psi, joined):
    """f - div(psi) replaced by its m-weighted mean on each component of the
    edges flagged in `joined`, and by 0 on a component that holds a Dirichlet
    node.  The flows inside a component cancel in its mean, so the mean is
    taken from f and the flows on the edges that leave the component."""
    i_idx, j_idx, _ = F.graph.edge_arrays
    m, n = F.measure, len(f)
    root = components(n, i_idx[joined], j_idx[joined])
    ri, rj = root[i_idx], root[j_idx]
    cut = ri != rj
    # m_k*div(psi)_k adds the flows that end at k and takes those that start
    total = (np.bincount(root, weights=m * f, minlength=n)
             - np.bincount(rj[cut], weights=psi[cut], minlength=n)
             + np.bincount(ri[cut], weights=psi[cut], minlength=n))
    mass = np.bincount(root, weights=m, minlength=n)
    # only the roots carry mass, so only they are divided
    mean = np.divide(total, mass, out=np.zeros(n), where=mass > 0.0)
    mean[root[~F.graph.interior_mask]] = 0.0
    return mean[root]


def _prox_dirichlet_smooth(F, f, sigma, tol, max_iter):
    """L-BFGS on the smooth primal over all nodes: a clamped node starts at
    0 with zero gradient, so it stays there."""
    graph = F.graph
    i_idx, j_idx, w = graph.edge_arrays
    m = graph.node_measure
    p = F.degree
    _, conjugate, _ = _edge_dual(F, sigma)

    def div_flow(u):
        # the flow sigma*w*|du|^(p-1)*sign(du) that is the gradient of
        # sigma*J at u, and its divergence
        du = edgecalc.edge_diff(u, i_idx, j_idx)
        phi = sigma * w * np.abs(du) ** (p - 1.0) * np.sign(du)
        return du, phi, edgecalc.edge_div(phi, graph)

    def objective(u):
        du, _, d = div_flow(u)
        val = 0.5 * float(np.sum(m * (u - f) ** 2))
        val += sigma / p * float(np.sum(w * np.abs(du) ** p))
        return val, m * (u - f + d)

    u = f
    its = 0
    ftol = 1e-14
    for _ in range(6):
        res = minimize(objective, u, jac=True, method="L-BFGS-B",
                       options={"maxiter": max_iter, "ftol": ftol,
                                "gtol": 1e-12, "maxcor": 20})
        u = res.x
        its += res.nit
        _, phi, d = div_flow(u)
        pval, gap = _fenchel_gap(F, f, sigma, u, d, conjugate(phi))
        if gap <= tol * (1.0 + abs(pval)):
            return u, its, gap, True
        ftol *= 1e-2
    return u, its, gap, False


def brute_force_prox(F: FunctionalHandle, f, sigma: float) -> np.ndarray:
    """Independent oracle: nested grid search around f over the nodes not
    clamped by a Dirichlet boundary (at most 4); clamped nodes stay 0.

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


def prox_nonvanishing_bound(F: FunctionalHandle, f) -> float:
    """sigma < ||f - P_N f||^2 / J(f) guarantees prox(f) != P_N f."""
    f = as_signal(f, F.dim)
    jf = evaluate(F, f)
    ng, in_null = split_nullspace(F, f)[2:]
    if in_null or jf <= 0.0:
        raise NullspaceElement("f is in the nullspace: bound undefined")
    return ng ** 2 / jf


#: tolerance of the certificate solves
_CERT_TOL = 1e-12


def dual_ball_membership(F: FunctionalHandle, zeta, tol: float = 1e-9) -> bool:
    """Is zeta within tol*(1 + ||zeta||_m) of K_J = dJ(0) = {z : <z,u> <=
    J(u) for all u}?  For one-homogeneous J only, where ||prox_J(zeta)||_m is
    that distance; Dirichlet nodes carry no constraint."""
    if F.degree != 1:
        raise UnsupportedFunctional("dual ball only defined for degree-1 functionals")
    zeta = clamp_boundary(F, as_signal(zeta, F.dim))
    u = _solve(F, zeta, 1.0, _CERT_TOL, MAX_ITER)[0]
    return norm(u, F.measure) <= tol * (1.0 + norm(zeta, F.measure))


@dataclass(frozen=True)
class EigenCertificate:
    """Residuals of (w, lam), zeta = lam*||w||^(p-2)*w, that vanish exactly
    for a true eigenpair.  subgradient_gap = ||prox_{sigma J}(w + sigma*zeta)
    - w||_m / sigma, sigma = 1/lam (1 if lam <= 0), is 0 exactly when zeta is
    in dJ(w), and at most dist(zeta, dJ(w)) as the prox is nonexpansive; it
    reads the accuracy of its solve (tol 1e-12) in place of 0.  On a graph_tv
    (or p = 1) eigenvector, constant on clusters, the solve rounds to them
    (`_prox_dual_fista`) and it reads exactly 0."""

    euler_residual: float
    subgradient_gap: float

    @property
    def max_residual(self) -> float:
        return max(self.euler_residual, self.subgradient_gap)


def eigen_certificate(F: FunctionalHandle, w, lam: float) -> EigenCertificate:
    w = as_signal(w, F.dim)
    m = F.measure
    nw = norm(w, m)
    if nw == 0.0:
        raise ZeroSignal("cannot certify the zero signal")
    zeta = lam * nw ** (F.degree - 2.0) * w
    sigma = 1.0 / lam if lam > 0 else 1.0
    u = _solve(F, clamp_boundary(F, w + sigma * zeta), sigma, _CERT_TOL,
               MAX_ITER)[0]
    return EigenCertificate(euler_residual(F, w, zeta), norm(u - w, m) / sigma)
