"""Proximal operators for the functional catalog, and the certificates they
answer.

prox_{sigma J}(f) = argmin 0.5*||u - f||^2_m + sigma*J(u), with a certified
optimality gap per call; `oracles.brute_force_prox` cross-checks it.

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
                   lipschitz_sup.  Both routes certify with the gap in its
                   Fenchel-Young form (`_fenchel_young`), edge by edge, so no
                   term of the size of f cancels and in the box none is < 0.

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
                   norm, split_nullspace)
from .errors import (BadStep, NullspaceElement, UnsupportedFunctional,
                     ZeroSignal)

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
    min_psi 0.5*||div(psi) - f||^2_m + sum_e h*_e(psi_e), as a quadruple:

    - the edgewise prox of h*/L, L = F.graph.grad_div_opnorm, that
      `_prox_dual_fista` applies after each gradient step: the projection
      onto sum_e |psi_e| / w_e <= sigma (lipschitz_sup), onto the box
      |psi_e| <= sigma*w_e (degree 1), or for degree p > 1
      `edgecalc.prox_power_conjugate` with
      h*_e(psi) = sigma*w_e*|psi/(sigma*w_e)|^q/q, q = p/(p-1);
    - psi -> sum_e h*_e(psi_e): 0 for the indicators;
    - the box radii sigma*w for the box kinds, else None: an edge strictly
      inside its box joins two nodes on which the exact prox is equal;
    - du -> h(du) = sigma*J(u) at du = edge_diff(u), as the edge terms
      sigma*w_e*|du_e|^p/p, or for lipschitz_sup, whose J sums no terms,
      as the value sigma*max_e w_e*|du_e|.

    The edgecalc maps, and L, are looked up at call time, so a caller that
    only needs the gap never computes L.
    """
    w = F.graph.edge_arrays[2]
    if F.kind == "lipschitz_sup":
        inv_w, ones = 1.0 / w, np.ones_like(w)
        return (lambda psi: edgecalc.project_weighted_l1(psi, inv_w, ones, sigma),
                lambda psi: 0.0, None,
                lambda du: sigma * np.max(w * np.abs(du), initial=0.0))
    a = sigma * w
    if F.degree > 1.0:
        p, q, graph = F.degree, F.degree / (F.degree - 1.0), F.graph
        return (lambda psi: edgecalc.prox_power_conjugate(
                    psi, a, graph.grad_div_opnorm, q),
                lambda psi: float(np.sum(a * np.abs(psi / a) ** q)) / q, None,
                lambda du: a * np.abs(du) ** p / p)
    lower = -a
    return (lambda psi: edgecalc.project_box(psi, lower, a), lambda psi: 0.0, a,
            lambda du: a * np.abs(du))


def _fenchel_young(h, hstar, psi, dv, m, r, miss=None):
    """P(v) = 0.5*||r||^2_m + sigma*J(v), r = v - f, and the prox gap
    P(v) - D(psi) = h(dv) + h*(psi) - <psi, dv> + 0.5*||miss||^2_m at
    dv = edge_diff(v), miss = v - (f - div(psi)) (None when v is f -
    div(psi)), h and h* from `_edge_dual`.  It is P - D because <v,
    div(psi)>_m = <psi, dv> for a boundary-zero v, but subtracts no term of
    the size of f.  Edge terms are paired edge by edge, and in the box
    |psi_e*dv_e| <= sigma*w_e*|dv_e| after rounding too, so no box kind's
    gap is negative.
    """
    terms = h(dv)
    pval = _half_sq(r, m) + float(terms.sum())
    terms -= psi * dv if np.ndim(terms) else np.einsum("i,i", psi, dv)
    gap = float(terms.sum()) + hstar(psi)
    if miss is not None:
        gap += _half_sq(miss, m)
    return pval, gap


def _half_sq(x, m):
    """0.5*||x||^2_m, by einsum: see the edgecalc module docstring."""
    return 0.5 * float(np.einsum("i,i,i", m, x, x))


def _prox_dual_fista(F, f, sigma, tol, max_iter):
    """FISTA (Beck & Teboulle 2009) on min_psi 0.5*||div(psi) - f||^2_m +
    sum_e h*_e(psi_e), with the edgewise prox of h*/L (`_edge_dual`)
    after each gradient step of 1/L, L = graph.grad_div_opnorm >= the norm of
    edge_diff o edge_div.  The momentum restarts when it points against the
    step (O'Donoghue & Candes, FoCM 2015); every fifth iterate is tested by
    the Fenchel-Young gap at u = f - div(psi).  The step writes only into
    its own buffers, never into f or an array it returns.

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
    graph, m = F.graph, F.measure
    i_idx, j_idx, _ = graph.edge_arrays
    project, conjugate, box, h = _edge_dual(F, sigma)
    next_round = math.sqrt(tol) if box is not None else -math.inf

    def primal_gap(psi):
        nonlocal next_round
        d = edgecalc.edge_div(psi, graph)
        u = f - d
        pval, gap = _fenchel_young(h, conjugate, psi,
                                   edgecalc.edge_diff(u, i_idx, j_idx), m, d)
        rel = gap / (1.0 + abs(pval))
        if rel <= next_round:
            next_round = rel / 10.0
            v = _cluster_means(F, f, psi, np.abs(psi) < box)
            pv, gv = _fenchel_young(h, conjugate, psi,
                                    edgecalc.edge_diff(v, i_idx, j_idx), m,
                                    v - f, v - u)
            if gv < gap:
                return v, pv, gv
        return u, pval, gap

    psi, y, step = (np.zeros(len(i_idx)) for _ in range(3))
    best = primal_gap(psi)
    L = graph.grad_div_opnorm
    t = 1.0
    for its in range(1, max_iter + 1):
        r = edgecalc.edge_div(y, graph)
        r -= f
        z = edgecalc.edge_diff(r, i_idx, j_idx)
        z *= -1.0 / L
        z += y
        psi_new = project(z)
        np.subtract(psi_new, psi, out=step)
        y -= psi_new
        if np.einsum("i,i", y, step) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        np.multiply(step, (t - 1.0) / t_new, out=y)
        y += psi_new
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
    graph, m, p = F.graph, F.measure, F.degree
    i_idx, j_idx, w = graph.edge_arrays
    _, conjugate, _, h = _edge_dual(F, sigma)

    def div_flow(u):
        # the flow sigma*w*|du|^(p-1)*sign(du) that is the gradient of
        # sigma*J at u, and its divergence
        du = edgecalc.edge_diff(u, i_idx, j_idx)
        phi = sigma * w * np.abs(du) ** (p - 1.0) * np.sign(du)
        return du, phi, edgecalc.edge_div(phi, graph)

    def objective(u):
        du, _, d = div_flow(u)
        return _half_sq(u - f, m) + float(h(du).sum()), m * (u - f + d)

    u, its, ftol = f, 0, 1e-14
    for _ in range(6):
        res = minimize(objective, u, jac=True, method="L-BFGS-B",
                       options={"maxiter": max_iter, "ftol": ftol,
                                "gtol": 1e-12, "maxcor": 20})
        u = res.x
        its += res.nit
        # against psi = phi, whose f - div(phi) misses u by u - f + d
        du, phi, d = div_flow(u)
        pval, gap = _fenchel_young(h, conjugate, phi, du, m, u - f, u - f + d)
        if gap <= tol * (1.0 + abs(pval)):
            return u, its, gap, True
        ftol *= 1e-2
    return u, its, gap, False


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
