"""Proximal operators for the functional catalog, and the certificates they
answer.

prox_{sigma J}(f) = argmin 0.5*||u - f||^2_m + sigma*J(u), with a certified
optimality gap per call; `oracles.brute_force_prox` cross-checks it.

Routes by kind and degree, chosen only here (`_solve`, and `_edge_dual` for
the edgewise maps):
  quadratic_form   exact spectral filter in the stored eigenbasis
  l1               coordinate-wise soft threshold (measure cancels)
  linf             exact projection onto the scaled dual l1 ball by Newton
  dirichlet_p      Newton's method on the (smooth) primal for p >= 2, each
                   step by conjugate gradients on the edge kernels (`minimize`)
  other graph      FISTA with momentum one and gradient restart on the dual
  kinds            edge-flow problem (Liang, Luo & Schoenlieb, SIAM J. Sci.
                   Comput. 2022; O'Donoghue & Candes, FoCM 2015), with an
                   edgewise map after each step: the box at degree 1,
                   whose primal is also rounded to its clusters; the prox of
                   the power conjugate for 1 < p < 2; the weighted-l1 ball for
                   lipschitz_sup, by Newton from the solve's last multiplier,
                   whose primal is also rounded to one slope level on the
                   edges that carry flow.
                   Both routes certify with the gap in its Fenchel-Young form
                   (`_fenchel_young`), edge by edge, so no term of the size of
                   f cancels and in the box none is < 0.
Every route stops at |gap| + 2^-52*|P| <= tol*(1 + |P|/scale) < inf
(`_certified`), since a gap <= 0 is rounding, P the prox objective and scale
a caller's unit of it: `run_flow` passes dist_0^2, so its flow from s*f with
tol*s^2 takes the steps and iterations of the flow from f.
The dual kernel returns the edge flow psi of its certificate as
`ProxSolution.psi` (None on the other routes), and starts from a caller's
`psi0` in place of zero: `power_method` passes the previous solve's flow to
`prox`, and its last one over (1 - mu) to `eigen_certificate`.
The kernel copies the start and writes only into its own buffers, never
into f, psi0 or an array it returns.  `run_flow` and `dual_ball_membership`
start every solve from zero.

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

from . import edgecalc
from .core import (GRAPH_KINDS, FunctionalHandle, as_signal, check_count,
                   clamp_boundary, components, euler_residual, evaluate,
                   norm, potentials, split_nullspace)
from .errors import (BadParams, BadStep, NullspaceElement,
                     UnsupportedFunctional, ZeroSignal)

#: iteration cap of every prox solve, the certificate solves' included
MAX_ITER = 50000
#: `minimize`'s largest CG forcing term and Armijo's constant
_FORCING, _ARMIJO = 0.25, 1e-4


@dataclass(frozen=True)
class ProxSolution:
    u: np.ndarray
    zeta: np.ndarray  # (f - u) / sigma, a subgradient at u when converged
    # dual FISTA iterations (graph_tv, lipschitz_sup, dirichlet_p with
    # p < 2), Newton steps (dirichlet_p with p >= 2), or 0
    iterations: int
    gap: float
    converged: bool
    # the dual edge flow that certifies u with gap on the dual kernel's
    # routes, else None
    psi: np.ndarray | None


def prox(F: FunctionalHandle, f, sigma: float, tol: float = 1e-10,
         max_iter: int = MAX_ITER, scale: float = 1.0,
         psi0=None) -> ProxSolution:
    """prox_{sigma J}(f).  `psi0`, an edge flow, starts the dual kernel in
    place of psi = 0; the other routes ignore it.  It changes how soon the
    solve certifies, not what: the answer is still accepted by its gap."""
    for name, value in (("prox step", sigma), ("tolerance", tol),
                        ("objective scale", scale)):
        if not 0 < value < math.inf:
            raise BadStep(f"{name} must be finite and positive, got {value}")
    check_count("max_iter", max_iter)
    # Dirichlet nodes are clamped throughout: the minimization runs over
    # boundary-zero signals, so zeta = (f - u)/sigma vanishes on the boundary
    f = clamp_boundary(F, as_signal(f, F.dim))
    u, its, gap, ok, psi = _solve(F, f, sigma, tol, max_iter, scale, psi0)
    return ProxSolution(u=u, zeta=(f - u) / sigma, iterations=its, gap=gap,
                        converged=ok, psi=psi)


def _solve(F, f, sigma, tol, max_iter, scale=1.0, psi0=None):
    """prox_{sigma J}(f) for a clamped f and checked arguments, as
    (u, iterations, gap, converged, psi), psi None off the dual kernel."""
    if F.kind == "quadratic_form":
        return *_prox_quadratic(F, f, sigma, tol, scale), None
    if F.kind == "l1":
        return np.sign(f) * np.maximum(np.abs(f) - sigma, 0.0), 0, 0.0, True, None
    if F.kind == "linf":
        x, _ = edgecalc.project_weighted_l1(f, F.measure, F.measure, sigma)
        return f - x, 0, 0.0, True, None
    if F.kind not in GRAPH_KINDS:
        raise UnsupportedFunctional(F.kind)
    if F.kind == "dirichlet_p" and F.degree >= 2.0:
        return *minimize(F, f, sigma, tol, max_iter, scale), None
    return _prox_dual_fista(F, f, sigma, tol, max_iter, scale, psi0)


def _certified(gap, pval, tol, scale):
    """The stopping rule of every route (module docstring), P = pval."""
    return abs(gap) + 2.0 ** -52 * abs(pval) <= tol * (1.0 + abs(pval) / scale) \
        < math.inf


def _prox_quadratic(F, f, sigma, tol, scale):
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
    return u, 0, gap, _certified(gap, pval, tol, scale)


def _edge_dual(F, sigma):
    """The edge-flow side of the prox dual of sigma*J on a graph,
    min_psi 0.5*||div(psi) - f||^2_m + sum_e h*_e(psi_e), as a quadruple:

    - the edgewise prox of h*/L, L = F.graph.grad_div_opnorm, that
      `_prox_dual_fista` applies after each gradient step: the projection
      onto sum_e |psi_e| / w_e <= sigma (lipschitz_sup), from the multiplier
      of the map's last call and with its ratios computed once (a map serves
      one solve), onto the box
      |psi_e| <= sigma*w_e (degree 1), or for degree p > 1
      `edgecalc.prox_power_conjugate` with
      h*_e(psi) = sigma*w_e*|psi/(sigma*w_e)|^q/q, q = p/(p-1);
    - psi -> sum_e h*_e(psi_e): 0 for the indicators;
    - (f, psi) -> a rounded primal candidate, or None for 1 < p < 2: the
      cluster means (`_cluster_means`) for the box kinds, where an edge
      strictly inside its box joins two nodes on which the exact prox is
      equal, and the slope levels (`_slope_levels`) for lipschitz_sup, where
      an edge that carries flow attains the exact prox's largest slope;
    - du -> h(du) = sigma*J(u) at du = edge_diff(u), as the edge terms
      sigma*w_e*|du_e|^p/p, or for lipschitz_sup, whose J sums no terms,
      as the value sigma*max_e w_e*|du_e|.

    The edgecalc maps, and L, are looked up at call time, so a caller that
    only needs the gap never computes L.
    """
    w = F.graph.edge_arrays[2]
    if F.kind == "lipschitz_sup":
        inv_w, ones, t = 1.0 / w, np.ones_like(w), 0.0
        ratios = inv_w, inv_w * inv_w  # (a/b, a*a/b) at a = 1/w, b = 1

        def project(psi):
            nonlocal t
            x, t = edgecalc.project_weighted_l1(psi, inv_w, ones, sigma, t,
                                                ratios=ratios)
            return x
        return (project, lambda psi: 0.0,
                lambda f, psi: _slope_levels(F, f, psi, sigma),
                lambda du: sigma * np.max(w * np.abs(du), initial=0.0))
    a = sigma * w
    if F.degree > 1.0:
        p, q, graph = F.degree, F.degree / (F.degree - 1.0), F.graph
        return (lambda psi: edgecalc.prox_power_conjugate(
                    psi, a, graph.grad_div_opnorm, q),
                lambda psi: float(np.sum(a * np.abs(psi / a) ** q)) / q, None,
                lambda du: a * np.abs(du) ** p / p)
    lower = -a
    return (lambda psi: edgecalc.project_box(psi, lower, a), lambda psi: 0.0,
            lambda f, psi: _cluster_means(F, f, psi, np.abs(psi) < a),
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


def _prox_dual_fista(F, f, sigma, tol, max_iter, scale, psi0=None):
    """Accelerated forward-backward (Beck & Teboulle 2009) on min_psi
    0.5*||div(psi) - f||^2_m + sum_e h*_e(psi_e), with the edgewise prox of
    h*/L (`_edge_dual`) after each gradient step of 1/L, L =
    graph.grad_div_opnorm >= the norm of edge_diff o edge_div.  The momentum
    is one, y = 2*psi_new - psi, the greedy scheme of Liang, Luo & Schoenlieb
    (SIAM J. Sci. Comput. 2022), and drops to zero, y = psi_new, for the
    next step when it points against the step: the gradient restart of
    O'Donoghue & Candes (FoCM 2015).  The scheme has no O(1/k^2) bound of
    its own; what makes an answer correct is the certificate: every fifth
    iterate is tested by the Fenchel-Young gap at u = f - div(psi).  It
    starts from psi = y = psi0, copied, or from zero, and returns the psi of
    its certificate with it.  The step writes only into its own buffers,
    never into f, psi0 or an array it returns.

    For the box kinds and lipschitz_sup a check may also try u rounded by
    `_edge_dual`'s hook and keep the candidate of smaller gap against the
    same psi.  By complementary slackness the exact prox is constant on the
    components of the box kinds' edges strictly inside the box, whose means
    of f - div(psi) depend only on the clipped flows of their boundary edges
    (`_cluster_means`); and for lipschitz_sup it climbs at its largest slope
    along every edge that carries flow, in the flow's direction
    (`_slope_levels`).  Once the iterates have found the jump set, or the
    active edges, the rounded u is exact, and the gap is the dual error
    alone where u = f - div(psi) carries its square root.  Tries are
    rationed by the relative gap of u = f - div(psi): the first at
    sqrt(tol), each later one after a tenfold fall since the last.
    """
    graph, m = F.graph, F.measure
    i_idx, j_idx, _ = graph.edge_arrays
    project, conjugate, rounded, h = _edge_dual(F, sigma)
    next_round = math.sqrt(tol) if rounded is not None else -math.inf

    def primal_gap(psi):
        nonlocal next_round
        d = edgecalc.edge_div(psi, graph)
        u = f - d
        pval, gap = _fenchel_young(h, conjugate, psi,
                                   edgecalc.edge_diff(u, i_idx, j_idx), m, d)
        rel = gap / (1.0 + abs(pval))
        if rel <= next_round:
            next_round = rel / 10.0
            v = rounded(f, psi)
            pv, gv = _fenchel_young(h, conjugate, psi,
                                    edgecalc.edge_diff(v, i_idx, j_idx), m,
                                    v - f, v - u)
            if gv < gap:
                return v, pv, gv
        return u, pval, gap

    psi, y, step = (np.zeros(len(i_idx)) for _ in range(3))
    if psi0 is not None:
        if np.shape(psi0) != psi.shape:
            raise BadParams(f"psi0 needs one entry per edge ({len(psi)}), "
                            f"got shape {np.shape(psi0)}")
        psi[:] = psi0
        y[:] = psi0
    best = None  # set by the check at its == max_iter at the latest
    L = graph.grad_div_opnorm
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
            np.copyto(y, psi_new)
        else:
            np.add(psi_new, step, out=y)
        psi = psi_new
        if its % 5 == 0 or its == max_iter:
            u, pval, gap = primal_gap(psi)
            if _certified(gap, pval, tol, scale):
                return u, its, gap, True, psi
            if best is None or gap < best[2]:
                best = (u, pval, gap, psi)
    u, pval, gap, psi = best
    return u, its, gap, _certified(gap, pval, tol, scale), psi


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


def _slope_levels(F, f, psi, sigma):
    """The lipschitz_sup candidate v = c + t*g for the flow psi.  On the
    edges that carry flow the exact prox has w_e*du_e = sign(psi_e)*t, t its
    Lipschitz constant, so it is t times the potentials pi of
    `core.potentials` plus one offset on each of their components.  The
    offset is fixed by the m-mean of f - t*pi (flows leave a component only
    on edges without flow), or by 0 at the component's Dirichlet nodes, whose
    mean pi pins it; so v = c + t*g with c the mean of f or 0, and g pi less
    its mean or its pin, 0 on Dirichlet nodes.  The level t >= 0 minimizes
    0.5*||v - f||^2_m + sigma*t, the prox objective of v while the edges
    without flow stay below t: t = max((<f, g>_m - sigma)/||g||^2_m, 0)."""
    i_idx, j_idx, w = F.graph.edge_arrays
    m, n, clamped = F.measure, len(f), ~F.graph.interior_mask
    active = psi != 0.0
    root, pi = potentials(n, i_idx[active], j_idx[active],
                          np.sign(psi[active]) / w[active])
    mass = np.bincount(root, weights=m, minlength=n)
    # only the roots carry mass, so only they are divided
    c = np.divide(np.bincount(root, weights=m * f, minlength=n), mass,
                  out=np.zeros(n), where=mass > 0.0)
    ref = np.divide(np.bincount(root, weights=m * pi, minlength=n), mass,
                    out=np.zeros(n), where=mass > 0.0)
    pins = np.bincount(root[clamped], minlength=n)
    pinned = pins > 0
    c[pinned] = 0.0
    ref[pinned] = np.bincount(root[clamped], weights=pi[clamped],
                              minlength=n)[pinned] / pins[pinned]
    g = pi - ref[root]
    g[clamped] = 0.0
    # pairwise sums, not einsum's running one: sigma cancels most of
    # <f, g>_m at an eigenvector, whose certificate reads what is left
    mg = m * g
    a = float(np.sum(mg * g))
    t = max((float(np.sum(mg * f)) - sigma) / a, 0.0) if a > 0.0 else 0.0
    return c[root] + t * g


def minimize(F, f, sigma, tol, max_iter, scale=1.0):
    """Newton's method on the smooth primal (dirichlet_p, p >= 2), as
    (u, steps, gap, converged).  The m-gradient of P is g = u - f + div(phi),
    phi = sigma*w*|du|^(p-1)*sign(du), so phi certifies u with miss g.  A step
    solves H s = -g, H v = v + div((p-1)*sigma*w*|du|^(p-2)*Dv), by CG in the
    m-inner product to ||r|| <= min(1/4, ||g||^(1/2))*||g|| (Eisenstat &
    Walker, SIAM J. Sci. Comput. 1996); div is 0 on a clamped node, so g and s
    are too, and u stays 0 there.  The step is halved until Armijo's rule holds
    for the change of P, summed edge by edge; a step whose predicted decrease
    rounds away against P ends the solve, unconverged."""
    m, p, (i_idx, j_idx, w) = F.measure, F.degree, F.graph.edge_arrays
    _, conjugate, _, h = _edge_dual(F, sigma)

    def dot(x, y):
        return float(np.einsum("i,i,i", m, x, y))

    u, du = f, edgecalc.edge_diff(f, i_idx, j_idx)
    for its in range(max_iter + 1):
        a = sigma * w * np.abs(du) ** (p - 2.0)
        g = u - f + edgecalc.edge_div(a * du, F.graph)
        pval, gap = _fenchel_young(h, conjugate, a * du, du, m, u - f, g)
        if _certified(gap, pval, tol, scale) or its == max_iter:
            break
        c, s, r, d = (p - 1.0) * a, np.zeros(len(f)), -g, -g
        rr = dot(g, g)
        target = min(_FORCING, rr ** 0.25) ** 2 * rr
        for _ in range(len(f)):
            if rr <= target:
                break
            dc = c * edgecalc.edge_diff(d, i_idx, j_idx)
            hd = d + edgecalc.edge_div(dc, F.graph)
            alpha = rr / dot(d, hd)
            s += alpha * d
            r -= alpha * hd
            rr, last = dot(r, r), rr
            d = r + (rr / last) * d
        # P(u + t*s) - P(u) = t*lin + t^2*quad/2 + the change of sigma*J
        slope, lin, quad, hu = dot(g, s), dot(u - f, s), dot(s, s), h(du)
        t = 1.0
        while pval + t * slope < pval:
            v = u + t * s
            dv = edgecalc.edge_diff(v, i_idx, j_idx)
            change = t * lin + 0.5 * t * t * quad + float((h(dv) - hu).sum())
            if change <= _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        u, du = v, dv
    return u, its, gap, _certified(gap, pval, tol, scale)


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
    that distance; Dirichlet nodes carry no constraint.  An unconverged solve
    certifies nothing: False."""
    if F.degree != 1:
        raise UnsupportedFunctional("dual ball only defined for degree-1 functionals")
    zeta = clamp_boundary(F, as_signal(zeta, F.dim))
    u, _, _, ok, _ = _solve(F, zeta, 1.0, _CERT_TOL, MAX_ITER)
    return ok and norm(u, F.measure) <= tol * (1.0 + norm(zeta, F.measure))


@dataclass(frozen=True)
class EigenCertificate:
    """Residuals of (w, lam), zeta = lam*||w||^(p-2)*w, that vanish exactly
    for a true eigenpair.  subgradient_gap = ||prox_{sigma J}(w + sigma*zeta)
    - w||_m / sigma, sigma = 1/lam (1 if lam <= 0), is 0 exactly when zeta is
    in dJ(w), and at most dist(zeta, dJ(w)) as the prox is nonexpansive; it
    reads the accuracy of its solve (tol 1e-12) in place of 0.  The solve
    rounds (`_prox_dual_fista`) where the answer has the rounding's form: on
    a graph_tv (or p = 1) eigenvector, constant on clusters, it reads exactly
    0, and on a lipschitz_sup eigenvector of one slope on the edges that
    carry the flow, such as the distance to a Dirichlet boundary, it reads
    the rounding of that slope (at most 2e-15 in the tests).  An unconverged
    solve certifies nothing: the gap reads inf."""

    euler_residual: float
    subgradient_gap: float

    @property
    def max_residual(self) -> float:
        return max(self.euler_residual, self.subgradient_gap)


def eigen_certificate(F: FunctionalHandle, w, lam: float,
                      psi0=None) -> EigenCertificate:
    """The certificate of (w, lam).  `psi0`, an edge flow, starts the dual
    kernel's solve in place of psi = 0, as in `prox`: a flow psi with
    div(psi) = w answers an eigenpair, since the input w + sigma*zeta is then
    2w for a unit w, and `power_method` passes its last solve's flow over
    (1 - mu).  The verdict is still the solve's own gap."""
    w = as_signal(w, F.dim)
    m = F.measure
    nw = norm(w, m)
    if nw == 0.0:
        raise ZeroSignal("cannot certify the zero signal")
    zeta = lam * nw ** (F.degree - 2.0) * w
    sigma = 1.0 / lam if lam > 0 else 1.0
    u, _, _, ok, _ = _solve(F, clamp_boundary(F, w + sigma * zeta), sigma,
                            _CERT_TOL, MAX_ITER, psi0=psi0)
    return EigenCertificate(euler_residual(F, w, zeta),
                            norm(u - w, m) / sigma if ok else math.inf)
