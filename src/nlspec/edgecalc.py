"""Edge-space primitives for graph functionals.

Discrete gradient/divergence pair, operator-norm estimation, the exact
projections used by the dual prox solvers, and the dual FISTA kernel they
share.  The pairing convention is

    <div(phi), u>_m = sum_e phi_e * (u_j - u_i),

i.e. ``edge_div`` is the adjoint of ``edge_diff`` w.r.t. the node-measure
weighted inner product.
"""

from __future__ import annotations

import math

import numpy as np


def edge_diff(u: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    return u[j_idx] - u[i_idx]


def edge_div(phi: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray,
             measure: np.ndarray) -> np.ndarray:
    out = np.zeros(len(measure))
    np.add.at(out, j_idx, phi)
    np.subtract.at(out, i_idx, phi)
    return out / measure


def grad_div_opnorm(i_idx: np.ndarray, j_idx: np.ndarray, measure: np.ndarray,
                    interior: np.ndarray, iters: int = 200,
                    seed: int = 0) -> float:
    """Spectral norm of phi -> edge_diff(mask(edge_div(phi))).

    Estimated by power iteration on the (symmetric PSD) edge-space operator;
    a 1% safety factor makes the returned value a usable Lipschitz bound.
    """
    n_edges = len(i_idx)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(n_edges)
    phi /= np.linalg.norm(phi) + 1e-300
    lam = 0.0
    for _ in range(iters):
        r = edge_div(phi, i_idx, j_idx, measure)
        r[~interior] = 0.0
        q = edge_diff(r, i_idx, j_idx)
        lam = float(np.linalg.norm(q))
        if lam == 0.0:
            return 1.0
        phi = q / lam
    return 1.01 * lam


def dual_fista(g: np.ndarray, graph, project):
    """Yield the iterates psi_1, psi_2, ... of FISTA (Beck & Teboulle 2009) on

        min_psi 0.5*||div(psi) - g||^2_m over interior nodes, psi in the set
        that `project` maps onto,

    on the edges, node measure and interior of `graph`, with constant step
    1/L, L = graph.grad_div_opnorm >= the norm of
    phi -> edge_diff(mask(edge_div(phi))).  The momentum restarts (t = 1)
    whenever it points against the gradient step, the gradient test of
    O'Donoghue & Candes (FoCM 2015).  The generator never stops; each caller
    applies its own stopping rule.
    """
    i_idx, j_idx, _ = graph.edge_arrays
    measure, outside = graph.node_measure, ~graph.interior_mask
    L = graph.grad_div_opnorm
    psi = np.zeros(len(i_idx))
    y = psi
    t = 1.0
    while True:
        r = edge_div(y, i_idx, j_idx, measure) - g
        r[outside] = 0.0
        psi_new = project(y - edge_diff(r, i_idx, j_idx) / L)
        step = psi_new - psi
        if np.dot(y - psi_new, step) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = psi_new + ((t - 1.0) / t_new) * step
        psi, t = psi_new, t_new
        yield psi


def project_box(phi: np.ndarray, bound: np.ndarray) -> np.ndarray:
    return np.clip(phi, -bound, bound)


def project_weighted_l1(g: np.ndarray, a: np.ndarray, b: np.ndarray,
                        radius: float) -> np.ndarray:
    """Projection of g onto {x : sum_i a_i |x_i| <= radius} in the metric
    sum_i b_i (x_i - g_i)^2, by exact breakpoint search (no iteration).

    The minimizer has the form x_i = sign(g_i) * max(|g_i| - t*a_i/b_i, 0)
    for the unique multiplier t >= 0 saturating the constraint.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    absg = np.abs(g)
    ag = a * absg
    if float(np.sum(ag)) <= radius:
        return g.copy()
    if radius == 0.0:
        return np.zeros_like(g)
    c = a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        # breakpoints: coordinate i leaves the active set at t = |g_i| / c_i
        bp = np.where(c > 0, absg / c, np.inf)
        order = np.argsort(bp)
        bp_o = bp[order]
        # suffix sums over the coordinates active for t in [bp_{k-1}, bp_k]
        s1 = np.cumsum(ag[order][::-1])[::-1]  # sum a|g| over active
        s2 = np.cumsum((a * c)[order][::-1])[::-1]  # sum a*c over active
        t = (s1 - radius) / s2
    # s2 adds up a*c = a^2/b >= 0 from the end, so it is positive exactly on
    # the candidates before the active set empties; the first admissible
    # candidate among them is the multiplier
    t_prev = np.concatenate(([0.0], bp_o[:-1]))
    ok = (s2 > 0) & (t_prev <= t) & (t <= bp_o + 1e-15)
    k = int(np.argmax(ok))
    if not ok[k]:
        # numerically all mass must be removed
        return np.zeros_like(g)
    return np.sign(g) * np.maximum(absg - t[k] * c, 0.0)
