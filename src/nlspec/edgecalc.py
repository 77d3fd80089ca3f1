"""Edge-space primitives for graph functionals.

Discrete gradient/divergence pair, a closed-form bound on the norm of their
composition, and the exact projections and the edgewise p-power prox that the
dual prox kernel (`prox._prox_dual_fista`) applies.  The divergence is
the n x E matrix that `div_matrix` builds once per graph (`WeightedGraph.div`),
and the matrix holds the pairing convention

    <div(phi), u>_m = sum_e phi_e * (u_j - u_i)  for u = 0 on Dirichlet nodes:

row k carries +1/m_k on the edges that end at node k and -1/m_k on those that
start there, and a Dirichlet row carries nothing.  So ``edge_div`` is the
adjoint of ``edge_diff`` w.r.t. the node-measure weighted inner product on
boundary-zero signals, and it is exactly 0 on the Dirichlet nodes.

The graph solves call no BLAS: inner products are ``np.einsum``, because a
threaded ``ddot`` keeps a worker thread spinning between the short calls of
an iteration.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array


def edge_diff(u: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
    return u[j_idx] - u[i_idx]


def div_matrix(graph) -> csr_array:
    """The divergence of the module docstring on `graph`, as an n x E CSR
    matrix.

    Each row lists the edges that end at its node, then those that start
    there, each in edge order: the order in which a scatter adds them, so the
    matvec rounds like one (exactly so when the measure is a power of 2).
    """
    i_idx, j_idx, _ = graph.edge_arrays
    measure, interior = graph.node_measure, graph.interior_mask
    n, n_edges = len(measure), len(i_idx)
    rows = np.concatenate((j_idx, i_idx))
    data = np.concatenate((1.0 / measure[j_idx], -1.0 / measure[i_idx]))
    keep = np.flatnonzero(interior[rows])
    # entry k of rows and data belongs to edge k mod E
    order = keep[np.argsort(rows[keep], kind="stable")]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=n))))
    return csr_array((data[order], order % n_edges, indptr), shape=(n, n_edges))


def edge_div(phi: np.ndarray, graph) -> np.ndarray:
    return graph.div @ phi


def grad_div_opnorm(graph) -> float:
    """A bound on the norm of phi -> edge_diff(edge_div(phi)) on `graph`.

    The operator is the symmetric matrix D P D^T: D the incidence matrix of
    `edge_diff`, P = diag(1/m_k) on interior nodes and 0 on Dirichlet nodes.
    Its row for edge (i, j) has absolute sum c_i + c_j, c_k = deg_k * P_kk
    with deg_k counting every edge at k, and the largest row sum bounds the
    norm (Gershgorin).  The norm is at least max_k c_k, a diagonal entry of
    P^(1/2) D^T D P^(1/2), so the bound is at most 2x loose; on grids it is
    tight.  A graph whose operator is 0 returns 1.0.
    """
    i_idx, j_idx, _ = graph.edge_arrays
    c = np.bincount(np.concatenate((i_idx, j_idx)), minlength=graph.n)
    c = np.where(graph.interior_mask, c / graph.node_measure, 0.0)
    return float((c[i_idx] + c[j_idx]).max(initial=0.0)) or 1.0


def project_box(phi: np.ndarray, lower: np.ndarray,
                upper: np.ndarray) -> np.ndarray:
    """np.clip(phi, lower, upper) for NaN-free phi, without its overhead."""
    return np.minimum(np.maximum(phi, lower), upper)


def prox_power_conjugate(z: np.ndarray, a: np.ndarray, L: float,
                         q: float) -> np.ndarray:
    """Edgewise prox of h*/L at z, h*(phi) = a*|phi/a|^q/q with a > 0, q > 2:
    the conjugate of h(d) = a*|d|^p/p, 1/p + 1/q = 1.

    The result keeps the sign of z; its magnitude is a*r with r the root of
    (L*a)*(r - |z|/a) + r^(q-1) = 0: in closed form at q = 3 (p = 3/2), else
    by `power_root`.  Working in r = phi/a keeps q large (p near 1) from
    overflowing or underflowing (a^(1-q) never appears).
    """
    if q == 3.0:
        # r = 2*rho / (1 + sqrt(1 + 4*rho/(L*a))), rho = |z|/a: the root of
        # r^2 + L*a*(r - rho), written without cancellation
        return z * (2.0 / (1.0 + np.sqrt(1.0 + (4.0 / L) * np.abs(z) / (a * a))))
    return np.sign(z) * a * power_root(np.abs(z) / a, L * a, q)


def power_root(rho, c, q: float):
    """The r in [0, rho] with c*(r - rho) + r^(q-1) = 0, for rho >= 0, c > 0
    and q > 2, by Newton's method, vectorized over rho and c.

    The left side is increasing and convex in r >= 0.  Both rho and
    (c*rho)^(1/(q-1)) lie at or right of the root, and the root is at least
    half the smaller of them, so Newton's steps from that smaller bound
    never overshoot, stay in [0, rho] and decrease to the root.
    """
    rho, c = np.asarray(rho, dtype=float), np.asarray(c, dtype=float)
    r = np.minimum(rho, np.power(c * rho, 1.0 / (q - 1.0)))
    for _ in range(100):
        step = (c * (r - rho) + r ** (q - 1.0)) / (c + (q - 1.0) * r ** (q - 2.0))
        if not np.any(step > 1e-15 * r):
            break
        r = np.maximum(r - np.maximum(step, 0.0), 0.0)
    return r


def project_weighted_l1(g: np.ndarray, a: np.ndarray, b: np.ndarray,
                        radius: float, t: float = 0.0, ratios=None) -> tuple:
    """Projection of g onto {x : sum_i a_i |x_i| <= radius} in the metric
    sum_i b_i (x_i - g_i)^2, and its multiplier, as (x, t): Newton's method
    from `t` (Michelot, JOTA 1986; Condat, Math. Program. 2016) on
    phi(t) = sum_i a_i max(|g_i| - t*c_i, 0) = radius, c = a/b, and then
    x_i = sign(g_i) * max(|g_i| - t*c_i, 0).  phi is convex, decreasing and
    piecewise linear, so the first step lands at or left of the root, then
    the active set {|g_i| > t*c_i} shrinks until the step is exact, within
    n + 1 steps; sets at two t are nested, so equal counts mean equal sets.
    A start whose set has no a_i*c_i restarts at 0; radius 0 gives t = inf
    and x_i = 0 where a_i > 0, else g_i.  `ratios`, the pair (c, a*c), may
    be passed by a caller that projects many times with the same a and b.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    absg = np.abs(g)
    ag = a * absg
    if float(ag.sum()) <= radius:
        return g.copy(), 0.0
    if radius == 0.0:  # the a_i = 0 coordinates are not constrained
        return np.where(a > 0, 0.0, g), np.inf
    if ratios is None:
        c = a / b
        ratios = c, a * c
    c, ac = ratios
    # t*c can overflow for a far start, absg/t cannot
    active = absg / t > c if t > 1.0 else absg > t * c
    count = np.count_nonzero(active)
    for k in range(len(g) + 1):
        s2 = float(ac[active].sum())
        if s2 == 0.0:
            if k > 0:  # rounding put t past every breakpoint
                break
            t, active = 0.0, absg > 0.0
            count = np.count_nonzero(active)
            continue
        t = (float(ag[active].sum()) - radius) / s2
        tc = t * c
        active = absg > tc
        count, last = np.count_nonzero(active), count
        # after the first step a larger count is rounding at the root
        if count == last or (k > 0 and count > last):
            break
    return np.copysign(np.maximum(absg - tc, 0.0), g), t
