"""Implicit-Euler subgradient flow and its diagnostics.

The flow iterates u_{k+1} = prox_{tau_k J}(u_k) from u_0 = f and converges to
u_inf = P_N f, which is computed up front (mass conservation makes the two
agree).  The trace records scalars per step plus the iterates u_k; the
subgradients zeta_k = (u_{k-1} - u_k)/tau_k are derived from them, so the
spectral decomposition f = P_N f + sum_k tau_k zeta_k + remainder telescopes
to machine precision.  Every decay bound is one law: d/dt Phi_p(||u - u_inf||)
= -Lambda(u) <= -lambda_1, with Phi_p the primitive `_decay_primitive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    NULLSPACE_FLOOR,
    FunctionalHandle,
    as_signal,
    check_count,
    clamp_boundary,
    evaluate,
    inner,
    norm,
    project_nullspace,
)
from .errors import BadStep, UnsupportedFunctional
from .prox import (EigenCertificate, eigen_certificate, prox,
                   prox_nonvanishing_bound)

#: relative distance to u_inf at which the flow counts as extinct
EXTINCTION_TOL = 1e-8


@dataclass
class FlowTrace:
    us: list               # iterates u_0 = f, u_1, ..., u_K
    u_infinity: np.ndarray
    degree: float
    t: np.ndarray          # accumulated time, t[0] = 0
    tau: np.ndarray        # tau[k] = step producing u_k, tau[0] = 0
    J: np.ndarray
    dist: np.ndarray       # ||u_k - u_inf||_m
    Lambda: np.ndarray     # p*J_k / dist_k^p, NaN below the distance floor
    zeta_norm: np.ndarray
    profile_residual: np.ndarray  # ||zeta_k/dist_k^{p-1} - Lambda_k w_k||, NaN at k=0
    extinction_index: Optional[int] = None
    prox_gap_total: float = 0.0
    warnings: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1

    @property
    def f(self) -> np.ndarray:
        return self.us[0]

    @property
    def u_last(self) -> np.ndarray:
        return self.us[-1]

    @cached_property
    def zetas(self) -> list:
        """zetas[k] = (u_{k-1} - u_k)/tau_k for k >= 1, bit for bit the
        subgradient the prox of step k returned; zetas[0] is a zero signal."""
        us = self.us
        return [np.zeros_like(us[0])] + [
            (a - b) / s for a, b, s in zip(us, us[1:], self.tau[1:])]


def default_step_size(F: FunctionalHandle, f) -> float:
    """tau resolving the extinction profile in >= 10 steps (p=1), or
    0.1/lambda_max for quadratic forms."""
    if F.kind == "quadratic_form":
        lam_max = float(np.max(F._quad_eigvals))
        return 0.1 / max(lam_max, 1e-30)
    return 0.1 * prox_nonvanishing_bound(F, f)


def run_flow(F: FunctionalHandle, f, tau: float = None, max_steps: int = 1000,
             time_horizon: float = None, prox_tol: float = 1e-11) -> FlowTrace:
    if tau is not None and not tau > 0:
        raise BadStep("step size must be positive")
    check_count("max_steps", max_steps)
    f = clamp_boundary(F, as_signal(f, F.dim))
    m = F.measure
    u_inf = project_nullspace(F, f)
    dist0 = norm(f - u_inf, m)
    floor = max(EXTINCTION_TOL * dist0, 1e-300)

    us, taus, Js, dists = [f.copy()], [0.0], [evaluate(F, f)], [dist0]
    warnings, gap_total, extinction_index = [], 0.0, None

    if dist0 <= NULLSPACE_FLOOR * math.sqrt(F.dim):
        extinction_index = 0
    else:
        if tau is None:
            tau = default_step_size(F, f)
        t_acc = 0.0
        for k in range(1, max_steps + 1):
            # up to four attempts, halving the step before each retry; the
            # step kept is the one the last solution used
            tau_k = tau
            for attempt in range(4):
                if attempt:
                    tau_k *= 0.5
                sol = prox(F, us[-1], tau_k, tol=prox_tol)
                if sol.converged:
                    break
                warnings.append(f"step {k}: prox not converged at tau={tau_k}")
            gap_total += sol.gap
            t_acc += tau_k
            us.append(sol.u)
            taus.append(tau_k)
            Js.append(evaluate(F, sol.u))
            dists.append(norm(sol.u - u_inf, m))
            if dists[-1] <= floor:
                extinction_index = k
                break
            if time_horizon is not None and t_acc >= time_horizon:
                break

    # the Rayleigh values and profile residuals, derived from the iterates
    p = F.degree
    lams = [p * jv / dv ** p if dv > floor else math.nan
            for jv, dv in zip(Js, dists)]
    znorms, prof = [0.0], [math.nan]
    for a, u, s, dv, lv in zip(us, us[1:], taus[1:], dists[1:], lams[1:]):
        zeta = (a - u) / s
        znorms.append(norm(zeta, m))
        prof.append(norm(zeta / dv ** (p - 1.0) - lv * ((u - u_inf) / dv), m)
                    if dv > floor else math.nan)
    return FlowTrace(
        us=us, u_infinity=u_inf, degree=p,
        t=np.cumsum(taus), tau=np.array(taus), J=np.array(Js),
        dist=np.array(dists), Lambda=np.array(lams), zeta_norm=np.array(znorms),
        profile_residual=np.array(prof), extinction_index=extinction_index,
        prox_gap_total=gap_total, warnings=warnings)


def _decay_primitive(d, p):
    """Phi_p(d) = d^(2-p)/(2-p), or log d at p = 2; Phi_p(0) is finite (zero)
    exactly when the flow reaches u_inf in finite time, which is p < 2."""
    with np.errstate(divide="ignore"):
        if p == 2:
            return np.log(d)
        return np.power(d, 2.0 - p) / (2.0 - p)


def _distance_floor(trace: FlowTrace) -> float:
    """Distances at or below this are rounding noise around u_inf."""
    return 1e-13 * (trace.dist[0] + 1.0)


def decompose(trace: FlowTrace):
    """Spectral bands tau_k * zeta_k; their sum plus the nullspace part and
    the unextinguished remainder reconstructs the flow's input f."""
    bands = [trace.tau[k] * trace.zetas[k] for k in range(1, len(trace.zetas))]
    remainder = trace.u_last - trace.u_infinity
    recon = trace.u_infinity + remainder + (np.sum(bands, axis=0) if bands else 0.0)
    residual = float(np.linalg.norm(trace.f - recon))
    return {
        "bands": bands,
        "nullspace_part": trace.u_infinity,
        "remainder": remainder,
        "reconstruction_residual": residual,
    }


def extinction_report(trace: FlowTrace, F: FunctionalHandle,
                      lambda1_estimate: float = None):
    """Measured extinction time plus the theoretical upper/lower bounds."""
    p, k_ext = trace.degree, trace.extinction_index
    measured = None if k_ext is None else float(trace.t[k_ext])
    upper = None  # T <= Phi_p(dist_0)/lambda_1 wherever Phi_p(0) = 0 is finite
    if lambda1_estimate is not None and lambda1_estimate > 0 \
            and np.isfinite(_decay_primitive(0.0, p)):
        upper = float(_decay_primitive(trace.dist[0], p)) / lambda1_estimate
    lower = 0.0
    if p == 1:
        # <g, v>/J(v) <= ||g||_* <= T for every v with J(v) > 0, as
        # g = sum_k tau_k zeta_k with every zeta_k in the dual ball; the
        # flow's own iterates v = u_k - u_inf are the candidates
        g = trace.f - trace.u_infinity
        for u in trace.us:
            v = u - trace.u_infinity
            jv = evaluate(F, v)
            if jv > 1e-14:
                lower = max(lower, inner(g, v, F.measure) / jv)
    return {"measured": measured, "upper": upper, "lower": lower}


def check_decay_envelopes(trace: FlowTrace, F: FunctionalHandle,
                          lambda1_estimate: float):
    """Signed slack (>= 0 means satisfied) of every applicable decay envelope,
    in units of Phi_p (`_decay_primitive`).  Along the flow Phi_p(dist) falls
    at rate Lambda, which is at least lambda_1 and at most Lambda_k after
    step k; "worst" is the minimum over the distances above the floor."""
    p, t, lam, lam1 = trace.degree, trace.t, trace.Lambda, lambda1_estimate
    dist = trace.dist
    floor = _distance_floor(trace)
    pre = dist > max(floor, EXTINCTION_TOL * dist[0])
    phi = _decay_primitive(dist, p)
    slacks = {}
    with np.errstate(invalid="ignore"):
        slacks["upper"] = (phi[0] - lam1 * t - phi, pre)
        if len(t) > 1 and dist[1] > floor and not math.isnan(lam[1]):
            slacks["lower"] = (phi - phi[1] + lam[1] * (t - t[1]), pre & (t >= t[1]))
        if trace.extinction_index is not None and np.isfinite(_decay_primitive(0.0, p)):
            T = t[trace.extinction_index]
            slacks["improved_lower"] = (phi - lam1 * (T - t), pre)
            slacks["improved_upper"] = (lam * (T - t) - phi, pre)
    return {name: {"worst": float(np.min(s[mask])) if mask.any() else float("nan"),
                   "slack": s}
            for name, (s, mask) in slacks.items()}


def band_eigen_scores(trace: FlowTrace, F: FunctionalHandle):
    """Eigen certificates of each band subgradient (degree-1 functionals) plus
    the orthogonality residual max |<zeta_t, zeta_s - zeta_r>| over all
    bands r <= s <= t."""
    if F.degree != 1:
        raise UnsupportedFunctional("band scores only defined for degree-1 functionals")
    m = F.measure
    certs = []
    for k in range(1, len(trace.zetas)):
        z = trace.zetas[k]
        nz = norm(z, m)
        if nz <= 1e-14:
            certs.append(EigenCertificate(0.0, 0.0))
            continue
        certs.append(eigen_certificate(F, z, nz))
    Z = np.reshape(trace.zetas[1:], (-1, F.dim))
    G = (Z * m) @ Z.T  # G[t, s] = <zeta_t, zeta_s>
    # for each t, the worst pair r <= s <= t spans the range of G[t, :t+1]
    spread = np.maximum.accumulate(G, axis=1) - np.minimum.accumulate(G, axis=1)
    ortho = float(np.max(np.diagonal(spread), initial=0.0))
    return {"certificates": certs, "orthogonality_residual": ortho}


def profile_convergence(trace: FlowTrace):
    """Last normalized profile, its Rayleigh value, and the residual history
    driven to zero (along a subsequence) as the flow approaches extinction."""
    floor = _distance_floor(trace)
    # the last step above the distance floor with a Rayleigh value, else 0
    idx = next((k for k in range(trace.n_steps, 0, -1) if trace.dist[k] > floor
                and not math.isnan(trace.Lambda[k])), 0)
    u_k = trace.us[idx]
    d = trace.dist[idx]
    w_last = (u_k - trace.u_infinity) / d if d > 0 else np.zeros_like(u_k)
    return {
        "w_last": w_last,
        "lambda_last": float(trace.Lambda[idx]),
        "profile_residual_history": trace.profile_residual,
    }
