"""Implicit-Euler subgradient flow and its diagnostics.

The flow iterates u_{k+1} = prox_{tau_k J}(u_k) from u_0 = f and converges to
u_inf = P_N f, which is computed up front (mass conservation makes the two
agree).  The trace records scalars per step plus the iterates u_k; the
subgradients zeta_k = (u_{k-1} - u_k)/tau_k are derived from them, so the
spectral decomposition f = P_N f + sum_k tau_k zeta_k + remainder telescopes
to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
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
             time_horizon: float = None, extinction_tol: float = 1e-8,
             prox_tol: float = 1e-11) -> FlowTrace:
    if tau is not None and not tau > 0:
        raise BadStep("step size must be positive")
    check_count("max_steps", max_steps)
    f = clamp_boundary(F, as_signal(f, F.dim))
    m = F.measure
    u_inf = project_nullspace(F, f)
    dist0 = norm(f - u_inf, m)
    floor = max(extinction_tol * dist0, 1e-300)

    ts, taus, Js, dists, lams, znorms, prof = [0.0], [0.0], [evaluate(F, f)], \
        [dist0], [], [0.0], [float("nan")]
    us = [f.copy()]
    warnings = []
    gap_total = 0.0
    extinction_index = None

    def lam_at(jv, dv):
        if dv > floor:
            return F.degree * jv / dv ** F.degree
        return float("nan")

    lams.append(lam_at(Js[0], dists[0]))

    if dist0 <= 1e-13 * math.sqrt(F.dim):
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
            u_next, zeta = sol.u, sol.zeta
            t_acc += tau_k
            jv = evaluate(F, u_next)
            dv = norm(u_next - u_inf, m)
            lv = lam_at(jv, dv)
            ts.append(t_acc)
            taus.append(tau_k)
            Js.append(jv)
            dists.append(dv)
            lams.append(lv)
            znorms.append(norm(zeta, m))
            if dv > floor and not math.isnan(lv):
                w_k = (u_next - u_inf) / dv
                res = norm(zeta / dv ** (F.degree - 1.0) - lv * w_k, m)
            else:
                res = float("nan")
            prof.append(res)
            us.append(u_next)
            if dv <= floor:
                extinction_index = k
                break
            if time_horizon is not None and t_acc >= time_horizon:
                break

    return FlowTrace(
        us=us, u_infinity=u_inf, degree=F.degree,
        t=np.array(ts), tau=np.array(taus), J=np.array(Js),
        dist=np.array(dists), Lambda=np.array(lams), zeta_norm=np.array(znorms),
        profile_residual=np.array(prof), extinction_index=extinction_index,
        prox_gap_total=gap_total, warnings=warnings)


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
    p = trace.degree
    m = F.measure
    measured = None
    if trace.extinction_index is not None:
        measured = float(trace.t[trace.extinction_index])
    upper = None
    if p < 2 and lambda1_estimate is not None and lambda1_estimate > 0:
        upper = trace.dist[0] ** (2.0 - p) / ((2.0 - p) * lambda1_estimate)
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
                lower = max(lower, inner(g, v, m) / jv)
    return {"measured": measured, "upper": upper, "lower": lower}


def check_decay_envelopes(trace: FlowTrace, F: FunctionalHandle,
                          lambda1_estimate: float):
    """Signed slack (>= 0 means satisfied) of every applicable decay envelope."""
    p = trace.degree
    t, dist = trace.t, trace.dist
    floor = 1e-13 * (trace.dist[0] + 1.0)
    pre = dist > max(floor, 1e-8 * trace.dist[0])
    out = {}

    def record(name, slack_arr, mask):
        vals = slack_arr[mask]
        out[name] = {"worst": float(np.min(vals)) if len(vals) else float("nan"),
                     "slack": slack_arr}

    lam1 = lambda1_estimate
    if p < 2:
        env = dist[0] ** (2 - p) - (2 - p) * lam1 * t
        record("upper", env - dist ** (2 - p), pre)
    elif p == 2:
        env = dist[0] ** 2 * np.exp(-2 * lam1 * t)
        record("upper", env - dist ** 2, np.ones_like(pre, dtype=bool))
    else:
        env = 1.0 / (dist[0] ** (2 - p) + (p - 2) * lam1 * t)
        with np.errstate(divide="ignore"):
            record("upper", env - dist ** (p - 2), pre)

    if len(t) > 1:
        d1, t1, L1 = dist[1], t[1], trace.Lambda[1]
        tail = np.arange(len(t)) >= 1
        if not math.isnan(L1) and d1 > floor:
            if p < 2:
                env = d1 ** (2 - p) - (2 - p) * L1 * (t - t1)
                record("lower", dist ** (2 - p) - env, tail)
            elif p == 2:
                env = d1 ** 2 * np.exp(-2 * L1 * (t - t1))
                record("lower", dist ** 2 - env, tail)
            else:
                env = 1.0 / (d1 ** (2 - p) + (p - 2) * L1 * (t - t1))
                with np.errstate(divide="ignore"):
                    record("lower", dist ** (p - 2) - env, tail & pre)

    if p < 2 and trace.extinction_index is not None:
        T = trace.t[trace.extinction_index]
        lamk = trace.Lambda
        record("improved_lower", dist ** (2 - p) - (2 - p) * lam1 * (T - t), pre)
        with np.errstate(invalid="ignore"):
            record("improved_upper", (2 - p) * lamk * (T - t) - dist ** (2 - p), pre)
    return out


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
            certs.append(EigenCertificate(0.0, 0.0, 0.0))
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
    floor = 1e-13 * (trace.dist[0] + 1.0)
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
