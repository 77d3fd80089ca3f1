"""Implicit-Euler subgradient flow and its diagnostics.

The flow iterates u_{k+1} = prox_{tau_k J}(u_k) from u_0 = f and converges to
u_inf = P_N f, which is computed up front (mass conservation makes the two
agree).  The trace records scalars per step plus the subgradients zeta_k,
which are exactly (u_{k-1} - u_k)/tau_k, so the spectral decomposition
f = P_N f + sum_k tau_k zeta_k + remainder telescopes to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    FunctionalHandle,
    EigenCertificate,
    as_signal,
    clamp_boundary,
    eigen_certificate,
    evaluate,
    inner,
    norm,
    project_nullspace,
)
from .errors import BadStep, UnsupportedFunctional
from .prox import prox, prox_nonvanishing_bound


@dataclass
class FlowTrace:
    f: np.ndarray
    u_infinity: np.ndarray
    degree: float
    t: np.ndarray          # accumulated time, t[0] = 0
    tau: np.ndarray        # tau[k] = step producing u_k, tau[0] = 0
    J: np.ndarray
    dist: np.ndarray       # ||u_k - u_inf||_m
    Lambda: np.ndarray     # p*J_k / dist_k^p, NaN below the distance floor
    zeta_norm: np.ndarray
    profile_residual: np.ndarray  # ||zeta_k/dist_k^{p-1} - Lambda_k w_k||, NaN at k=0
    zetas: list            # zetas[k] for k >= 1; zetas[0] is a zero signal
    u_last: np.ndarray
    extinction_index: Optional[int] = None
    prox_gap_total: float = 0.0
    warnings: list = field(default_factory=list)
    us: Optional[list] = None  # full iterates, only with store_iterates=True

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1


def default_step_size(F: FunctionalHandle, f) -> float:
    """tau resolving the extinction profile in >= 10 steps (p=1), or
    0.1/lambda_max for quadratic forms."""
    if F.kind == "quadratic_form":
        lam_max = float(np.max(F._quad_eigvals))
        return 0.1 / max(lam_max, 1e-30)
    return 0.1 * prox_nonvanishing_bound(F, f)


def run_flow(F: FunctionalHandle, f, tau: float = None, schedule=None,
             max_steps: int = 1000, time_horizon: float = None,
             extinction_tol: float = 1e-8, prox_tol: float = 1e-11,
             store_iterates: bool = False) -> FlowTrace:
    f = clamp_boundary(F, as_signal(f, F.dim))
    m = F.measure
    u_inf = project_nullspace(F, f)
    u = f.copy()
    dist0 = norm(f - u_inf, m)
    floor = max(extinction_tol * dist0, 1e-300)

    ts, taus, Js, dists, lams, znorms, prof = [0.0], [0.0], [evaluate(F, f)], \
        [dist0], [], [0.0], [float("nan")]
    zetas = [np.zeros(F.dim)]
    us = [u.copy()] if store_iterates else None
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
        if not tau > 0:
            raise BadStep("step size must be positive")
        t_acc = 0.0
        for k in range(1, max_steps + 1):
            tau_k = schedule(k, t_acc, dists[-1]) if schedule else tau
            sol = None
            for _ in range(4):
                sol = prox(F, u, tau_k, tol=prox_tol)
                if sol.converged:
                    break
                warnings.append(f"step {k}: prox not converged at tau={tau_k}, halving")
                tau_k *= 0.5
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
            zetas.append(zeta)
            if store_iterates:
                us.append(u_next.copy())
            u = u_next
            if dv <= floor:
                extinction_index = k
                break
            if time_horizon is not None and t_acc >= time_horizon:
                break

    return FlowTrace(
        f=f, u_infinity=u_inf, degree=F.degree,
        t=np.array(ts), tau=np.array(taus), J=np.array(Js),
        dist=np.array(dists), Lambda=np.array(lams), zeta_norm=np.array(znorms),
        profile_residual=np.array(prof),
        zetas=zetas, u_last=u, extinction_index=extinction_index,
        prox_gap_total=gap_total, warnings=warnings, us=us)


def decompose(trace: FlowTrace, f=None):
    """Spectral bands tau_k * zeta_k; their sum plus the nullspace part and
    the unextinguished remainder reconstructs f."""
    if f is None:
        f = trace.f
    bands = [trace.tau[k] * trace.zetas[k] for k in range(1, len(trace.zetas))]
    remainder = trace.u_last - trace.u_infinity
    recon = trace.u_infinity + remainder + (np.sum(bands, axis=0) if bands else 0.0)
    residual = float(np.linalg.norm(f - recon))
    return {
        "bands": bands,
        "nullspace_part": trace.u_infinity,
        "remainder": remainder,
        "reconstruction_residual": residual,
    }


def extinction_report(trace: FlowTrace, F: FunctionalHandle,
                      lambda1_estimate: float = None,
                      extra_directions=(), n_random: int = 32, seed: int = 0):
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
        g = trace.f - trace.u_infinity
        candidates = [g]
        candidates.extend(np.asarray(v, dtype=float) for v in extra_directions)
        eye = np.eye(F.dim)
        candidates.extend(eye[i] for i in range(min(F.dim, 64)))
        rng = np.random.default_rng(seed)
        for _ in range(n_random):
            candidates.append(rng.standard_normal(F.dim))
        for v in candidates:
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


def band_eigen_scores(trace: FlowTrace, F: FunctionalHandle, samples: int = 32,
                      seed: int = 0, max_triples: int = 64):
    """Eigen certificates of each band subgradient (degree-1 functionals) plus
    the pairwise orthogonality residual max |<zeta_t, zeta_s - zeta_r>|."""
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
        certs.append(eigen_certificate(F, z, nz, samples=samples, seed=seed + k))
    ks = list(range(1, len(trace.zetas)))
    if len(ks) > max_triples:
        pick = np.linspace(0, len(ks) - 1, max_triples).astype(int)
        ks = [ks[i] for i in sorted(set(pick.tolist()))]
    ortho = 0.0
    for a in range(len(ks)):
        for b in range(a, len(ks)):
            for c in range(b, len(ks)):
                r, s, tt = ks[a], ks[b], ks[c]
                val = abs(inner(trace.zetas[tt],
                                trace.zetas[s] - trace.zetas[r], m))
                ortho = max(ortho, val)
    return {"certificates": certs, "orthogonality_residual": ortho}


def profile_convergence(trace: FlowTrace):
    """Last normalized profile, its Rayleigh value, and the residual history
    driven to zero (along a subsequence) as the flow approaches extinction."""
    idx = None
    for k in range(len(trace.t) - 1, -1, -1):
        if trace.dist[k] > 1e-13 * (trace.dist[0] + 1.0) and not math.isnan(trace.Lambda[k]):
            idx = k
            break
    if idx is None:
        idx = 0
    if trace.us is not None:
        u_k = trace.us[idx]
    else:
        # reconstruct u_idx from the recorded bands
        u_k = trace.u_last.copy()
        for k in range(len(trace.zetas) - 1, idx, -1):
            u_k = u_k + trace.tau[k] * trace.zetas[k]
    d = trace.dist[idx]
    w_last = (u_k - trace.u_infinity) / d if d > 0 else np.zeros_like(u_k)
    return {
        "w_last": w_last,
        "lambda_last": float(trace.Lambda[idx]),
        "profile_residual_history": trace.profile_residual,
    }
