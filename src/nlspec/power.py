"""Proximal power method for nonlinear eigenpairs and ground states.

Iterates w_{k+1} = prox_{sigma_k J}(w_k) / ||prox_{sigma_k J}(w_k)||, with the
step chosen as sigma_k = c/J(w_0) (constant rule) or c/J(w_k) (adaptive rule),
0 < c < 1.  At a fixed point prox_sigma(w) = mu*w and the eigenvalue is
lambda = (1 - mu) / (sigma * mu^{p-1}).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
from .errors import BadParams, DegenerateEnergy, NullspaceStart


@dataclass
class EigenPair:
    w: np.ndarray          # unit m-norm, orthogonal to the nullspace
    mu: float              # ||prox_sigma(w)||
    sigma: float
    lam: float             # (1 - mu) / (sigma * mu^{p-1})
    rayleigh: float        # p * J(w)
    residual: float        # ||prox_sigma(w) - mu*w||
    certificate: EigenCertificate
    history: list          # per-iteration {"J", "residual", "sigma", "mu", "w_norm"}
    oscillation: float     # max pairwise distance over the last 10 iterates
    converged: bool


def _normalize_off_nullspace(F, u, floor):
    v = u - project_nullspace(F, u)
    nv = norm(v, F.measure)
    if nv <= floor:
        return None
    return v / nv


def power_method(F: FunctionalHandle, start, c: float = 0.9,
                 rule: str = "constant", tol: float = 1e-13,
                 max_iter: int = 2000, prox_tol: float = 1e-13) -> EigenPair:
    """Run the normalized proximal iteration from `start`."""
    if not (0.0 < c < 1.0):
        raise BadParams("c must lie in (0, 1)")
    if rule not in ("constant", "adaptive"):
        raise BadParams(f"unknown step-size rule {rule!r}")
    start = clamp_boundary(F, as_signal(start, F.dim))
    m = F.measure
    floor = 1e-13 * np.sqrt(F.dim)

    from .prox import prox  # local import to avoid a cycle at module load

    w = _normalize_off_nullspace(F, start, floor)
    if w is None:
        raise NullspaceStart("start vector lies in the nullspace")
    J0 = evaluate(F, w)
    if J0 <= floor:
        raise DegenerateEnergy("J vanishes at the normalized start")
    sigma0 = c / J0

    history = []
    recent = deque(maxlen=10)
    mu = sigma = resid = None
    converged = False
    for _ in range(max_iter):
        Jw = evaluate(F, w)
        if rule == "adaptive":
            if Jw <= 1e-300:
                raise DegenerateEnergy("J(w_k) collapsed under the adaptive rule")
            sigma = c / Jw
        else:
            sigma = sigma0
        sol = prox(F, w, sigma, tol=prox_tol)
        v = sol.u
        nv = norm(v, m)
        if nv <= floor:
            raise DegenerateEnergy("prox iterate vanished (step too large)")
        resid = max(nv - inner(v, w, m), 0.0)
        history.append({"J": Jw, "residual": resid, "sigma": sigma,
                        "mu": nv, "w_norm": norm(w, m)})
        mu = nv
        if resid <= tol:
            converged = True
            break
        w_next = _normalize_off_nullspace(F, v, floor)
        if w_next is None:
            raise DegenerateEnergy("iterate collapsed into the nullspace")
        recent.append(w_next)
        w = w_next

    mu = min(mu, 1.0)
    lam = max((1.0 - mu) / (sigma * mu ** (F.degree - 1.0)), 0.0)
    # fixed-point residual in vector form: prox_sigma(w) vs mu*w; after
    # convergence w and sigma are those of the last prox call
    v_last = v if converged else prox(F, w, sigma, tol=prox_tol).u
    residual_vec = norm(v_last - mu * w, m)
    osc = 0.0
    rec = list(recent)
    for a in range(len(rec)):
        for b in range(a + 1, len(rec)):
            osc = max(osc, norm(rec[a] - rec[b], m))
    return EigenPair(w=w, mu=mu, sigma=sigma, lam=lam,
                     rayleigh=F.degree * evaluate(F, w),
                     residual=residual_vec,
                     certificate=eigen_certificate(F, w, lam),
                     history=history, oscillation=osc, converged=converged)


def ground_state_search(F: FunctionalHandle, restarts: int = 5, seed: int = 0,
                        c: float = 0.9, rule: str = "constant",
                        tol: float = 1e-13, max_iter: int = 2000):
    """Multi-start search for the minimal nonzero eigenvalue.

    Start 0 is all-ones plus a small Gaussian perturbation (picks up
    low-frequency ground states); the rest are seeded Gaussian draws.  Results
    are merged by (rayleigh, start index).
    """
    if restarts < 1:
        raise BadParams("need at least one restart")
    rng = np.random.default_rng(seed)
    starts = []
    for r in range(restarts):
        g = rng.standard_normal(F.dim)
        if r == 0:
            starts.append(np.ones(F.dim) + 0.01 * g)
        else:
            starts.append(g)

    results, failures = [], []
    for idx, start in enumerate(starts):
        try:
            pair = power_method(F, start, c=c, rule=rule, tol=tol,
                                max_iter=max_iter)
        except Exception as exc:  # noqa: BLE001 - per-start failures are data
            failures.append((idx, exc))
        else:
            results.append((idx, pair))
    if not results:
        raise failures[0][1]
    results.sort(key=lambda item: (item[1].rayleigh, item[0]))
    pairs = [p for (_, p) in results]
    return {
        "best": pairs[0],
        "all": pairs,
        "lambdas": [p.lam for p in pairs],
        "failures": failures,
    }
