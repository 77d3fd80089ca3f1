"""Proximal power method for nonlinear eigenpairs and ground states.

Iterates w_{k+1} = prox_{sigma_k J}(w_k) / ||prox_{sigma_k J}(w_k)||, with the
step chosen as sigma_k = c/J(w_0) (constant rule) or c/J(w_k) (adaptive rule),
0 < c < 1.  At a fixed point prox_sigma(w) = mu*w and the eigenvalue is
lambda = (1 - mu) / (sigma * mu^{p-1}).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    NULLSPACE_TOL,
    FunctionalHandle,
    as_signal,
    check_count,
    clamp_boundary,
    evaluate,
    inner,
    norm,
    split_nullspace,
)
from .errors import BadParams, DegenerateEnergy, NlspecError, NullspaceStart
from .prox import EigenCertificate, eigen_certificate

#: duality-gap tolerance of every prox solve of the power method
PROX_TOL = 1e-13


@dataclass
class EigenPair:
    """The last prox call of a run, prox_sigma(w), and what it says of w."""

    w: np.ndarray          # unit m-norm, orthogonal to the nullspace
    mu: float              # ||prox_sigma(w)||, at most 1
    sigma: float           # the step of the last prox call
    lam: float             # (1 - mu) / (sigma * mu^{p-1})
    rayleigh: float        # p * J(w)
    residual: float        # ||prox_sigma(w) - mu*w||
    certificate: EigenCertificate  # eigen_certificate(F, w, lam)
    history: list          # per prox call {"J", "residual", "sigma", "mu", "w_norm"}
    oscillation: float     # max pairwise distance over the last 10 iterates
    converged: bool        # the residual reached tol and every prox solve converged


def power_method(F: FunctionalHandle, start, c: float = 0.9,
                 rule: str = "constant", tol: float = 1e-13,
                 max_iter: int = 2000) -> EigenPair:
    """Run the normalized proximal iteration from `start`; the pair returned
    describes its last prox call, one per entry of `history`."""
    if not (0.0 < c < 1.0):
        raise BadParams("c must lie in (0, 1)")
    if rule not in ("constant", "adaptive"):
        raise BadParams(f"unknown step-size rule {rule!r}")
    check_count("max_iter", max_iter)
    start = clamp_boundary(F, as_signal(start, F.dim))
    m = F.measure

    # looked up at call time, so that a patched or traced nlspec.prox.prox
    # is the one called
    from .prox import prox

    _, v, nv, in_null = split_nullspace(F, start)
    if in_null:
        raise NullspaceStart("start vector lies in the nullspace")
    w = v / nv
    history = []
    recent = deque(maxlen=10)
    converged, solved = False, True  # solved: every prox solve converged
    for k in range(max_iter):
        if k:  # normalize the previous prox iterate
            _, v, nv, in_null = split_nullspace(F, sol.u)
            if in_null:
                raise DegenerateEnergy("iterate collapsed into the nullspace")
            w = v / nv
            recent.append(w)
        Jw = evaluate(F, w)
        if rule == "adaptive" or not k:
            if Jw <= 1e-300:  # keeps c/J(w) finite
                raise DegenerateEnergy("J vanishes at the normalized iterate")
            sigma = c / Jw
        sol = prox(F, w, sigma, tol=PROX_TOL)
        solved = solved and sol.converged
        mu = norm(sol.u, m)
        if mu <= NULLSPACE_TOL:  # relative to ||w||_m = 1
            raise DegenerateEnergy("prox iterate vanished (step too large)")
        resid = max(mu - inner(sol.u, w, m), 0.0)
        history.append({"J": Jw, "residual": resid, "sigma": sigma,
                        "mu": mu, "w_norm": norm(w, m)})
        if resid <= tol:
            converged = True
            break

    mu = min(mu, 1.0)
    lam = max((1.0 - mu) / (sigma * mu ** (F.degree - 1.0)), 0.0)
    osc = max((norm(a - b, m) for a, b in combinations(recent, 2)), default=0.0)
    return EigenPair(w=w, mu=mu, sigma=sigma, lam=lam,
                     rayleigh=F.degree * evaluate(F, w),
                     residual=norm(sol.u - mu * w, m),
                     certificate=eigen_certificate(F, w, lam),
                     history=history, oscillation=osc, converged=converged and solved)


def ground_state_search(F: FunctionalHandle, restarts: int = 5, seed: int = 0,
                        c: float = 0.9, rule: str = "constant",
                        tol: float = 1e-13, max_iter: int = 2000):
    """Multi-start search for the minimal nonzero eigenvalue.

    Start 0 is all-ones plus a small Gaussian perturbation (picks up
    low-frequency ground states); the rest are seeded Gaussian draws.  Results
    are merged by (rayleigh, start index).
    """
    check_count("restarts", restarts)
    check_count("max_iter", max_iter)
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
        except NlspecError as exc:  # a failed start is data; a bug propagates
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
