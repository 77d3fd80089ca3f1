"""Proximal power method for nonlinear eigenpairs and ground states.

Iterates w_{k+1} = prox_{sigma_k J}(w_k) / ||prox_{sigma_k J}(w_k)||, with
the step sigma_k set by 0 < c < 1 and a rule.  The adaptive rule, the
default, sets sigma_k = c/J(w_k), so sigma_k J(w_k) = c at every row.  The
constant rule sets sigma_k = c/J(w_0) for the whole run, so sigma_k J(w_k)
shrinks as J falls, and for p != 1 a start of large J contracts by only
about 1 - sigma*lambda a row.  At a fixed point prox_sigma(w) = mu*w and the
eigenvalue is lambda = (1 - mu) / (sigma * mu^{p-1}).

The outer iteration needs only an inner error that shrinks with its own
progress (inexact proximal point, Rockafellar, SIAM J. Control Optim. 1976;
inner steps that only decrease the functional, Hein & Buehler, NIPS 2010), so
solve k stops at gap max(PROX_TOL, resid_{k-1}/100), resid the fixed-point
residual of the previous row.  The prox objective is 1-strongly convex, so
the error in its output is at most sqrt(2*gap), about 15% of the step
sqrt(2*resid/mu) that the previous solve took.  The first solve has no
previous row and takes the residual's bound RESID_BOUND in its place: the
prox is firmly nonexpansive and prox(0) = 0, so <u, w>_m >= mu^2 and
resid <= mu - mu^2 <= 1/4 for a unit w.  The last solve runs at PROX_TOL,
and so does every solve after the residual reached tol.  A run stops only
when its last solve and the solve that produced its w both ran at PROX_TOL
(the start counts as exact), so every number it returns comes from exact
solves.  A loose solve whose normalized output has J above J(w) is redone
from w at PROX_TOL, as one more row of `history` with the same J.

Each solve of a run starts the dual kernel from the previous solve's edge
flow psi (`ProxSolution.psi`) times sigma_k/sigma_{k-1}: the optimal flow is
sigma times a flow of the subgradient zeta, so it scales with the step; the
constant rule keeps the factor 1.  Near a fixed point the input barely
moves, so the confirming solves certify in a few checks: at p = 1 the start
already carries the clusters or active edges that the kernel rounds to, so
the first check can certify (it does in each of criterion 3's chains).  A redo
starts from the loose solve's psi.
The certificate (`eigen_certificate`) solves prox_{sigma' J}(2w) = w,
sigma' = 1/lambda, so its flow has div = w where the last solve's had
(1 - mu)*w: it starts from that flow over (1 - mu), from zero when mu >= 1.
At p = 1 the factor is sigma'/sigma, which keeps the flow in the scaled dual
ball.  Every solve is still accepted only by its own gap, so the start
changes how soon it certifies, not what.  The first solve of a run starts
from zero, so a restart of `ground_state_search` carries nothing over.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: duality-gap tolerance of the power method's last prox solve, of the final
#: two solves of a converged run and of every redo of a loose solve
PROX_TOL = 1e-13
#: bound on the fixed-point residual mu - <prox(w), w>_m of a unit w, which
#: stands in for the previous residual in the first solve's tolerance
RESID_BOUND = 0.25


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
    history: list          # per prox call {"J", "residual", "sigma", "mu", "w_norm",
                           # "prox_tol", "prox_iterations"}
    # the residual reached tol, every prox solve converged to the tolerance it
    # was given, and the last two at PROX_TOL
    converged: bool


def power_method(F: FunctionalHandle, start, c: float = 0.9,
                 rule: str = "adaptive", tol: float = 1e-13,
                 max_iter: int = 2000) -> EigenPair:
    """Run the normalized proximal iteration from `start`; the pair returned
    describes its last prox call, one per entry of `history`."""
    if not (0.0 < c < 1.0):
        raise BadParams("c must lie in (0, 1)")
    if rule not in ("constant", "adaptive"):
        raise BadParams(f"unknown step-size rule {rule!r}")
    if not 0 < tol < np.inf:
        raise BadParams(f"tolerance must be finite and positive, got {tol}")
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
    Jw = evaluate(F, w)
    history = []
    converged, solved = False, True  # solved: every prox solve converged
    # w_exact: w is the start or the output of a solve at PROX_TOL
    prox_tol, w_exact = max(PROX_TOL, RESID_BOUND / 100.0), True
    psi = None  # the previous solve's dual flow, the next solve's start
    for k in range(max_iter):
        last = k == max_iter - 1
        if rule == "adaptive" or not k:
            if Jw <= 1e-300:  # keeps c/J(w) finite
                raise DegenerateEnergy("J vanishes at the normalized iterate")
            if psi is not None:
                psi = psi * (c / Jw / sigma)
            sigma = c / Jw
        if last:
            prox_tol = PROX_TOL
        sol = prox(F, w, sigma, tol=prox_tol, psi0=psi)
        psi = sol.psi
        solved = solved and sol.converged
        mu = norm(sol.u, m)
        if mu <= NULLSPACE_TOL:  # relative to ||w||_m = 1
            raise DegenerateEnergy("prox iterate vanished (step too large)")
        resid = max(mu - inner(sol.u, w, m), 0.0)
        history.append({"J": Jw, "residual": resid, "sigma": sigma,
                        "mu": mu, "w_norm": norm(w, m), "prox_tol": prox_tol,
                        "prox_iterations": sol.iterations})
        exact = prox_tol == PROX_TOL
        if resid <= tol and exact and w_exact:
            converged = True
            break
        if last:
            break
        _, v, nv, in_null = split_nullspace(F, sol.u)
        if in_null:
            raise DegenerateEnergy("iterate collapsed into the nullspace")
        J_next = evaluate(F, v / nv)
        if not exact and J_next > Jw:  # redo the loose solve from w
            prox_tol = PROX_TOL
            continue
        w, Jw, w_exact = v / nv, J_next, exact
        prox_tol = PROX_TOL if resid <= tol else max(PROX_TOL, resid / 100.0)

    mu = min(mu, 1.0)
    lam = max((1.0 - mu) / (sigma * mu ** (F.degree - 1.0)), 0.0)
    cert_psi0 = psi / (1.0 - mu) if psi is not None and mu < 1.0 else None
    return EigenPair(w=w, mu=mu, sigma=sigma, lam=lam,
                     rayleigh=F.degree * Jw,
                     residual=norm(sol.u - mu * w, m),
                     certificate=eigen_certificate(F, w, lam, psi0=cert_psi0),
                     history=history, converged=converged and solved)


def ground_state_search(F: FunctionalHandle, restarts: int = 5, seed: int = 0,
                        c: float = 0.9, rule: str = "adaptive",
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
