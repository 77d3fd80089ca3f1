"""Built-in invariant suite.

Each check is a pure function registered under its name by `@check` and
returning (passed, detail); `run_suite` calls the checks whose name contains
an optional substring, and the CLI `validate` command prints a pass/fail
table of the results.  The checks mirror the library's documented
invariants: homogeneity, convexity, prox optimality and nonexpansiveness,
flow monotonicity and mass conservation, power-method well-definedness,
and the oracle self-consistency properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, flow, functionals, oracles, power
from .prox import (prox as prox_fn, brute_force_prox, dual_ball_membership,
                   eigen_certificate)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


#: (name, check) pairs in run order; each check returns (passed, detail)
CHECKS = []


def check(name):
    """Register the decorated function as the check called `name`."""
    def register(fn):
        CHECKS.append((name, fn))
        return fn
    return register


# ---------------------------------------------------------------------------
# shared fixtures


def _catalog(seed=0):
    """A small representative handle per catalog kind."""
    path5 = functionals.build_grid_graph(functionals.GridSpec(width=5))
    dgrid = functionals.build_grid_graph(
        functionals.GridSpec(width=3, boundary_mode="dirichlet"))
    m4 = np.array([1.0, 2.0, 0.5, 1.5])
    L5 = functionals.laplacian_matrix(path5)
    return {
        "graph_tv": functionals.make_functional("graph_tv", path5),
        "dirichlet_p_1.5": functionals.make_functional("dirichlet_p", path5, p=1.5),
        "dirichlet_p_2": functionals.make_functional("dirichlet_p", path5, p=2.0),
        "dirichlet_p_3": functionals.make_functional("dirichlet_p", path5, p=3.0),
        "lipschitz_sup": functionals.make_functional("lipschitz_sup", dgrid),
        "l1": functionals.make_functional("l1", node_measure=m4),
        "linf": functionals.make_functional("linf", node_measure=m4),
        "quadratic_form": functionals.make_functional("quadratic_form", matrix=L5),
    }


def _worst(fails):
    return "; ".join(fails[:4]) if fails else "ok"


# ---------------------------------------------------------------------------
# core invariants


@check("core.homogeneity")
def check_homogeneity():
    rng = np.random.default_rng(11)
    fails = []
    for name, F in _catalog().items():
        for _ in range(10):
            u = rng.standard_normal(F.dim)
            Ju = core.evaluate(F, u)
            for t in (-2.0, 0.5, 3.0):
                err = abs(core.evaluate(F, t * u) - abs(t) ** F.degree * Ju)
                if err > 1e-10 * (1.0 + Ju):
                    fails.append(f"{name} t={t} err={err:.2e}")
    return not fails, _worst(fails)


@check("core.nonnegativity")
def check_nonnegativity():
    rng = np.random.default_rng(12)
    fails = []
    for name, F in _catalog().items():
        for _ in range(20):
            if core.evaluate(F, rng.standard_normal(F.dim)) < 0:
                fails.append(name)
    return not fails, _worst(fails)


@check("core.nullspace_invariance")
def check_nullspace_invariance():
    rng = np.random.default_rng(13)
    fails = []
    for name, F in _catalog().items():
        if F.has_boundary or core.nullspace_basis(F).shape[1] == 0:
            continue
        for _ in range(10):
            u = rng.standard_normal(F.dim)
            Ju = core.evaluate(F, u)
            err = abs(core.evaluate(F, u + 3.7) - Ju)
            if err > 1e-10 * (1.0 + Ju):
                fails.append(f"{name} err={err:.2e}")
    return not fails, _worst(fails)


@check("core.projection_orthogonality")
def check_projection_orthogonality():
    rng = np.random.default_rng(14)
    fails = []
    for name, F in _catalog().items():
        B = core.nullspace_basis(F)
        for _ in range(10):
            u = rng.standard_normal(F.dim)
            r = u - core.project_nullspace(F, u)
            for k in range(B.shape[1]):
                ip = abs(core.inner(r, B[:, k], F.measure))
                if ip > 1e-12 * (1.0 + np.linalg.norm(u)):
                    fails.append(f"{name} ip={ip:.2e}")
    return not fails, _worst(fails)


@check("core.rayleigh_scale_invariance")
def check_rayleigh_scale_invariance():
    rng = np.random.default_rng(15)
    fails = []
    for name, F in _catalog().items():
        for _ in range(5):
            u = rng.standard_normal(F.dim)
            try:
                r1 = core.rayleigh(F, u)
            except core.NullspaceElement:
                continue
            for t in (-2.0, 0.5, 3.0):
                err = abs(core.rayleigh(F, t * u) - r1)
                if err > 1e-10 * (1.0 + abs(r1)):
                    fails.append(f"{name} t={t} err={err:.2e}")
    return not fails, _worst(fails)


@check("core.min_norm_subgradient")
def check_min_norm_subgradient():
    cat = _catalog()
    rng = np.random.default_rng(16)
    fails = []
    for name in ("l1", "linf"):
        F = cat[name]
        for _ in range(10):
            u = rng.standard_normal(F.dim)
            z = core.min_norm_subgradient(F, u)
            if not dual_ball_membership(F, z, tol=1e-12):
                fails.append(f"{name} dual ball")
            er = core.euler_residual(F, u, z)
            if er > 1e-12 * (1.0 + core.evaluate(F, u)):
                fails.append(f"{name} euler={er:.2e}")
    return not fails, _worst(fails)


@check("core.min_norm_minimality")
def check_min_norm_minimality():
    cat = _catalog()
    rng = np.random.default_rng(17)
    m = cat["l1"].measure
    fails = []
    # l1: free entries in [-1, 1] on the zero set
    F = cat["l1"]
    u = np.array([1.3, 0.0, -0.4, 0.0])
    zmin = core.min_norm_subgradient(F, u)
    nmin = core.norm(zmin, m)
    for _ in range(20):
        eta = zmin.copy()
        eta[u == 0.0] = rng.uniform(-1.0, 1.0, size=int(np.sum(u == 0.0)))
        if core.norm(eta, m) < nmin - 1e-12:
            fails.append("l1 minimality")
    # linf: convex weights on the (exactly tied) argmax set
    F = cat["linf"]
    u = np.array([2.0, -2.0, 2.0, 0.3])
    zmin = core.min_norm_subgradient(F, u)
    nmin = core.norm(zmin, m)
    sup = np.abs(u) == 2.0
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, size=int(np.sum(sup)))
        a /= np.sum(a)
        eta = np.zeros_like(u)
        eta[sup] = np.sign(u[sup]) * a / m[sup]
        er = core.euler_residual(F, u, eta)
        if er > 1e-12:
            fails.append(f"linf sample not a subgradient ({er:.2e})")
        if core.norm(eta, m) < nmin - 1e-12:
            fails.append("linf minimality")
    return not fails, _worst(fails)


# ---------------------------------------------------------------------------
# functional catalog invariants


@check("functionals.convexity")
def check_convexity():
    rng = np.random.default_rng(21)
    fails = []
    for name, F in _catalog().items():
        for _ in range(100):
            u = rng.standard_normal(F.dim)
            v = rng.standard_normal(F.dim)
            lhs = core.evaluate(F, 0.5 * u + 0.5 * v)
            rhs = 0.5 * core.evaluate(F, u) + 0.5 * core.evaluate(F, v)
            if lhs > rhs + 1e-12 * (1.0 + rhs):
                fails.append(f"{name} gap={lhs - rhs:.2e}")
    return not fails, _worst(fails)


@check("functionals.dirichlet2_equals_quadratic")
def check_dirichlet2_is_quadratic():
    g = functionals.build_grid_graph(functionals.GridSpec(width=5))
    Fd = functionals.make_functional("dirichlet_p", g, p=2.0)
    Fq = functionals.make_functional("quadratic_form",
                                     matrix=functionals.laplacian_matrix(g))
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(g.n)
        worst = max(worst, abs(core.evaluate(Fd, u) - core.evaluate(Fq, u)))
    return worst <= 1e-12 * 100, f"max dev {worst:.2e}"


@check("functionals.tv_equals_dirichlet1")
def check_tv_is_dirichlet1():
    g = functionals.build_grid_graph(functionals.GridSpec(width=5))
    Ftv = functionals.make_functional("graph_tv", g)
    F1 = functionals.make_functional("dirichlet_p", g, p=1.0)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(g.n)
        worst = max(worst, abs(core.evaluate(Ftv, u) - core.evaluate(F1, u)))
    return worst == 0.0, f"max dev {worst:.2e}"


@check("functionals.lipschitz_distance")
def check_lipschitz_distance_properties():
    g = functionals.build_grid_graph(
        functionals.GridSpec(width=9, boundary_mode="dirichlet"))
    F = functionals.make_functional("lipschitz_sup", g)
    d = oracles.distance_transform(g)
    fails = []
    if abs(core.evaluate(F, d) - 1.0) > 1e-12:
        fails.append("lip(d) != 1")
    rng = np.random.default_rng(24)
    interior = g.interior_mask
    for _ in range(20):
        u = rng.standard_normal(g.n)
        u[~interior] = 0.0
        lip = core.evaluate(F, u)
        bound = np.max(np.abs(u[interior]) / d[interior])
        if lip < bound - 1e-12:
            fails.append(f"lip {lip:.3e} < |u|/d {bound:.3e}")
    return not fails, _worst(fails)


# ---------------------------------------------------------------------------
# prox invariants


@check("prox.nonexpansive")
def check_prox_nonexpansive():
    rng = np.random.default_rng(31)
    tol = 1e-10
    fails = []
    for name, F in _catalog().items():
        for _ in range(10):
            a = rng.standard_normal(F.dim)
            b = rng.standard_normal(F.dim)
            sigma = rng.uniform(0.1, 1.0)
            pa = prox_fn(F, a, sigma, tol=tol).u
            pb = prox_fn(F, b, sigma, tol=tol).u
            m = F.measure
            lhs = core.norm(pa - pb, m)
            rhs = core.norm(a - b, m)
            if lhs > rhs + 1e-6:
                fails.append(f"{name} {lhs - rhs:.2e}")
    return not fails, _worst(fails)


@check("prox.optimality_certificate")
def check_prox_optimality():
    rng = np.random.default_rng(32)
    fails = []
    for name, F in _catalog().items():
        for _ in range(5):
            f = rng.standard_normal(F.dim)
            sol = prox_fn(F, f, 0.5, tol=1e-12)
            u, zeta = sol.u, sol.zeta
            er = core.euler_residual(F, u, zeta)
            if er > 1e-5 * (1.0 + core.evaluate(F, u)):
                fails.append(f"{name} euler={er:.2e}")
            # sampled subgradient inequality J(v) >= J(u) + <zeta, v-u>
            jw = core.evaluate(F, u)
            for _ in range(10):
                v = rng.standard_normal(F.dim)
                gap = jw + core.inner(zeta, v - u, F.measure) - core.evaluate(F, v)
                if gap > 1e-5 * (1.0 + jw):
                    fails.append(f"{name} gap={gap:.2e}")
    return not fails, _worst(fails)


@check("prox.nullspace_equivariance")
def check_prox_nullspace_equivariance():
    rng = np.random.default_rng(33)
    fails = []
    for name, F in _catalog().items():
        if F.has_boundary or core.nullspace_basis(F).shape[1] == 0:
            continue
        for _ in range(5):
            f = rng.standard_normal(F.dim)
            u1 = prox_fn(F, f, 0.3, tol=1e-12).u
            u2 = prox_fn(F, f + 2.5, 0.3, tol=1e-12).u
            dev = core.norm(u2 - (u1 + 2.5), F.measure)
            if dev > 1e-7:
                fails.append(f"{name} dev={dev:.2e}")
    return not fails, _worst(fails)


@check("prox.mass_conservation")
def check_prox_mass_conservation():
    rng = np.random.default_rng(34)
    fails = []
    for name, F in _catalog().items():
        for _ in range(5):
            f = rng.standard_normal(F.dim)
            u = prox_fn(F, f, 0.4, tol=1e-12).u
            dev = core.norm(core.project_nullspace(F, u)
                            - core.project_nullspace(F, f), F.measure)
            if dev > 1e-10:
                fails.append(f"{name} dev={dev:.2e}")
    return not fails, _worst(fails)


@check("prox.oracle_equivalence")
def check_prox_oracle_equivalence():
    rng = np.random.default_rng(35)
    path3 = functionals.build_grid_graph(functionals.GridSpec(width=3))
    m3 = np.array([1.0, 0.5, 2.0])
    L3 = functionals.laplacian_matrix(path3)
    handles = {
        "graph_tv": functionals.make_functional("graph_tv", path3),
        "dirichlet_p_1.5": functionals.make_functional("dirichlet_p", path3, p=1.5),
        "dirichlet_p_3": functionals.make_functional("dirichlet_p", path3, p=3.0),
        "lipschitz_sup": functionals.make_functional("lipschitz_sup", path3),
        "l1": functionals.make_functional("l1", node_measure=m3),
        "linf": functionals.make_functional("linf", node_measure=m3),
        "quadratic_form": functionals.make_functional("quadratic_form", matrix=L3),
    }
    fails = []
    for name, F in handles.items():
        for _ in range(6):
            f = rng.uniform(-1.0, 1.0, F.dim)
            sigma = rng.uniform(0.1, 0.8)
            u = prox_fn(F, f, sigma, tol=1e-12).u
            ub = brute_force_prox(F, f, sigma)
            dev = float(np.max(np.abs(u - ub)))
            if dev > 1e-3:
                fails.append(f"{name} dev={dev:.2e}")
    return not fails, _worst(fails)


@check("prox.continuity_in_sigma")
def check_prox_continuity():
    rng = np.random.default_rng(36)
    fails = []
    for name, F in _catalog().items():
        f = rng.standard_normal(F.dim)
        target = prox_fn(F, f, 0.5, tol=1e-12).u
        prev_dev = None
        for k in (2.0, 1.5, 1.1, 1.01, 1.001):
            u = prox_fn(F, f, 0.5 * k, tol=1e-12).u
            dev = core.norm(u - target, F.measure)
            if prev_dev is not None and dev > prev_dev + 1e-7:
                fails.append(f"{name} not improving")
            prev_dev = dev
        if prev_dev > 1e-2:
            fails.append(f"{name} final dev={prev_dev:.2e}")
    return not fails, _worst(fails)


# ---------------------------------------------------------------------------
# flow invariants


def _flow_cases():
    rng = np.random.default_rng(41)
    path6 = functionals.build_grid_graph(functionals.GridSpec(width=6))
    cases = []
    Ftv = functionals.make_functional("graph_tv", path6)
    cases.append((Ftv, rng.standard_normal(6), None))
    Fq = functionals.make_functional(
        "quadratic_form", matrix=functionals.laplacian_matrix(path6))
    cases.append((Fq, rng.standard_normal(6), None))
    Fl1 = functionals.make_functional("l1", n=5)
    cases.append((Fl1, np.array([0.4, -0.2, 0.8, 0.0, -0.6]), 0.1))
    return cases


@check("flow.invariants")
def check_flow_invariants():
    fails = []
    for F, f, tau in _flow_cases():
        tr = flow.run_flow(F, f, tau=tau, max_steps=200, prox_tol=1e-12)
        m = F.measure
        pf = core.project_nullspace(F, f)
        for k in range(len(tr.t)):
            if k > 0 and not tr.t[k] > tr.t[k - 1]:
                fails.append(f"{F.kind} time not increasing")
        for u in tr.us[1:]:  # mass conservation
            dev = core.norm(core.project_nullspace(F, u) - pf, m)
            if dev > 1e-10:
                fails.append(f"{F.kind} mass dev={dev:.2e}")
        if np.any(np.diff(tr.J) > 1e-9 * (1.0 + tr.J[0])):
            fails.append(f"{F.kind} energy not monotone")
        if np.any(np.diff(tr.dist) > 1e-9 * (1.0 + tr.dist[0])):
            fails.append(f"{F.kind} distance not monotone")
        lam = tr.Lambda[~np.isnan(tr.Lambda)]
        tol_lam = 1e-6 * (1.0 + lam[0]) + 100.0 * tr.prox_gap_total
        viol = np.max(np.diff(lam)) if len(lam) > 1 else 0.0
        if viol > tol_lam:
            fails.append(f"{F.kind} Lambda rose by {viol:.2e}")
        dec = flow.decompose(tr)
        if dec["reconstruction_residual"] > 1e-10 + tr.prox_gap_total:
            fails.append(f"{F.kind} reconstruction {dec['reconstruction_residual']:.2e}")
    return not fails, _worst(fails)


@check("flow.eigenvector_invariance")
def check_flow_eigenvector_invariance():
    g2 = core.WeightedGraph(n=2, edges=((0, 1, 1.0),))
    F = functionals.make_functional("graph_tv", g2)
    f = np.array([1.0, -1.0])
    lam = math.sqrt(2.0)
    cert = eigen_certificate(F, f / core.norm(f, F.measure), lam)
    fails = []
    if cert.max_residual > 1e-10:
        fails.append(f"certificate {cert.max_residual:.2e}")
    tr = flow.run_flow(F, f, tau=0.1, max_steps=50, prox_tol=1e-12)
    w0 = f / core.norm(f, F.measure)
    for u in tr.us[1:]:
        d = core.norm(u - tr.u_infinity, F.measure)
        if d > 1e-8 * tr.dist[0]:
            dev = core.norm((u - tr.u_infinity) / d - w0, F.measure)
            if dev > 1e-8:
                fails.append(f"profile drift {dev:.2e}")
    return not fails, _worst(fails)


# ---------------------------------------------------------------------------
# power invariants


@check("power.invariants")
def check_power_invariants():
    rng = np.random.default_rng(51)
    fails = []
    cat = _catalog()
    for name in ("graph_tv", "quadratic_form", "l1", "dirichlet_p_1.5"):
        F = cat[name]
        for rule in ("constant", "adaptive"):
            for c in (0.5, 0.9):
                start = rng.standard_normal(F.dim)
                pair = power.power_method(F, start, c=c, rule=rule,
                                          tol=1e-12, max_iter=300)
                Js = [h["J"] for h in pair.history]
                if np.any(np.diff(Js) > 1e-8 * (1.0 + Js[0])):
                    fails.append(f"{name}/{rule}/{c} J rose")
                sigmas = [h["sigma"] for h in pair.history]
                if rule == "adaptive" and np.any(np.diff(sigmas) < -1e-12):
                    fails.append(f"{name}/{rule}/{c} sigma decreased")
                if abs(core.norm(pair.w, F.measure) - 1.0) > 1e-12:
                    fails.append(f"{name}/{rule}/{c} |w| != 1")
                B = core.nullspace_basis(F)
                for k in range(B.shape[1]):
                    if abs(core.inner(pair.w, B[:, k], F.measure)) > 1e-10:
                        fails.append(f"{name}/{rule}/{c} nullspace leak")
                if pair.mu <= 0:
                    fails.append(f"{name}/{rule}/{c} prox vanished")
                # fixed-point consistency: the scalar stopping quantity
                # ||v|| - <v,w> <= tol gives ||v - mu*w|| <= sqrt(2*mu*tol)
                if pair.converged and pair.residual > math.sqrt(40.0 * 1e-12):
                    fails.append(f"{name}/{rule}/{c} residual {pair.residual:.2e}")
    return not fails, _worst(fails)


@check("power.lambda_vs_dense_oracle")
def check_power_vs_dense_oracle():
    g = functionals.build_grid_graph(functionals.GridSpec(width=6))
    L = functionals.laplacian_matrix(g)
    F = functionals.make_functional("quadratic_form", matrix=L)
    spec = oracles.dense_symmetric_eigs(L)
    lam1 = spec.eigenvalues[1]
    out = power.ground_state_search(F, restarts=3, seed=7, tol=1e-14,
                                    max_iter=5000)
    rel = abs(out["best"].lam - lam1) / lam1
    v1 = spec.eigenvectors[:, 1]
    cos = abs(core.inner(out["best"].w, v1 / np.linalg.norm(v1), F.measure))
    ok = rel <= 1e-8 and cos >= 1.0 - 1e-8
    return ok, f"rel={rel:.2e} cos={cos:.12f}"


# ---------------------------------------------------------------------------
# oracle invariants


@check("oracles.jacobi_reconstruction")
def check_jacobi_reconstruction():
    rng = np.random.default_rng(61)
    A = rng.standard_normal((12, 12))
    A = A + A.T
    spec = oracles.dense_symmetric_eigs(A)
    V, lam = spec.eigenvectors, spec.eigenvalues
    rec = np.linalg.norm(A - V @ np.diag(lam) @ V.T)
    ortho = np.max(np.abs(V.T @ V - np.eye(12)))
    res = max(np.linalg.norm(A @ V[:, i] - lam[i] * V[:, i]) for i in range(12))
    ok = (rec <= 1e-9 * np.linalg.norm(A) and ortho <= 1e-10
          and res <= 1e-10 * np.linalg.norm(A))
    return ok, f"rec={rec:.2e} ortho={ortho:.2e} res={res:.2e}"


@check("oracles.heat_semigroup")
def check_heat_semigroup():
    g = functionals.build_grid_graph(functionals.GridSpec(width=6))
    spec = oracles.dense_symmetric_eigs(functionals.laplacian_matrix(g))
    rng = np.random.default_rng(62)
    f = rng.standard_normal(6)
    u_ts = oracles.linear_heat_solution(spec, f, 0.7)
    u_t = oracles.linear_heat_solution(spec, f, 0.3)
    u_t_s = oracles.linear_heat_solution(spec, u_t, 0.4)
    dev = float(np.max(np.abs(u_ts - u_t_s)))
    return dev <= 1e-10, f"dev={dev:.2e}"


@check("oracles.distance_eikonal")
def check_distance_eikonal():
    g = functionals.build_grid_graph(
        functionals.GridSpec(width=5, height=4, spacing=0.5,
                             boundary_mode="dirichlet"))
    d = oracles.distance_transform(g)
    adj = [[] for _ in range(g.n)]
    for (i, j, w) in g.edges:
        adj[i].append((j, 1.0 / w))
        adj[j].append((i, 1.0 / w))
    worst = 0.0
    for node in range(g.n):
        if node in g.boundary:
            continue
        best = min(d[nb] + ln for (nb, ln) in adj[node])
        worst = max(worst, abs(best - d[node]))
    return worst <= 1e-12, f"dev={worst:.2e}"


@check("oracles.profile_ode")
def check_profile_ode():
    h = 1e-6
    worst = 0.0
    for (lam, p) in ((1.0, 1.0), (2.0, 1.5), (1.0, 2.0), (1.0, 3.0)):
        for t in (0.0, 0.1, 0.25):
            a_m = oracles.eigen_profile(lam, p, max(t - h, 0.0))
            a_p = oracles.eigen_profile(lam, p, t + h)
            if a_p <= 0.0 or a_m <= 0.0:
                continue
            da = (a_p - a_m) / (h + min(t, h))
            a = oracles.eigen_profile(lam, p, t)
            worst = max(worst, abs(da + lam * a ** (p - 1.0)))
    return worst <= 1e-4, f"res={worst:.2e}"


# ---------------------------------------------------------------------------
# serialization invariant (round-trip of the CSV number format)


@check("cli.float_roundtrip")
def check_float_roundtrip():
    from .cli import _fmt  # imported here, as cli imports this module
    rng = np.random.default_rng(71)
    xs = np.concatenate([rng.standard_normal(50),
                         10.0 ** rng.uniform(-300, 300, 20)])
    bad = sum(1 for x in xs if float(_fmt(x)) != x)
    return bad == 0, f"{bad} non-roundtrip values"


def run_suite(name_filter: str = None):
    """Run the checks whose name contains `name_filter`; all without one."""
    results = []
    for name, fn in CHECKS:
        if not name_filter or name_filter in name:
            passed, detail = fn()
            results.append(CheckResult(name, bool(passed), detail))
    return results
