"""Built-in invariant suite: homogeneity, convexity, prox optimality and
nonexpansiveness, flow monotonicity and mass conservation, power-method
well-definedness, and oracle self-consistency.

Each check, registered under its name by `@check`, yields one (label, error,
bound) row per comparison, and `_verdict` alone decides: a check fails when
any error is greater than its bound (or NaN) and shows its first four
failing rows; a passing check shows its worst row, the error that is the
largest fraction of its bound; a check that yields no row fails with
"nothing measured".  `run_suite` runs the checks whose name contains an
optional substring, and the CLI `validate` command prints their table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, flow, functionals, oracles, power
from .prox import prox as prox_fn, dual_ball_membership, eigen_certificate


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


#: (name, check) pairs in run order; each check returns (passed, detail)
CHECKS = []


def check(name):
    """Register the decorated row generator as the check called `name`."""
    def register(rows):
        CHECKS.append((name, lambda: _verdict(list(rows()))))
        return rows
    return register


def _verdict(rows):
    """(passed, detail) of a check's (label, error, bound) rows."""
    if not rows:
        return False, "nothing measured"
    failed = [row for row in rows if not row[1] <= row[2]]
    shown = failed[:4] or [max(rows, key=lambda row: row[1] / row[2]
                               if row[2] > 0 else -math.inf)]
    op = ">" if failed else "<="
    return not failed, "; ".join(f"{label}: {err:.3g} {op} {bound:.3g}"
                                 for label, err, bound in shown)


# ---------------------------------------------------------------------------
# shared fixtures


def _catalog():
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


def _shiftable():
    """The catalog handles with no boundary and a nullspace (the constants)."""
    return [(name, F) for name, F in _catalog().items()
            if not F.has_boundary and core.nullspace_basis(F).shape[1]]


# ---------------------------------------------------------------------------
# core invariants


@check("core.homogeneity")
def check_homogeneity():
    rng = np.random.default_rng(11)
    for name, F in _catalog().items():
        for _ in range(10):
            u = rng.standard_normal(F.dim)
            Ju = core.evaluate(F, u)
            for t in (-2.0, 0.5, 3.0):
                err = abs(core.evaluate(F, t * u) - abs(t) ** F.degree * Ju)
                yield f"{name} t={t}", err, 1e-10 * (1.0 + Ju)


@check("core.nonnegativity")
def check_nonnegativity():
    rng = np.random.default_rng(12)
    for name, F in _catalog().items():
        for _ in range(20):
            yield f"{name} 0 vs J", 0.0, core.evaluate(F, rng.standard_normal(F.dim))


@check("core.nullspace_invariance")
def check_nullspace_invariance():
    rng = np.random.default_rng(13)
    for name, F in _shiftable():
        for _ in range(10):
            u = rng.standard_normal(F.dim)
            Ju = core.evaluate(F, u)
            yield name, abs(core.evaluate(F, u + 3.7) - Ju), 1e-10 * (1.0 + Ju)


@check("core.projection_orthogonality")
def check_projection_orthogonality():
    rng = np.random.default_rng(14)
    for name, F in _catalog().items():
        B = core.nullspace_basis(F)
        for _ in range(10):
            u = rng.standard_normal(F.dim)
            r = u - core.project_nullspace(F, u)
            for k in range(B.shape[1]):
                yield (name, abs(core.inner(r, B[:, k], F.measure)),
                       1e-12 * (1.0 + np.linalg.norm(u)))


@check("core.rayleigh_scale_invariance")
def check_rayleigh_scale_invariance():
    rng = np.random.default_rng(15)
    for name, F in _catalog().items():
        for _ in range(5):
            u = rng.standard_normal(F.dim)
            try:
                r1 = core.rayleigh(F, u)
            except core.NullspaceElement:
                continue
            for t in (-2.0, 0.5, 3.0):
                yield (f"{name} t={t}", abs(core.rayleigh(F, t * u) - r1),
                       1e-10 * (1.0 + abs(r1)))


@check("core.min_norm_subgradient")
def check_min_norm_subgradient():
    cat = _catalog()
    rng = np.random.default_rng(16)
    for name in ("l1", "linf"):
        F = cat[name]
        for _ in range(10):
            u = rng.standard_normal(F.dim)
            z = core.min_norm_subgradient(F, u)
            inside = dual_ball_membership(F, z, tol=1e-12)
            yield f"{name} not in the dual ball", float(not inside), 0.0
            yield (f"{name} euler", core.euler_residual(F, u, z),
                   1e-12 * (1.0 + core.evaluate(F, u)))


@check("core.min_norm_minimality")
def check_min_norm_minimality():
    cat = _catalog()
    rng = np.random.default_rng(17)
    m = cat["l1"].measure
    # l1: free entries in [-1, 1] on the zero set
    F = cat["l1"]
    u = np.array([1.3, 0.0, -0.4, 0.0])
    zmin = core.min_norm_subgradient(F, u)
    nmin = core.norm(zmin, m)
    for _ in range(20):
        eta = zmin.copy()
        eta[u == 0.0] = rng.uniform(-1.0, 1.0, size=int(np.sum(u == 0.0)))
        yield "l1 min norm - norm", nmin - core.norm(eta, m), 1e-12
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
        yield "linf sample is a subgradient", core.euler_residual(F, u, eta), 1e-12
        yield "linf min norm - norm", nmin - core.norm(eta, m), 1e-12


# ---------------------------------------------------------------------------
# functional catalog invariants


@check("functionals.convexity")
def check_convexity():
    rng = np.random.default_rng(21)
    for name, F in _catalog().items():
        for _ in range(100):
            u = rng.standard_normal(F.dim)
            v = rng.standard_normal(F.dim)
            lhs = core.evaluate(F, 0.5 * u + 0.5 * v)
            rhs = 0.5 * core.evaluate(F, u) + 0.5 * core.evaluate(F, v)
            yield f"{name} J(midpoint) - mean J", lhs - rhs, 1e-12 * (1.0 + rhs)


@check("functionals.dirichlet2_equals_quadratic")
def check_dirichlet2_is_quadratic():
    cat = _catalog()
    Fd, Fq = cat["dirichlet_p_2"], cat["quadratic_form"]
    rng = np.random.default_rng(22)
    for _ in range(100):
        u = rng.standard_normal(Fd.dim)
        yield ("dirichlet_p_2 - quadratic_form",
               abs(core.evaluate(Fd, u) - core.evaluate(Fq, u)), 1e-12 * 100)


@check("functionals.tv_equals_dirichlet1")
def check_tv_is_dirichlet1():
    Ftv = _catalog()["graph_tv"]
    F1 = functionals.make_functional("dirichlet_p", Ftv.graph, p=1.0)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = rng.standard_normal(Ftv.dim)
        yield ("graph_tv - dirichlet_p_1",
               abs(core.evaluate(Ftv, u) - core.evaluate(F1, u)), 0.0)


@check("functionals.lipschitz_distance")
def check_lipschitz_distance_properties():
    g = functionals.build_grid_graph(
        functionals.GridSpec(width=9, boundary_mode="dirichlet"))
    F = functionals.make_functional("lipschitz_sup", g)
    d = oracles.distance_transform(g)
    yield "lip(d) - 1", abs(core.evaluate(F, d) - 1.0), 1e-12
    rng = np.random.default_rng(24)
    interior = g.interior_mask
    for _ in range(20):
        u = rng.standard_normal(g.n)
        u[~interior] = 0.0
        lip = core.evaluate(F, u)
        ratio = np.max(np.abs(u[interior]) / d[interior])
        yield "max |u|/d - lip(u)", ratio - lip, 1e-12


# ---------------------------------------------------------------------------
# prox invariants


@check("prox.nonexpansive")
def check_prox_nonexpansive():
    rng = np.random.default_rng(31)
    for name, F in _catalog().items():
        for _ in range(10):
            a = rng.standard_normal(F.dim)
            b = rng.standard_normal(F.dim)
            sigma = rng.uniform(0.1, 1.0)
            pa = prox_fn(F, a, sigma, tol=1e-10).u
            pb = prox_fn(F, b, sigma, tol=1e-10).u
            m = F.measure
            yield (f"{name} |pa - pb| - |a - b|",
                   core.norm(pa - pb, m) - core.norm(a - b, m), 1e-6)


@check("prox.optimality_certificate")
def check_prox_optimality():
    rng = np.random.default_rng(32)
    for name, F in _catalog().items():
        for _ in range(5):
            f = rng.standard_normal(F.dim)
            sol = prox_fn(F, f, 0.5, tol=1e-12)
            u, zeta = sol.u, sol.zeta
            jw = core.evaluate(F, u)
            yield f"{name} euler", core.euler_residual(F, u, zeta), 1e-5 * (1.0 + jw)
            # sampled subgradient inequality J(v) >= J(u) + <zeta, v-u>
            for _ in range(10):
                v = rng.standard_normal(F.dim)
                gap = jw + core.inner(zeta, v - u, F.measure) - core.evaluate(F, v)
                yield f"{name} subgradient gap", gap, 1e-5 * (1.0 + jw)


@check("prox.nullspace_equivariance")
def check_prox_nullspace_equivariance():
    rng = np.random.default_rng(33)
    for name, F in _shiftable():
        for _ in range(5):
            f = rng.standard_normal(F.dim)
            u1 = prox_fn(F, f, 0.3, tol=1e-12).u
            u2 = prox_fn(F, f + 2.5, 0.3, tol=1e-12).u
            yield name, core.norm(u2 - (u1 + 2.5), F.measure), 1e-7


@check("prox.mass_conservation")
def check_prox_mass_conservation():
    rng = np.random.default_rng(34)
    for name, F in _catalog().items():
        for _ in range(5):
            f = rng.standard_normal(F.dim)
            u = prox_fn(F, f, 0.4, tol=1e-12).u
            dev = core.norm(core.project_nullspace(F, u)
                            - core.project_nullspace(F, f), F.measure)
            yield name, dev, 1e-10


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
    for name, F in handles.items():
        for _ in range(6):
            f = rng.uniform(-1.0, 1.0, F.dim)
            sigma = rng.uniform(0.1, 0.8)
            u = prox_fn(F, f, sigma, tol=1e-12).u
            ub = oracles.brute_force_prox(F, f, sigma)
            yield name, float(np.max(np.abs(u - ub))), 1e-3


@check("prox.continuity_in_sigma")
def check_prox_continuity():
    rng = np.random.default_rng(36)
    ks = (2.0, 1.5, 1.1, 1.01, 1.001)
    for name, F in _catalog().items():
        f = rng.standard_normal(F.dim)
        target = prox_fn(F, f, 0.5, tol=1e-12).u
        devs = [core.norm(prox_fn(F, f, 0.5 * k, tol=1e-12).u - target, F.measure)
                for k in ks]
        for k, prev_dev, dev in zip(ks[1:], devs, devs[1:]):
            yield f"{name} dev at sigma=0.5*{k} - the last", dev - prev_dev, 1e-7
        yield f"{name} final dev", devs[-1], 1e-2


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
    for F, f, tau in _flow_cases():
        tr = flow.run_flow(F, f, tau=tau, max_steps=200, prox_tol=1e-12)
        pf = core.project_nullspace(F, f)
        for t0, t1 in zip(tr.t, tr.t[1:]):
            yield f"{F.kind} time not increasing", float(not t1 > t0), 0.0
        for u in tr.us[1:]:  # mass conservation
            dev = core.norm(core.project_nullspace(F, u) - pf, F.measure)
            yield f"{F.kind} mass dev", dev, 1e-10
        for rise in np.diff(tr.J):
            yield f"{F.kind} energy rise", rise, 1e-9 * (1.0 + tr.J[0])
        for rise in np.diff(tr.dist):
            yield f"{F.kind} distance rise", rise, 1e-9 * (1.0 + tr.dist[0])
        lam = tr.Lambda[~np.isnan(tr.Lambda)]
        tol_lam = 1e-6 * (1.0 + lam[0]) + 100.0 * tr.prox_gap_total
        viol = np.max(np.diff(lam)) if len(lam) > 1 else 0.0
        yield f"{F.kind} Lambda rise", viol, tol_lam
        residual = flow.decompose(tr)["reconstruction_residual"]
        yield f"{F.kind} reconstruction", residual, 1e-10 + tr.prox_gap_total


@check("flow.eigenvector_invariance")
def check_flow_eigenvector_invariance():
    g2 = core.WeightedGraph(n=2, edges=((0, 1, 1.0),))
    F = functionals.make_functional("graph_tv", g2)
    f = np.array([1.0, -1.0])
    w0 = f / core.norm(f, F.measure)
    yield "certificate", eigen_certificate(F, w0, math.sqrt(2.0)).max_residual, 1e-10
    tr = flow.run_flow(F, f, tau=0.1, max_steps=50, prox_tol=1e-12)
    for u in tr.us[1:]:
        d = core.norm(u - tr.u_infinity, F.measure)
        if d > 1e-8 * tr.dist[0]:
            yield ("profile drift",
                   core.norm((u - tr.u_infinity) / d - w0, F.measure), 1e-8)


# ---------------------------------------------------------------------------
# power invariants


@check("power.invariants")
def check_power_invariants():
    rng = np.random.default_rng(51)
    cat = _catalog()
    for name in ("graph_tv", "quadratic_form", "l1", "dirichlet_p_1.5",
                 "lipschitz_sup"):
        F = cat[name]
        for rule in ("constant", "adaptive"):
            for c in (0.5, 0.9):
                run = f"{name}/{rule}/{c}"
                start = rng.standard_normal(F.dim)
                pair = power.power_method(F, start, c=c, rule=rule,
                                          tol=1e-12, max_iter=300)
                Js = [h["J"] for h in pair.history]
                for rise in np.diff(Js):
                    yield f"{run} J rise", rise, 1e-8 * (1.0 + Js[0])
                if rule == "adaptive":
                    for change in np.diff([h["sigma"] for h in pair.history]):
                        yield f"{run} sigma fall", -change, 1e-12
                yield f"{run} |w| - 1", abs(core.norm(pair.w, F.measure) - 1.0), 1e-12
                B = core.nullspace_basis(F)
                for k in range(B.shape[1]):
                    leak = abs(core.inner(pair.w, B[:, k], F.measure))
                    yield f"{run} nullspace leak", leak, 1e-10
                yield f"{run} prox vanished", float(pair.mu <= 0), 0.0
                # fixed-point consistency: the scalar stopping quantity
                # ||v|| - <v,w> <= tol gives ||v - mu*w|| <= sqrt(2*mu*tol)
                if pair.converged:
                    yield f"{run} residual", pair.residual, math.sqrt(40.0 * 1e-12)


@check("power.lambda_vs_dense_oracle")
def check_power_vs_dense_oracle():
    g = functionals.build_grid_graph(functionals.GridSpec(width=6))
    L = functionals.laplacian_matrix(g)
    F = functionals.make_functional("quadratic_form", matrix=L)
    spec = oracles.dense_symmetric_eigs(L)
    lam1 = spec.eigenvalues[1]
    out = power.ground_state_search(F, restarts=3, seed=7, tol=1e-14,
                                    max_iter=5000)
    yield "relative lambda error", abs(out["best"].lam - lam1) / lam1, 1e-8
    v1 = spec.eigenvectors[:, 1]
    cos = abs(core.inner(out["best"].w, v1 / np.linalg.norm(v1), F.measure))
    yield "1 - cos", 1.0 - cos, 1e-8


# ---------------------------------------------------------------------------
# oracle invariants


@check("oracles.jacobi_reconstruction")
def check_jacobi_reconstruction():
    rng = np.random.default_rng(61)
    A = rng.standard_normal((12, 12))
    A = A + A.T
    spec = oracles.dense_symmetric_eigs(A)
    V, lam = spec.eigenvectors, spec.eigenvalues
    normA = np.linalg.norm(A)
    yield "reconstruction", np.linalg.norm(A - V @ np.diag(lam) @ V.T), 1e-9 * normA
    yield "orthogonality", np.max(np.abs(V.T @ V - np.eye(12))), 1e-10
    for i in range(12):
        yield (f"residual {i}", np.linalg.norm(A @ V[:, i] - lam[i] * V[:, i]),
               1e-10 * normA)


@check("oracles.heat_semigroup")
def check_heat_semigroup():
    g = functionals.build_grid_graph(functionals.GridSpec(width=6))
    spec = oracles.dense_symmetric_eigs(functionals.laplacian_matrix(g))
    rng = np.random.default_rng(62)
    f = rng.standard_normal(6)
    u_ts = oracles.linear_heat_solution(spec, f, 0.7)
    u_t = oracles.linear_heat_solution(spec, f, 0.3)
    u_t_s = oracles.linear_heat_solution(spec, u_t, 0.4)
    yield "u(0.7) - u(0.4) of u(0.3)", float(np.max(np.abs(u_ts - u_t_s))), 1e-10


@check("oracles.distance_eikonal")
def check_distance_eikonal():
    g = functionals.build_grid_graph(
        functionals.GridSpec(width=5, height=4, spacing=0.5,
                             boundary_mode="dirichlet"))
    d = oracles.distance_transform(g)
    # Bellman's equation: each interior d is its best neighbour's d + 1/w
    i, j, w = g.edge_arrays
    best = np.full(g.n, np.inf)
    np.minimum.at(best, i, d[j] + 1.0 / w)
    np.minimum.at(best, j, d[i] + 1.0 / w)
    for node in np.flatnonzero(g.interior_mask):
        yield f"node {node}", abs(best[node] - d[node]), 1e-12


@check("oracles.profile_ode")
def check_profile_ode():
    h = 1e-6
    for (lam, p) in ((1.0, 1.0), (2.0, 1.5), (1.0, 2.0), (1.0, 3.0)):
        for t in (0.0, 0.1, 0.25):
            a_m = oracles.eigen_profile(lam, p, max(t - h, 0.0))
            a_p = oracles.eigen_profile(lam, p, t + h)
            if a_p <= 0.0 or a_m <= 0.0:
                continue
            da = (a_p - a_m) / (h + min(t, h))
            a = oracles.eigen_profile(lam, p, t)
            yield f"lam={lam} p={p} t={t}", abs(da + lam * a ** (p - 1.0)), 1e-4


# ---------------------------------------------------------------------------
# serialization invariant (round-trip of the CSV number format)


@check("cli.float_roundtrip")
def check_float_roundtrip():
    from .cli import _fmt  # imported here, as cli imports this module
    rng = np.random.default_rng(71)
    xs = np.concatenate([rng.standard_normal(50),
                         10.0 ** rng.uniform(-300, 300, 20)])
    yield "non-roundtrip values", float(sum(1 for x in xs if float(_fmt(x)) != x)), 0.0


def run_suite(name_filter: str = None):
    """Run the checks whose name contains `name_filter`; all without one."""
    results = []
    for name, fn in CHECKS:
        if not name_filter or name_filter in name:
            passed, detail = fn()
            results.append(CheckResult(name, bool(passed), detail))
    return results
