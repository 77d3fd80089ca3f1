"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail line
with the measured quantities, so the whole surface is auditable from the
pytest -v output.
"""

import math
import time

import numpy as np
import pytest

import nlspec as nl
from nlspec import validation


CRITERION_LINES = []


def report(num, desc, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc} ({detail})"
    print(line)
    CRITERION_LINES.append(line)
    assert ok, line


def path_graph(n):
    return nl.build_grid_graph(nl.GridSpec(width=n))


def test_criterion_1_linear_oracle_equivalence():
    """p=2 power method matches the dense eigensolver on Neumann paths."""
    worst_rel, worst_cos, worst_time = 0.0, 1.0, 0.0
    for n in (2, 6, 20):
        t0 = time.perf_counter()
        g = path_graph(n)
        L = nl.laplacian_matrix(g)
        F = nl.make_functional("quadratic_form", matrix=L)
        spec = nl.dense_symmetric_eigs(L)
        lam1 = spec.eigenvalues[1]
        start = np.ones(n) + 0.01 * np.random.default_rng(n).standard_normal(n)
        pair = nl.power_method(F, start, tol=1e-14, max_iter=100000)
        elapsed = time.perf_counter() - t0
        rel = abs(pair.lam - lam1) / lam1
        v1 = spec.eigenvectors[:, 1] / np.linalg.norm(spec.eigenvectors[:, 1])
        cos = abs(float(pair.w @ v1)) / np.linalg.norm(pair.w)
        worst_rel = max(worst_rel, rel)
        worst_cos = min(worst_cos, cos)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel <= 1e-8 and worst_cos >= 1.0 - 1e-8 and worst_time < 5.0
    report(1, "power method matches dense oracle on paths n=2,6,20", ok,
           f"max rel err {worst_rel:.2e}, min cosine {worst_cos:.12f}, "
           f"max time {worst_time:.2f}s")


def test_criterion_2_implicit_euler_vs_heat_flow():
    """Implicit Euler tracks the closed-form heat solution to first order."""
    t0 = time.perf_counter()
    n, tau = 20, 1e-3
    g = path_graph(n)
    L = nl.laplacian_matrix(g)
    F = nl.make_functional("quadratic_form", matrix=L)
    spec = nl.dense_symmetric_eigs(L)
    lam_max = spec.eigenvalues[-1]
    f = np.random.default_rng(42).standard_normal(n)
    tr = nl.run_flow(F, f, tau=tau, max_steps=1000, time_horizon=1.0,
                     prox_tol=1e-13)
    worst = 0.0
    for k in range(len(tr.t)):
        exact = nl.linear_heat_solution(spec, f, tr.t[k])
        worst = max(worst, float(np.linalg.norm(tr.us[k] - exact)))
    bound = 5.0 * tau * lam_max * float(np.linalg.norm(f))
    elapsed = time.perf_counter() - t0
    ok = worst <= bound and elapsed < 10.0
    report(2, "implicit Euler within first-order bound of heat flow", ok,
           f"max err {worst:.3e} <= bound {bound:.3e}, time {elapsed:.2f}s")


def test_criterion_3_distance_function_ground_state():
    """lipschitz_sup ground states are multiples of the distance function."""
    t0 = time.perf_counter()
    worst_cos, worst_rq = 1.0, 0.0
    for width in (9, 33):
        g = nl.build_grid_graph(
            nl.GridSpec(width=width, boundary_mode="dirichlet"))
        F = nl.make_functional("lipschitz_sup", g)
        d = nl.distance_transform(g)
        dn = d / nl.norm(d, F.measure)
        rq_oracle = nl.evaluate(F, d) / nl.norm(d, F.measure)
        out = nl.ground_state_search(F, restarts=3, seed=width, tol=1e-11,
                                     max_iter=4000)
        cos = abs(nl.inner(out["best"].w, dn, F.measure))
        rel = abs(out["best"].rayleigh - rq_oracle) / rq_oracle
        worst_cos = min(worst_cos, cos)
        worst_rq = max(worst_rq, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_cos >= 0.99 and worst_rq <= 0.02 and elapsed < 60.0
    report(3, "ground state matches distance transform on widths 9, 33", ok,
           f"min cosine {worst_cos:.4f}, max rayleigh rel dev {worst_rq:.4f}, "
           f"time {elapsed:.1f}s")


def _certified_tv_eigenpair():
    g = nl.WeightedGraph(n=2, edges=((0, 1, 1.0),))
    F = nl.make_functional("graph_tv", g)
    f = np.array([1.0, -1.0])
    lam = math.sqrt(2.0)
    w = f / nl.norm(f, F.measure)
    assert nl.eigen_certificate(F, w, lam).max_residual <= 1e-12
    return F, f, lam


def test_criterion_4_eigenfunction_invariance_and_extinction():
    """TV eigenvector decays linearly and goes extinct exactly at dist0/lam."""
    F, f, lam = _certified_tv_eigenpair()
    tau = 0.1
    tr = nl.run_flow(F, f, tau=tau, prox_tol=1e-13)
    d0 = tr.dist[0]
    dev = max(abs(tr.dist[k] - max(d0 - lam * tr.t[k], 0.0))
              for k in range(len(tr.t)))
    t_ex = tr.t[tr.extinction_index]
    ext_err = abs(t_ex - d0 / lam)
    env = nl.check_decay_envelopes(tr, F, lam)
    worst_slack = min(env[name]["worst"]
                      for name in ("upper", "improved_lower", "improved_upper"))
    ok = dev <= 1e-8 and ext_err <= tau and worst_slack >= -1e-8
    report(4, "eigenvector invariance, exact extinction, decay envelopes", ok,
           f"decay dev {dev:.2e}, extinction err {ext_err:.2e}, "
           f"worst envelope slack {worst_slack:.2e}")


def test_criterion_5_extinction_bound_sandwich():
    """For a p=1 ground-state input the extinction bounds pinch the truth."""
    F, f, lam = _certified_tv_eigenpair()
    tau = 0.1
    tr = nl.run_flow(F, f, tau=tau, prox_tol=1e-13)
    rep = nl.extinction_report(tr, F, lambda1_estimate=lam)
    gap = rep["upper"] - rep["lower"]
    ok = (gap <= 2.0 * tau
          and rep["lower"] - tau <= rep["measured"] <= rep["upper"] + tau)
    report(5, "extinction bounds agree and bracket the measured time", ok,
           f"lower {rep['lower']:.6f} <= measured {rep['measured']:.6f} "
           f"<= upper {rep['upper']:.6f}, gap {gap:.2e}")


def test_criterion_6_power_method_invariant_suite():
    """Power-method invariants across functionals, rules, steps and seeds."""
    g = path_graph(4)
    handles = [
        nl.make_functional("graph_tv", g),
        nl.make_functional("l1", n=4),
        nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g)),
        nl.make_functional("dirichlet_p", g, p=1.5),
    ]
    violations = 0
    runs = 0
    for F in handles:
        for rule in ("constant", "adaptive"):
            for c in (0.5, 0.9):
                for seed in range(20):
                    start = np.random.default_rng(seed).standard_normal(F.dim)
                    pair = nl.power_method(F, start, c=c, rule=rule,
                                           tol=1e-12, max_iter=60)
                    runs += 1
                    Js = [h["J"] for h in pair.history]
                    gap_tol = 1e-8 * (1.0 + Js[0])
                    if any(b > a + gap_tol for a, b in zip(Js, Js[1:])):
                        violations += 1
                    if any(abs(h["w_norm"] - 1.0) > 1e-12
                           for h in pair.history):
                        violations += 1
                    if any(h["mu"] <= 0.0 for h in pair.history):
                        violations += 1
                    if rule == "adaptive":
                        sig = [h["sigma"] for h in pair.history]
                        if any(b < a - 1e-12 for a, b in zip(sig, sig[1:])):
                            violations += 1
    ok = violations == 0
    report(6, "power invariants over functionals x rules x c x 20 seeds", ok,
           f"{runs} runs, {violations} violations")


def test_criterion_7_prox_oracle_equivalence_and_nonexpansiveness():
    """Production prox agrees with the brute-force oracle; nonexpansive."""
    rng = np.random.default_rng(77)
    g3 = path_graph(3)
    g2 = path_graph(2)
    m3 = np.array([1.0, 0.5, 2.0])
    handles = [
        nl.make_functional("graph_tv", g3),
        nl.make_functional("dirichlet_p", g3, p=1.5),
        nl.make_functional("dirichlet_p", g3, p=3.0),
        nl.make_functional("dirichlet_p", g2, p=2.0),
        nl.make_functional("lipschitz_sup", g3),
        nl.make_functional("l1", node_measure=m3),
        nl.make_functional("linf", node_measure=m3),
        nl.make_functional("quadratic_form", matrix=nl.laplacian_matrix(g3)),
    ]
    worst = 0.0
    count = 0
    while count < 200:
        F = handles[count % len(handles)]
        f = rng.uniform(-1.0, 1.0, F.dim)
        sigma = rng.uniform(0.05, 0.9)
        u = nl.prox(F, f, sigma, tol=1e-12).u
        ub = nl.brute_force_prox(F, f, sigma)
        worst = max(worst, float(np.max(np.abs(u - ub))))
        count += 1
    tol = 1e-10
    worst_exp = 0.0
    for k in range(500):
        F = handles[k % len(handles)]
        a = rng.standard_normal(F.dim)
        b = rng.standard_normal(F.dim)
        sigma = rng.uniform(0.05, 1.0)
        pa = nl.prox(F, a, sigma, tol=tol).u
        pb = nl.prox(F, b, sigma, tol=tol).u
        m = F.measure
        worst_exp = max(worst_exp,
                        nl.norm(pa - pb, m) - nl.norm(a - b, m))
    ok = worst <= 1e-3 and worst_exp <= 2e-5
    report(7, "200 oracle cross-checks and 500 nonexpansiveness pairs", ok,
           f"max oracle dev {worst:.2e}, max expansiveness {worst_exp:.2e}")


def test_criterion_8_decomposition_reconstruction():
    """Flows reconstruct their input; l1 bands are certified eigenvectors."""
    rng = np.random.default_rng(88)
    g5 = path_graph(5)
    dg = nl.build_grid_graph(nl.GridSpec(width=5, boundary_mode="dirichlet"))
    runs = [
        (nl.make_functional("graph_tv", g5), rng.standard_normal(5), None),
        (nl.make_functional("quadratic_form",
                            matrix=nl.laplacian_matrix(g5)),
         rng.standard_normal(5), None),
        (nl.make_functional("dirichlet_p", g5, p=1.5),
         rng.standard_normal(5), None),
        (nl.make_functional("lipschitz_sup", dg),
         rng.standard_normal(7), None),
        (nl.make_functional("linf", n=4),
         np.array([0.9, -0.3, 0.5, 0.1]), 0.05),
        (nl.make_functional("l1", n=5),
         np.array([0.4, -0.2, 0.8, 0.0, -0.6]), 0.1),
    ]
    worst_rec, worst_cert = 0.0, 0.0
    for F, f, tau in runs:
        tr = nl.run_flow(F, f, tau=tau, max_steps=400, prox_tol=1e-12)
        dec = nl.decompose(tr)
        slack = dec["reconstruction_residual"] - tr.prox_gap_total
        worst_rec = max(worst_rec, slack)
        if F.kind == "l1":
            scores = nl.band_eigen_scores(tr, F)
            worst_cert = max(worst_cert,
                             max(c.max_residual for c in scores["certificates"]))
    ok = worst_rec <= 1e-8 and worst_cert <= 1e-8
    report(8, "reconstruction across the catalog; certified l1 bands", ok,
           f"worst residual beyond gaps {worst_rec:.2e}, "
           f"worst l1 band certificate {worst_cert:.2e}")


def test_criterion_9_validation_suite_flow_invariants():
    """Mass conservation and Lambda monotonicity on every suite run."""
    results = {r.name: r for r in validation.run_suite()}
    flow_ok = results["flow.invariants"].passed
    eig_ok = results["flow.eigenvector_invariance"].passed
    all_ok = all(r.passed for r in results.values())
    ok = flow_ok and eig_ok and all_ok
    failed = [n for n, r in results.items() if not r.passed]
    report(9, "validation suite holds mass conservation and Lambda decay", ok,
           f"{len(results)} checks, failing: {failed if failed else 'none'}")
