"""Negative controls for the invariant suite: each fault is planted in one
function the checks read, and every check listed for it must fail under the
fault and pass once it is removed."""

import dataclasses
import importlib
import re

import numpy as np
import pytest

from nlspec import cli, core, oracles, power, validation

flow_module = importlib.import_module("nlspec.flow")

# (module, attribute, fault applied to the real result and the call's
# positional arguments, checks that must catch it)
FAULTS = {
    "prox_expands": (validation, "prox_fn",
                     lambda sol, *args: dataclasses.replace(sol, u=1.5 * sol.u),
                     ["prox.nonexpansive", "prox.mass_conservation",
                      "prox.oracle_equivalence"]),
    "distance_stretched": (oracles, "distance_transform",
                           lambda d, *args: 1.01 * d,
                           ["oracles.distance_eikonal",
                            "functionals.lipschitz_distance"]),
    "energy_cubic_term": (core, "evaluate",
                          lambda J, F, u: J + 1e-6 * float(np.sum(np.asarray(u) ** 3)),
                          ["core.homogeneity", "functionals.convexity"]),
    "flow_step_shifted": (flow_module, "prox",
                          lambda sol, *args: dataclasses.replace(sol, u=sol.u + 1e-6),
                          ["flow.invariants"]),
    "energy_negated": (core, "evaluate", lambda J, F, u: -J,
                       ["core.nonnegativity"]),
    "energy_linear_term": (core, "evaluate",
                           lambda J, F, u: J + 1e-6 * float(np.sum(u)),
                           ["core.nullspace_invariance",
                            "core.rayleigh_scale_invariance"]),
    "dirichlet_energy_offset": (core, "evaluate",
                                lambda J, F, u: J + 1e-6 * (F.kind == "dirichlet_p"),
                                ["functionals.dirichlet2_equals_quadratic",
                                 "functionals.tv_equals_dirichlet1"]),
    "projection_stretched": (core, "project_nullspace",
                             lambda P, *args: 1.01 * P,
                             ["core.projection_orthogonality"]),
    "subgradient_stretched": (core, "min_norm_subgradient",
                              lambda z, *args: 1.5 * z,
                              ["core.min_norm_subgradient",
                               "core.min_norm_minimality"]),
    "subgradient_tilted": (core, "min_norm_subgradient",
                           # plus a multiple of 1 - (<1,u>/<u,u>) u, orthogonal to
                           # u: <z, u> and so the Euler residual are unchanged
                           lambda z, F, u: z + 0.01 * (1.0 - np.sum(F.measure * u)
                                                       / np.sum(F.measure * u * u) * u),
                           ["core.min_norm_subgradient"]),
    "prox_zeta_stretched": (validation, "prox_fn",
                            lambda sol, *args: dataclasses.replace(sol, zeta=1.5 * sol.zeta),
                            ["prox.optimality_certificate"]),
    "prox_shift_follows_mean": (validation, "prox_fn",
                                lambda sol, F, f, sigma: dataclasses.replace(
                                    sol, u=sol.u + 1e-6 * np.mean(f)),
                                ["prox.nullspace_equivariance"]),
    "prox_jumps_above_half": (validation, "prox_fn",
                              lambda sol, F, f, sigma: dataclasses.replace(
                                  sol, u=sol.u + 0.1 * (sigma > 0.5)),
                              ["prox.continuity_in_sigma"]),
    "flow_step_squared": (flow_module, "prox",
                          lambda sol, *args: dataclasses.replace(
                              sol, u=sol.u + 1e-6 * sol.u ** 2),
                          ["flow.eigenvector_invariance"]),
    "flow_time_frozen": (flow_module, "run_flow",
                         lambda tr, *args: dataclasses.replace(tr, t=0.0 * tr.t),
                         ["flow.invariants"]),
    "power_prox_vanished": (power, "power_method",
                            lambda pair, *args: dataclasses.replace(pair, mu=0.0),
                            ["power.invariants"]),
    "power_unnormalized": (power, "power_method",
                           lambda pair, *args: dataclasses.replace(pair, w=1.01 * pair.w),
                           ["power.invariants"]),
    "eigenvalues_stretched": (oracles, "dense_symmetric_eigs",
                              lambda spec, *args: dataclasses.replace(
                                  spec, eigenvalues=1.01 * spec.eigenvalues),
                              ["oracles.jacobi_reconstruction",
                               "power.lambda_vs_dense_oracle"]),
    "heat_stretched": (oracles, "linear_heat_solution",
                       lambda u, *args: 1.01 * u, ["oracles.heat_semigroup"]),
    "profile_stretched": (oracles, "eigen_profile",
                          lambda a, *args: 1.01 * a, ["oracles.profile_ode"]),
    "format_15_digits": (cli, "_fmt", lambda s, x: "%.15g" % x,
                         ["cli.float_roundtrip"]),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_check_fails_under_fault_and_passes_without(monkeypatch, fault):
    module, attr, plant, checks = FAULTS[fault]
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr,
                        lambda *args, **kw: plant(real(*args, **kw), *args))
    for name in checks:
        (result,) = validation.run_suite(name)
        assert not result.passed, f"{name} passed under {fault}: {result.detail}"
    monkeypatch.undo()
    for name in checks:
        (result,) = validation.run_suite(name)
        assert result.passed, f"{name} failed without a fault: {result.detail}"


def test_every_check_has_a_fault():
    caught = {name for *_, checks in FAULTS.values() for name in checks}
    assert caught == {name for name, _ in validation.CHECKS}


def test_check_that_measures_nothing_fails(monkeypatch):
    """Without a handle whose nullspace the constants span, the shift checks
    compare nothing, and that is a failure, not a pass."""
    catalog = validation._catalog()
    monkeypatch.setattr(validation, "_catalog", lambda: {
        name: catalog[name] for name in ("lipschitz_sup", "l1", "linf")})
    for name in ("core.nullspace_invariance", "prox.nullspace_equivariance"):
        (result,) = validation.run_suite(name)
        assert (result.passed, result.detail) == (False, "nothing measured")


def test_verdict_shows_the_worst_row_or_the_first_failures():
    rows = [("a", 1.0, 4.0), ("b", 3.0, 4.0), ("c", 0.0, 0.0), ("d", 5.0, 9.0)]
    assert validation._verdict(rows) == (True, "b: 3 <= 4")
    rows = [(f"r{k}", float(k), 0.5) for k in range(6)]
    assert validation._verdict(rows) == (
        False, "r1: 1 > 0.5; r2: 2 > 0.5; r3: 3 > 0.5; r4: 4 > 0.5")
    assert not validation._verdict([("nan", float("nan"), 1.0)])[0]


def test_every_passing_check_names_its_worst_row():
    for result in validation.run_suite():
        assert result.passed, f"{result.name}: {result.detail}"
        err, bound = re.fullmatch(r".+: (\S+) <= (\S+)", result.detail).groups()
        assert float(err) <= float(bound), result.name
