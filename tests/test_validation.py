"""Negative controls for the invariant suite: each fault is planted in one
function the checks read, and every check listed for it must fail under the
fault and pass once it is removed."""

import dataclasses
import importlib

import numpy as np
import pytest

from nlspec import core, oracles, validation

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
