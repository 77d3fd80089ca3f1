"""The four benchmark workloads: the config each run gives `nlspec run`, a
small config of the same kind for warming up, and the check of each job's
artifacts.

Why each workload was chosen is in README.md.  The checks use numpy and the
oracles directly, never a traced production path, and run outside the timed
region.
"""

from __future__ import annotations

import csv
import os

import numpy as np
import yaml

NAMES = ("tv_decompose_32", "lipschitz_path_33", "pdirichlet_flow_128", "tv_flow_128")

GRID_128 = {"width": 128, "height": 128, "spacing": 1.0 / 128}
FLOW_STEPS = {"pdirichlet_flow_128": 20, "tv_flow_128": 12}


def _symmetric_image(seed):
    """A rotation or reflection, a sign and a constant shift, all drawn from
    `seed`, applied to the 32x32 Gaussian field of seed 0.

    Each is an exact symmetry of graph TV on a Neumann grid, so every seed
    gives the flow the same work on a different array.  Independent Gaussian
    fields would not: their time to extinction varies threefold.
    """
    field = np.random.default_rng(0).standard_normal((32, 32))
    rng = np.random.default_rng(seed)
    k = int(rng.integers(8))
    field = np.rot90(field, k % 4)
    if k >= 4:
        field = field.T
    return float(rng.choice([-1.0, 1.0])) * field + rng.uniform(-1.0, 1.0)


def config(name, seed, workdir):
    """The config a job of workload `name` runs for benchmark seed `seed`."""
    if name == "tv_decompose_32":
        path = os.path.join(workdir, "input.txt")
        np.savetxt(path, _symmetric_image(seed).ravel(), fmt="%.17g")
        return {"functional": {"kind": "graph_tv"},
                "domain": {"grid": {"width": 32, "height": 32, "spacing": 1.0 / 32}},
                "input": {"file": path}, "command": "decompose", "seed": seed}
    if name == "lipschitz_path_33":
        # acceptance criterion 3 at width 33 as the test runs it; the power
        # method draws its starts from this seed, so the benchmark seed is
        # not passed on (see README.md)
        return {"functional": {"kind": "lipschitz_sup"},
                "domain": {"grid": {"width": 33, "boundary_mode": "dirichlet"}},
                "command": "power",
                "options": {"restarts": 3, "tol": 1e-11, "max_iter": 4000},
                "seed": 33}
    kind = {"kind": "dirichlet_p", "p": 1.5} if name == "pdirichlet_flow_128" \
        else {"kind": "graph_tv"}
    return {"functional": kind, "domain": {"grid": dict(GRID_128)},
            "input": {"generator": {"name": "gaussian", "seed": seed}},
            "command": "flow", "options": {"max_steps": FLOW_STEPS[name]},
            "seed": seed}


def warmup_config(name):
    """A config of the same functional and command on a tiny domain, run once
    before timing so that first-call costs fall outside the jobs."""
    if name == "lipschitz_path_33":
        return {"functional": {"kind": "lipschitz_sup"},
                "domain": {"grid": {"width": 5, "boundary_mode": "dirichlet"}},
                "command": "power", "options": {"restarts": 1, "max_iter": 50},
                "seed": 0}
    kind = {"kind": "dirichlet_p", "p": 1.5} if name == "pdirichlet_flow_128" \
        else {"kind": "graph_tv"}
    return {"functional": kind,
            "domain": {"grid": {"width": 4, "height": 4, "spacing": 0.25}},
            "input": {"generator": {"name": "gaussian", "seed": 0}},
            "command": "decompose" if name == "tv_decompose_32" else "flow",
            "options": {"max_steps": 3}, "seed": 0}


def check(name, cfg, out_dir):
    """None if the artifacts of a job are correct, else what is wrong."""
    with open(os.path.join(out_dir, "manifest.yaml")) as fh:
        manifest = yaml.safe_load(fh)
    if manifest["warnings"]:
        return f"manifest warnings: {manifest['warnings'][:3]}"
    resolved = manifest["resolved"]
    if name == "tv_decompose_32":
        if resolved.get("extinction_index") is None:
            return "flow did not reach extinction"
        if not resolved["reconstruction_residual"] <= 1e-10:
            return f"reconstruction residual {resolved['reconstruction_residual']}"
        return None
    if name == "lipschitz_path_33":
        return _check_ground_state(cfg, out_dir)
    with open(os.path.join(out_dir, "trace.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    steps = len(rows) - 2  # header and k = 0
    if steps != cfg["options"]["max_steps"]:
        return f"trace.csv has {steps} steps, expected {cfg['options']['max_steps']}"
    return None


def _check_ground_state(cfg, out_dir):
    """Criterion 3's gates: cosine >= 0.99 with the distance transform and
    the Rayleigh quotient within 2% of the oracle's."""
    from nlspec import GridSpec, build_grid_graph
    from nlspec.oracles import distance_transform

    grid = cfg["domain"]["grid"]
    graph = build_grid_graph(GridSpec(width=grid["width"],
                                      boundary_mode=grid["boundary_mode"]))
    i_idx, j_idx, w = graph.edge_arrays
    m = graph.node_measure
    u = np.loadtxt(os.path.join(out_dir, "signals", "ground_state.txt"))[:, 1]
    d = distance_transform(graph)

    def norm(v):
        return float(np.sqrt(np.sum(m * v * v)))

    def lipschitz(v):
        return float(np.max(w * np.abs(v[j_idx] - v[i_idx])))

    cos = abs(float(np.sum(m * u * d))) / (norm(u) * norm(d))
    rq = lipschitz(u) / norm(u)
    rq_oracle = lipschitz(d) / norm(d)
    rel = abs(rq - rq_oracle) / rq_oracle
    if cos < 0.99 or rel > 0.02:
        return f"ground state: cosine {cos:.4f}, Rayleigh deviation {rel:.4f}"
    return None
