"""Per-layer timing of one `nlspec run`, measured from outside the package.

For the length of a traced job, each public function is replaced by a timing
wrapper at every module binding the program looks it up through, and put back
afterwards; no file of the package changes.  Coarse calls (cli steps, prox,
flows, power iterations, writers) each leave a span with its parent's id.  The
edge kernels and `evaluate` run about 1e5 times a job, so they only add to
per-name totals: calls, total time, self time and computed bytes.

A call's self time is its duration minus the time spent in traced calls made
from inside it.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (module, attribute, layer name).  `flow` binds `prox` and `evaluate` by name
# at import; `power` imports `prox` from the submodule at call time, so the
# submodule's binding covers it.
SPANS = [
    ("nlspec.cli", "main", "cli.main"),
    ("nlspec.cli", "write_trace_csv", "cli.write"),
    ("nlspec.cli", "write_signal", "cli.write"),
    ("nlspec.cli", "write_eigen_csv", "cli.write"),
    ("nlspec.functionals", "build_grid_graph", "functionals.build_grid_graph"),
    ("nlspec.functionals", "make_functional", "functionals.make_functional"),
    ("nlspec.prox", "prox", "prox"),
    ("nlspec.flow", "prox", "prox"),
    ("nlspec.prox", "minimize", "prox.minimize"),
    ("nlspec.flow", "run_flow", "flow.run_flow"),
    ("nlspec.flow", "decompose", "flow.decompose"),
    ("nlspec.power", "ground_state_search", "power.ground_state_search"),
    ("nlspec.power", "power_method", "power.power_method"),
    ("nlspec.power", "eigen_certificate", "core.eigen_certificate"),
]
COUNTERS = [
    ("nlspec.edgecalc", fn, "edgecalc." + fn)
    for fn in ("edge_diff", "edge_div", "project_box", "project_weighted_l1",
               "grad_div_opnorm")
] + [
    (mod, "evaluate", "core.evaluate")
    for mod in ("nlspec.core", "nlspec.prox", "nlspec.flow", "nlspec.power")
]

# what a span keeps of its call's return value
INFO = {
    "prox": lambda sol: (sol.iterations, sol.converged),
    "flow.run_flow": lambda trace: trace.n_steps,
    "power.power_method": lambda pair: (len(pair.history), pair.converged),
}


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float  # seconds since the tracer was entered
    seconds: float
    self_s: float
    info: object


class _YamlProxy:
    """Stands in for the `yaml` module inside `nlspec.cli`, so that the
    manifest dump is timed as a write."""

    def __init__(self, module, safe_dump):
        self._module = module
        self.safe_dump = safe_dump

    def __getattr__(self, name):
        return getattr(self._module, name)


def _nbytes(args, result):
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return total + (result.nbytes if isinstance(result, np.ndarray) else 0)


class Tracer:
    """Context manager that traces the nlspec calls made inside it."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, bytes
        self._stack = [[0.0, None]]  # frames: [traced child seconds, enclosing span id]
        self._ids = itertools.count()
        self._saved = []
        self._origin = 0.0

    def _span(self, fn, name):
        spans, stack, ids = self.spans, self._stack, self._ids
        info = INFO.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                parent[0] += dt
                spans.append(Span(frame[1], parent[1], name, t0 - self._origin, dt,
                                  dt - frame[0],
                                  info(result) if info and result is not None else None))
        return traced

    def _counter(self, fn, name):
        stack, rec = self._stack, self.counters[name]

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                parent[0] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            rec[3] += _nbytes(args, result)
            return result
        return traced

    def _replace(self, module, attr, new):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def __enter__(self):
        for mod, attr, name in SPANS:
            module = importlib.import_module(mod)
            self._replace(module, attr, self._span(getattr(module, attr), name))
        for mod, attr, name in COUNTERS:
            module = importlib.import_module(mod)
            self._replace(module, attr, self._counter(getattr(module, attr), name))
        cli = importlib.import_module("nlspec.cli")
        self._replace(cli, "yaml", _YamlProxy(
            cli.yaml, self._span(cli.yaml.safe_dump, "cli.write")))
        self._origin = time.perf_counter()
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)
        return False

    def summary(self, out_dir):
        """Per-layer metrics of the traced job, plus the samples behind its
        percentiles: prox call times (ms) and power restart times (s)."""
        by = defaultdict(list)
        for s in self.spans:
            by[s.name].append(s)

        def total(name):
            return sum(s.seconds for s in by[name])

        def self_s(name):
            return sum(s.self_s for s in by[name])

        def frac(num, den):
            return num / den if den else 0.0

        m = {}
        c = self.counters
        m["edgecalc.edge_div.calls"] = c["edgecalc.edge_div"][0]
        m["edgecalc.edge_div.self_s"] = c["edgecalc.edge_div"][2]
        m["edgecalc.edge_div.bytes_computed"] = c["edgecalc.edge_div"][3]
        m["edgecalc.edge_diff.calls"] = c["edgecalc.edge_diff"][0]
        m["edgecalc.edge_diff.self_s"] = c["edgecalc.edge_diff"][2]
        m["edgecalc.project_box.self_s"] = c["edgecalc.project_box"][2]
        m["edgecalc.grad_div_opnorm.calls"] = c["edgecalc.grad_div_opnorm"][0]
        m["edgecalc.grad_div_opnorm.total_s"] = c["edgecalc.grad_div_opnorm"][1]
        m["edgecalc.project_weighted_l1.calls"] = c["edgecalc.project_weighted_l1"][0]
        m["edgecalc.project_weighted_l1.self_s"] = c["edgecalc.project_weighted_l1"][2]

        # a call that raised has no info; its job is counted as failed
        prox = by["prox"]
        its = [s.info[0] for s in prox if s.info]
        converged = sum(1 for s in prox if s.info and s.info[1])
        m["prox.calls"] = len(prox)
        m["prox.self_s"] = self_s("prox")
        m["prox.iterations"] = sum(its)
        m["prox.iterations_max"] = max(its, default=0)
        m["prox.unconverged"] = len(prox) - converged
        m["prox.converged_frac"] = frac(converged, len(prox))
        m["prox.minimize.s"] = total("prox.minimize")

        m["core.evaluate.calls"] = c["core.evaluate"][0]
        m["core.evaluate.self_s"] = c["core.evaluate"][2]
        m["core.eigen_certificate.self_s"] = self_s("core.eigen_certificate")
        m["functionals.build_grid_graph.s"] = total("functionals.build_grid_graph")
        m["functionals.make_functional.s"] = total("functionals.make_functional")

        flows = {s.id for s in by["flow.run_flow"]}
        steps = sum(s.info or 0 for s in by["flow.run_flow"])
        m["flow.run_flow.self_s"] = self_s("flow.run_flow")
        m["flow.steps"] = steps
        m["flow.accepted_frac"] = frac(steps, sum(1 for s in prox if s.parent in flows))
        m["flow.decompose.s"] = total("flow.decompose")

        restarts = by["power.power_method"]
        m["power.power_method.self_s"] = self_s("power.power_method")
        m["power.iterations"] = sum(s.info[0] for s in restarts if s.info)
        m["power.converged_frac"] = frac(sum(1 for s in restarts if s.info and s.info[1]),
                                         len(restarts))

        files = [os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs]
        m["cli.write.s"] = total("cli.write")
        m["cli.write.files"] = len(files)
        m["cli.write.bytes"] = sum(os.path.getsize(f) for f in files)
        m["trace.unattributed_s"] = self_s("cli.main")
        samples = {"prox_call_ms": [1e3 * s.seconds for s in prox],
                   "restart_s": [s.seconds for s in restarts]}
        return m, samples
