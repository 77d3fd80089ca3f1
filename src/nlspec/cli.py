"""Command-line front end.

Subcommands:
  nlspec run <config.yaml>     execute a flow/power/decompose/oracle experiment
  nlspec validate              run the built-in invariant suite
  nlspec compare <a> <b>       compare two trace CSV files column-wise

Configs are YAML with a strict schema (unknown keys are rejected).  Every
stochastic option carries an explicit seed; the NLSPEC_SEED environment
variable overrides the config seed and is recorded in the manifest.  All
numbers in CSV output use 17 significant digits so 64-bit floats round-trip.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np
import yaml

from . import __version__
from . import core, flow, functionals, oracles, power, validation
from .errors import ConfigError, NlspecError

FMT = "%.17g"


def _fmt(x) -> str:
    return FMT % float(x)


# ---------------------------------------------------------------------------
# strict config parsing


def _require_mapping(obj, ctx):
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(d, allowed, required, ctx):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{ctx}: unknown key {key!r}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{ctx}: missing required key {key!r}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    cfg = _require_mapping(raw, "config")
    _check_keys(cfg, allowed={"functional", "domain", "input", "command",
                              "options", "output_dir", "seed"},
                required={"functional", "command"}, ctx="config")
    command = cfg["command"]
    if command not in ("flow", "power", "decompose", "validate", "oracle"):
        raise ConfigError(f"config: unknown command {command!r}")
    fsec = _require_mapping(cfg["functional"], "functional")
    _check_keys(fsec, allowed={"kind", "p", "matrix", "node_measure", "n"},
                required={"kind"}, ctx="functional")
    if "domain" in cfg:
        dsec = _require_mapping(cfg["domain"], "domain")
        _check_keys(dsec, allowed={"grid", "edges", "n", "boundary",
                                   "node_measure"}, required=set(), ctx="domain")
        if "grid" in dsec:
            gsec = _require_mapping(dsec["grid"], "domain.grid")
            _check_keys(gsec, allowed={"width", "height", "spacing",
                                       "boundary_mode"},
                        required={"width"}, ctx="domain.grid")
    if "input" in cfg:
        isec = _require_mapping(cfg["input"], "input")
        _check_keys(isec, allowed={"values", "file", "generator"},
                    required=set(), ctx="input")
        if sum(k in isec for k in ("values", "file", "generator")) != 1:
            raise ConfigError("input: give exactly one of values/file/generator")
        if "generator" in isec:
            gsec = _require_mapping(isec["generator"], "input.generator")
            _check_keys(gsec, allowed={"name", "nodes", "seed", "index"},
                        required={"name"}, ctx="input.generator")
    if "options" in cfg:
        osec = _require_mapping(cfg["options"], "options")
        _check_keys(osec, allowed={"tau", "max_steps", "time_horizon",
                                   "extinction_tol", "prox_tol", "tol",
                                   "max_iter", "c", "rule", "restarts",
                                   "lambda1_estimate", "store_iterates"},
                    required=set(), ctx="options")
    return cfg


def build_domain(cfg) -> core.WeightedGraph:
    dsec = cfg.get("domain")
    if dsec is None:
        return None
    if "grid" in dsec:
        g = dict(dsec["grid"])
        spec = functionals.GridSpec(width=int(g["width"]),
                                    height=int(g.get("height", 1)),
                                    spacing=float(g.get("spacing", 1.0)),
                                    boundary_mode=g.get("boundary_mode", "neumann"))
        return functionals.build_grid_graph(spec), spec
    if "edges" not in dsec or "n" not in dsec:
        raise ConfigError("domain: need either grid or explicit n + edges")
    edges = tuple((int(i), int(j), float(w)) for (i, j, w) in dsec["edges"])
    measure = dsec.get("node_measure")
    graph = core.WeightedGraph(
        n=int(dsec["n"]), edges=edges,
        boundary=frozenset(int(b) for b in dsec.get("boundary", [])),
        node_measure=None if measure is None else np.asarray(measure, float))
    return graph, None


def build_functional(cfg, graph):
    fsec = cfg["functional"]
    kind = fsec["kind"]
    kwargs = {}
    if "p" in fsec:
        kwargs["p"] = float(fsec["p"])
    if "matrix" in fsec:
        kwargs["matrix"] = np.asarray(fsec["matrix"], dtype=float)
    if "node_measure" in fsec:
        kwargs["node_measure"] = np.asarray(fsec["node_measure"], dtype=float)
    if "n" in fsec:
        kwargs["n"] = int(fsec["n"])
    try:
        return functionals.make_functional(kind, graph, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"functional: {exc}") from exc


def build_input(cfg, F, seed, manifest):
    isec = cfg.get("input")
    if isec is None:
        raise ConfigError("this command requires an input section")
    if "values" in isec:
        return core.as_signal(np.asarray(isec["values"], dtype=float), F.dim)
    if "file" in isec:
        data = np.loadtxt(isec["file"])
        if data.ndim == 2:
            data = data[:, -1]
        return core.as_signal(data, F.dim)
    gen = isec["generator"]
    name = gen["name"]
    if name == "indicator":
        nodes = gen.get("nodes")
        if nodes is None:
            raise ConfigError("input.generator: indicator needs nodes")
        f = np.zeros(F.dim)
        f[np.asarray(nodes, dtype=int)] = 1.0
        return f
    if name == "gaussian":
        gseed = int(gen.get("seed", seed))
        manifest["resolved"]["input_seed"] = gseed
        return np.random.default_rng(gseed).standard_normal(F.dim)
    if name == "oracle_eigenvector":
        idx = int(gen.get("index", 1))
        if F.kind == "quadratic_form":
            A = F.matrix
        elif F.graph is not None:
            A = functionals.laplacian_matrix(F.graph)
        else:
            raise ConfigError("oracle_eigenvector needs a matrix or graph")
        spec = oracles.dense_symmetric_eigs(A, node_measure=F.measure)
        return spec.eigenvectors[:, idx].copy()
    raise ConfigError(f"input.generator: unknown generator {name!r}")


# ---------------------------------------------------------------------------
# artifact writers


def write_trace_csv(path, trace):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["k", "t", "tau", "J", "dist", "Lambda",
                     "zeta_norm", "profile_residual"])
        for k in range(len(trace.t)):
            wr.writerow([k, _fmt(trace.t[k]), _fmt(trace.tau[k]),
                         _fmt(trace.J[k]), _fmt(trace.dist[k]),
                         _fmt(trace.Lambda[k]), _fmt(trace.zeta_norm[k]),
                         _fmt(trace.profile_residual[k])])


def write_signal(dirpath, name, values, grid_spec, manifest):
    os.makedirs(dirpath, exist_ok=True)
    values = np.asarray(values, dtype=float)
    if grid_spec is not None and grid_spec.lattice_shape[0] > 1:
        rows, cols = grid_spec.lattice_shape
        vmin, vmax = float(np.min(values)), float(np.max(values))
        span = vmax - vmin
        if span > 0:
            pix = np.round((values - vmin) / span * 65535).astype(int)
        else:
            pix = np.zeros(len(values), dtype=int)
        path = os.path.join(dirpath, name + ".pgm")
        with open(path, "w") as fh:
            fh.write(f"P2\n{cols} {rows}\n65535\n")
            for r in range(rows):
                fh.write(" ".join(str(v) for v in pix[r * cols:(r + 1) * cols]))
                fh.write("\n")
        manifest["signal_scaling"][name + ".pgm"] = {
            "vmin": vmin, "vmax": vmax,
            "note": "value = vmin + pixel/65535 * (vmax - vmin)"}
        return path
    path = os.path.join(dirpath, name + ".txt")
    with open(path, "w") as fh:
        for i, v in enumerate(values):
            fh.write(f"{i} {_fmt(v)}\n")
    return path


def write_eigen_csv(path, pairs):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["restart", "lambda", "mu", "sigma", "rayleigh", "residual",
                     "euler_residual", "subgradient_gap", "collinearity",
                     "oscillation", "converged"])
        for idx, p in enumerate(pairs):
            c = p.certificate
            wr.writerow([idx, _fmt(p.lam), _fmt(p.mu), _fmt(p.sigma),
                         _fmt(p.rayleigh), _fmt(p.residual),
                         _fmt(c.euler_residual), _fmt(c.subgradient_gap),
                         _fmt(c.collinearity), _fmt(p.oscillation),
                         int(p.converged)])


# ---------------------------------------------------------------------------
# commands


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.output_dir or cfg.get("output_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    seed = int(cfg.get("seed", 0))
    env_seed = os.environ.get("NLSPEC_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    manifest = {
        "version": __version__,
        "config": cfg,
        "seed": seed,
        "seed_from_env": env_seed is not None,
        "resolved": {},
        "signal_scaling": {},
        "warnings": [],
    }
    domain = build_domain(cfg)
    graph, grid_spec = (domain if domain is not None else (None, None))
    F = build_functional(cfg, graph)
    opts = cfg.get("options", {}) or {}
    command = cfg["command"]
    status = 0

    if command in ("flow", "decompose"):
        f = build_input(cfg, F, seed, manifest)
        trace = flow.run_flow(
            F, f,
            tau=opts.get("tau"),
            max_steps=int(opts.get("max_steps", 1000)),
            time_horizon=opts.get("time_horizon"),
            extinction_tol=float(opts.get("extinction_tol", 1e-8)),
            prox_tol=float(opts.get("prox_tol", 1e-11)),
            store_iterates=bool(opts.get("store_iterates", False)))
        manifest["resolved"]["tau"] = float(trace.tau[1]) if len(trace.tau) > 1 else None
        manifest["resolved"]["extinction_index"] = trace.extinction_index
        manifest["resolved"]["prox_gap_total"] = trace.prox_gap_total
        manifest["warnings"].extend(trace.warnings)
        write_trace_csv(os.path.join(out_dir, "trace.csv"), trace)
        sig_dir = os.path.join(out_dir, "signals")
        write_signal(sig_dir, "input", trace.f, grid_spec, manifest)
        write_signal(sig_dir, "u_infinity", trace.u_infinity, grid_spec, manifest)
        write_signal(sig_dir, "u_last", trace.u_last, grid_spec, manifest)
        if args.profile:
            pc = flow.profile_convergence(trace)
            write_signal(sig_dir, "profile", pc["w_last"], grid_spec, manifest)
            manifest["resolved"]["lambda_last"] = pc["lambda_last"]
        if command == "decompose":
            dec = flow.decompose(trace)
            band_dir = os.path.join(out_dir, "bands")
            os.makedirs(band_dir, exist_ok=True)
            for k, band in enumerate(dec["bands"], start=1):
                write_signal(band_dir, f"band_{k:05d}", band, grid_spec, manifest)
            write_signal(band_dir, "nullspace_part", dec["nullspace_part"],
                         grid_spec, manifest)
            write_signal(band_dir, "remainder", dec["remainder"],
                         grid_spec, manifest)
            manifest["resolved"]["reconstruction_residual"] = \
                dec["reconstruction_residual"]
    elif command == "power":
        out = power.ground_state_search(
            F, restarts=int(opts.get("restarts", 5)), seed=seed,
            c=float(opts.get("c", 0.9)), rule=opts.get("rule", "constant"),
            tol=float(opts.get("tol", 1e-13)),
            max_iter=int(opts.get("max_iter", 2000)))
        write_eigen_csv(os.path.join(out_dir, "eigen.csv"), out["all"])
        sig_dir = os.path.join(out_dir, "signals")
        write_signal(sig_dir, "ground_state", out["best"].w, grid_spec, manifest)
        manifest["resolved"]["best_lambda"] = out["best"].lam
        manifest["resolved"]["lambda_spread"] = \
            [min(out["lambdas"]), max(out["lambdas"])]
        for (idx, err) in out["failures"]:
            manifest["warnings"].append(f"restart {idx} failed: {err}")
    elif command == "oracle":
        sig_dir = os.path.join(out_dir, "signals")
        wrote = False
        if F.kind == "quadratic_form" or F.graph is not None:
            A = F.matrix if F.kind == "quadratic_form" \
                else functionals.laplacian_matrix(F.graph)
            spec = oracles.dense_symmetric_eigs(A, node_measure=F.measure)
            with open(os.path.join(out_dir, "oracle.csv"), "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["index", "eigenvalue"])
                for i, lam in enumerate(spec.eigenvalues):
                    wr.writerow([i, _fmt(lam)])
            for i in range(min(4, F.dim)):
                write_signal(sig_dir, f"eigenvector_{i}",
                             spec.eigenvectors[:, i], grid_spec, manifest)
            wrote = True
        if F.graph is not None and F.graph.boundary:
            d = oracles.distance_transform(F.graph)
            write_signal(sig_dir, "distance", d, grid_spec, manifest)
            wrote = True
        if not wrote:
            raise ConfigError("oracle command needs a matrix or a graph domain")
    elif command == "validate":
        return cmd_validate(args)

    if manifest["warnings"] and args.strict:
        status = 1
    with open(os.path.join(out_dir, "manifest.yaml"), "w") as fh:
        yaml.safe_dump(_plain(manifest), fh, sort_keys=True)
    return status


def _plain(obj):
    """Recursively convert numpy scalars/arrays so YAML output stays plain."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def cmd_validate(args) -> int:
    results = validation.run_suite(getattr(args, "filter", None))
    width = max(len(r.name) for r in results) if results else 10
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {tag}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise NlspecError(f"{path}: empty CSV")
    return rows[0], rows[1:]


def cmd_compare(args) -> int:
    head_a, rows_a = _read_csv(args.a)
    head_b, rows_b = _read_csv(args.b)
    if head_a != head_b:
        print(f"schema mismatch: {head_a} vs {head_b}")
        return 2
    if len(rows_a) != len(rows_b):
        print(f"row count mismatch: {len(rows_a)} vs {len(rows_b)}")
        return 2
    tols = {}
    if args.tol_file:
        with open(args.tol_file) as fh:
            tols = yaml.safe_load(fh) or {}
    status = 0
    worst = {}
    for r, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for c, col in enumerate(head_a):
            va, vb = float(ra[c]), float(rb[c])
            if math.isnan(va) and math.isnan(vb):
                continue
            dev = abs(va - vb)
            if col not in worst or dev > worst[col][0]:
                worst[col] = (dev, r)
            if dev > float(tols.get(col, 0.0)):
                print(f"mismatch at row {r} column {col!r}: "
                      f"{_fmt(va)} vs {_fmt(vb)} (|diff| = {dev:.3e})")
                status = 2
    for col in head_a:
        if col in worst:
            print(f"column {col!r}: max |diff| = {worst[col][0]:.3e} "
                  f"(row {worst[col][1]})")
    return status


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 1; code 2 means a failed comparison or
    validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    # run flags are accepted before and after `run`.  Their defaults live in
    # the namespace passed to parse_args: an argparse default on either parser
    # would reset a flag given on the other.
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--strict", action="store_true",
                           default=argparse.SUPPRESS,
                           help="treat solver warnings as errors")
    run_flags.add_argument("--output-dir", default=argparse.SUPPRESS)
    parser = _Parser(
        prog="nlspec", parents=[run_flags],
        description="Nonlinear spectral decompositions on weighted graphs")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", parents=[run_flags],
                           help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--profile", action="store_true",
                       help="also write the asymptotic profile signal")
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="run the built-in invariant suite")
    p_val.add_argument("--filter", default=None,
                       help="only report checks whose name contains this string")
    p_val.set_defaults(fn=cmd_validate)

    p_cmp = sub.add_parser("compare", help="compare two trace CSV files")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--tol-file", default=None,
                       help="YAML mapping column name to absolute tolerance")
    p_cmp.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv, argparse.Namespace(strict=False,
                                                      output_dir=None))
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NlspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
