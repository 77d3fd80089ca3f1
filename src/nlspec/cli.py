"""Command-line front end.

Subcommands:
  nlspec run <config.yaml>     execute a flow/power/decompose/oracle experiment
  nlspec validate              run the built-in invariant suite
  nlspec compare <a> <b>       compare two trace CSV files column-wise

Configs are YAML with a strict schema that converts values and rejects unknown
keys and options the command does not use.  Every stochastic option carries
an explicit seed; the NLSPEC_SEED environment variable overrides the config
seed and is recorded in the manifest.  All numbers in CSV output use 17
significant digits so 64-bit floats round-trip.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from . import core, flow, functionals, oracles, power, validation
from .errors import ConfigError, NlspecError

FMT = "%.17g"


def _fmt(x) -> str:
    return FMT % float(x)


# ---------------------------------------------------------------------------
# strict config parsing: each key maps to its converter or section (wrapped in
# Required if it must be given) and names the library parameter it is passed to.


@dataclass(frozen=True)
class Required:
    spec: object


def _int(value):
    """A whole number: a bool or a fraction is an error, not 0/1 or truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _seed(value):
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {seed}")
    return seed


def _floats(value):
    """A number or nested list of numbers, kept as plain Python floats."""
    return np.asarray(value, dtype=float).tolist()


_FLOW_OPTIONS = {"tau": float, "max_steps": _int, "time_horizon": float,
                 "prox_tol": float}
# per command: the keyword arguments of its library call
OPTIONS = {"flow": _FLOW_OPTIONS, "decompose": _FLOW_OPTIONS,
           "power": {"restarts": _int, "c": float, "rule": str, "tol": float,
                     "max_iter": _int},
           "oracle": {}}
SCHEMA = {
    "functional": Required({"kind": Required(str), "p": float, "matrix": _floats,
                            "node_measure": _floats, "n": _int}),
    "domain": {"grid": {"width": Required(_int), "height": _int,
                        "spacing": float, "boundary_mode": str},
               "n": _int, "edges": list, "boundary": list,
               "node_measure": _floats},
    "input": {"values": _floats, "file": os.fspath,
              "generator": {"name": Required(str), "nodes": _floats,
                            "seed": _seed, "index": _int}},
    "command": Required(str),
    "options": dict,  # the raw section is walked against OPTIONS[command]
    "output_dir": os.fspath,
    "seed": _seed,
}


def _convert(conv, value, path):
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _walk(section, table, path=""):
    """`section` checked against `table` and converted; null reads as absent."""
    where = path or "config"
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(section).__name__}")
    for key, spec in table.items():
        if isinstance(spec, Required) and section.get(key) is None:
            raise ConfigError(f"{where}: missing required key {key!r}")
    out = {}
    for key, value in section.items():
        if key not in table:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if value is None:
            continue
        spec = getattr(table[key], "spec", table[key])
        sub = f"{path}.{key}" if path else str(key)
        out[key] = _walk(value, spec, sub) if isinstance(spec, dict) \
            else _convert(spec, value, sub)
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    cfg = _walk(raw, SCHEMA)
    if cfg["command"] not in OPTIONS:
        raise ConfigError(f"config: unknown command {cfg['command']!r}")
    if "options" in cfg:
        cfg["options"] = _walk(raw["options"], OPTIONS[cfg["command"]], "options")
    if "input" in cfg and len(cfg["input"]) != 1:
        raise ConfigError("input: give exactly one of values/file/generator")
    return cfg


def build_domain(cfg):
    """(graph, grid spec) of the config's domain; (None, None) without one."""
    dsec = cfg.get("domain")
    if dsec is None:
        return None, None
    if "grid" in dsec:
        spec = functionals.GridSpec(**dsec["grid"])
        return functionals.build_grid_graph(spec), spec
    if "edges" not in dsec or "n" not in dsec:
        raise ConfigError("domain: need either grid or explicit n + edges")
    return core.WeightedGraph(**dsec), None


def build_functional(cfg, graph):
    return functionals.make_functional(graph=graph, **cfg["functional"])


def oracle_spectrum(F):
    """The oracle eigendecomposition of F's matrix, or of its graph's Laplacian."""
    if F.kind == "quadratic_form":
        A = F.matrix
    elif F.graph is not None:
        A = functionals.laplacian_matrix(F.graph)
    else:
        raise ConfigError(f"the oracle needs a quadratic_form matrix or a graph "
                          f"domain, not {F.kind}")
    return oracles.dense_symmetric_eigs(A, node_measure=F.measure)


def build_input(cfg, F, seed, manifest):
    isec = cfg.get("input")
    if isec is None:
        raise ConfigError("this command requires an input section")
    if "values" in isec:
        return core.as_signal(isec["values"], F.dim)
    if "file" in isec:
        try:
            data = np.loadtxt(isec["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"input.file: {exc}") from exc
        if data.ndim == 2:
            data = data[:, -1]
        return core.as_signal(data, F.dim)
    gen = isec["generator"]
    name = gen["name"]
    if name == "indicator":
        nodes = np.asarray(gen.get("nodes", -1.0))  # absent: no node index
        if not ((nodes == np.round(nodes)) & (0 <= nodes)
                & (nodes < F.dim)).all():
            raise ConfigError(f"input.generator.nodes: indicator needs node "
                              f"indices, integers in [0, {F.dim})")
        f = np.zeros(F.dim)
        f[nodes.astype(int)] = 1.0
        return f
    if name == "gaussian":
        gseed = gen.get("seed", seed)
        manifest["resolved"]["input_seed"] = gseed
        return np.random.default_rng(gseed).standard_normal(F.dim)
    if name == "oracle_eigenvector":
        index = gen.get("index", 1)
        if not 0 <= index < F.dim:
            raise ConfigError(f"input.generator.index: need 0 <= index < {F.dim}")
        return oracle_spectrum(F).eigenvectors[:, index].copy()
    raise ConfigError(f"input.generator: unknown generator {name!r}")


# ---------------------------------------------------------------------------
# artifact writers


# the per-step FlowTrace columns of trace.csv, after the step index k
TRACE_COLUMNS = ("t", "tau", "J", "dist", "Lambda", "zeta_norm",
                 "profile_residual")


def write_trace_csv(path, trace):
    cols = [getattr(trace, name) for name in TRACE_COLUMNS]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(("k",) + TRACE_COLUMNS)
        for k in range(len(trace.t)):
            wr.writerow([k] + [_fmt(col[k]) for col in cols])


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
        wr.writerow(["rank", "lambda", "mu", "sigma", "rayleigh", "residual",
                     "euler_residual", "subgradient_gap", "oscillation",
                     "converged"])
        for idx, p in enumerate(pairs):
            c = p.certificate
            wr.writerow([idx, _fmt(p.lam), _fmt(p.mu), _fmt(p.sigma),
                         _fmt(p.rayleigh), _fmt(p.residual),
                         _fmt(c.euler_residual), _fmt(c.subgradient_gap),
                         _fmt(p.oscillation), int(p.converged)])


# ---------------------------------------------------------------------------
# commands


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.output_dir or cfg.get("output_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    seed = cfg.get("seed", 0)
    env_seed = os.environ.get("NLSPEC_SEED")
    if env_seed is not None:
        seed = _convert(_seed, env_seed, "NLSPEC_SEED")
    manifest = {
        "version": __version__,
        "config": cfg,
        "seed": seed,
        "seed_from_env": env_seed is not None,
        "resolved": {},
        "signal_scaling": {},
        "warnings": [],
    }
    graph, grid_spec = build_domain(cfg)
    F = build_functional(cfg, graph)
    command = cfg["command"]
    status = 0

    if command in ("flow", "decompose"):
        f = build_input(cfg, F, seed, manifest)
        trace = flow.run_flow(F, f, **cfg.get("options", {}))
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
        out = power.ground_state_search(F, seed=seed, **cfg.get("options", {}))
        write_eigen_csv(os.path.join(out_dir, "eigen.csv"), out["all"])
        sig_dir = os.path.join(out_dir, "signals")
        write_signal(sig_dir, "ground_state", out["best"].w, grid_spec, manifest)
        manifest["resolved"]["best_lambda"] = out["best"].lam
        manifest["resolved"]["lambda_spread"] = \
            [min(out["lambdas"]), max(out["lambdas"])]
        for (idx, err) in out["failures"]:
            manifest["warnings"].append(f"restart {idx} failed: {err}")
        manifest["warnings"].extend(
            f"eigen.csv row {idx}: eigenpair not converged"
            for idx, pair in enumerate(out["all"]) if not pair.converged)
    elif command == "oracle":
        spec = oracle_spectrum(F)
        with open(os.path.join(out_dir, "oracle.csv"), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["index", "eigenvalue"])
            for i, lam in enumerate(spec.eigenvalues):
                wr.writerow([i, _fmt(lam)])
        sig_dir = os.path.join(out_dir, "signals")
        for i in range(min(4, F.dim)):
            write_signal(sig_dir, f"eigenvector_{i}", spec.eigenvectors[:, i],
                         grid_spec, manifest)
        if F.graph is not None and F.graph.boundary:
            write_signal(sig_dir, "distance", oracles.distance_transform(F.graph),
                         grid_spec, manifest)

    if manifest["warnings"] and args.strict:
        status = 1
    with open(os.path.join(out_dir, "manifest.yaml"), "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True)
    return status


def cmd_validate(args) -> int:
    results = validation.run_suite(args.filter)
    width = max(len(r.name) for r in results) if results else 10
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {tag}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def _read_csv(path):
    """Header and rows of floats; an unreadable file or a cell that is not a
    number is an NlspecError."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise NlspecError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise NlspecError(f"{path}: empty CSV")
    head = rows[0]
    try:
        body = [[float(row[c]) for c in range(len(head))] for row in rows[1:]]
    except (ValueError, IndexError) as exc:
        raise NlspecError(f"{path}: every row needs {len(head)} numbers: {exc}") \
            from exc
    return head, body


def _read_tols(path):
    """Column name -> absolute tolerance, from a YAML mapping."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"--tol-file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("--tol-file: expected a mapping of column to tolerance")
    return {col: _convert(float, tol, f"--tol-file: {col}")
            for col, tol in raw.items()}


def cmd_compare(args) -> int:
    tols = _read_tols(args.tol_file) if args.tol_file else {}
    head_a, rows_a = _read_csv(args.a)
    head_b, rows_b = _read_csv(args.b)
    if head_a != head_b:
        print(f"schema mismatch: {head_a} vs {head_b}")
        return 2
    if len(rows_a) != len(rows_b):
        print(f"row count mismatch: {len(rows_a)} vs {len(rows_b)}")
        return 2
    status = 0
    worst = {}
    for r, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for c, col in enumerate(head_a):
            va, vb = ra[c], rb[c]
            if math.isnan(va) and math.isnan(vb):
                continue
            dev = abs(va - vb)
            if col not in worst or dev > worst[col][0]:
                worst[col] = (dev, r)
            if dev > tols.get(col, 0.0):
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
                       help="only run checks whose name contains this string")
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
    except NlspecError as exc:
        # one line, also for a YAML parser's multi-line message
        tag = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{tag}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
