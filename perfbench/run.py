"""Benchmark: time to a checked result through `nlspec run`, on four workloads.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload tv_flow_128 --seed 1 --seconds 20 --trace 0

Each job is one `nlspec.cli.main(["--output-dir", D, "run", cfg])` call in this
process, timed after imports and a warm-up run.  Jobs repeat until `--seconds`
have passed (the last job may end after that), and each job's artifacts are
checked outside the timed region.  With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced jobs
and reports the per-layer metrics of the traced ones.

The output is two JSON lines: a full report (workload, environment, every job,
count checks) and, last, the result object named by BENCHMARK.json.  See
README.md for the metrics, and compare.py to compare two sets of runs.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
import yaml

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _openblas_threads():
    """Threads the loaded OpenBLAS uses, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": numpy.show_config("dicts")["Build Dependencies"]["blas"].get("version"),
        "openblas_threads": _openblas_threads(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Runs and checks the jobs of one workload in a scratch directory."""

    def __init__(self, name, seed, work):
        from nlspec import cli

        self.cli, self.name, self.work = cli, name, work
        self.cfg = workloads.config(name, seed, str(work))
        self.cfg_path = self._write_config("config.yaml", self.cfg)
        self.n_jobs = 0

    def _write_config(self, filename, cfg):
        path = self.work / filename
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        return str(path)

    def warm_up(self):
        """One untimed, unchecked run of a tiny config of the same kind."""
        path = self._write_config("warmup.yaml", workloads.warmup_config(self.name))
        out = self.work / "warmup"
        self.cli.main(["--output-dir", str(out), "run", path])
        shutil.rmtree(out, ignore_errors=True)

    def setup_times(self, min_reps=5, budget_s=0.25):
        """load_config + build_domain + build_functional, repeated."""
        cli, times = self.cli, []
        gc.collect()
        start = time.perf_counter()
        while len(times) < min_reps or time.perf_counter() - start < budget_s:
            t0 = time.perf_counter()
            cfg = cli.load_config(self.cfg_path)
            graph, _ = cli.build_domain(cfg)
            cli.build_functional(cfg, graph)
            times.append(time.perf_counter() - t0)
        return times

    def job(self, traced=False):
        self.n_jobs += 1
        out = self.work / f"job{self.n_jobs}"
        tr = tracer.Tracer() if traced else contextlib.nullcontext()
        problem = None
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with tr:
                rc = self.cli.main(["--output-dir", str(out), "run", self.cfg_path])
        except Exception:  # a failed job is data: record it and go on
            rc, problem = None, traceback.format_exc(limit=-3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if problem is None and rc != 0:
            problem = f"exit code {rc}"
        if problem is None:
            try:
                problem = workloads.check(self.name, self.cfg, str(out))
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problem = f"unreadable artifacts: {exc!r}"
        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced, "problem": problem}
        if traced:
            record["layers"], record["samples"] = tr.summary(str(out))
            record["spans"] = [(s.id, s.parent, s.name, s.start, s.seconds)
                               for s in sorted(tr.spans, key=lambda s: s.id)]
        shutil.rmtree(out, ignore_errors=True)
        return record


def tail_percentile(samples):
    """The highest percentile (to 0.1) with at least ten samples beyond it,
    and its value; the minimum when there are ten samples or fewer."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    q = math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0 if n > 10 else 0.0
    return q, float(numpy.percentile(samples, q))


def per_layer(plain, traced, units):
    """Per-layer metrics: medians over the traced jobs, pooled percentiles,
    and the counts that differed between traced jobs."""
    layers = [j["layers"] for j in traced]
    counts = [k for k in layers[0] if units[k] in ("count", "bytes")]
    m = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    m.update({k: statistics.median_low(l[k] for l in layers) for k in counts})
    differ = {k: [l[k] for l in layers] for k in counts
              if len({l[k] for l in layers}) > 1}
    calls = [x for j in traced for x in j["samples"]["prox_call_ms"]]
    restarts = [x for j in traced for x in j["samples"]["restart_s"]]
    m["prox.call_ms.p50"] = statistics.median(calls) if calls else 0.0
    m["prox.call_ms.tail_pct"], m["prox.call_ms.tail"] = tail_percentile(calls)
    m["prox.call_ms.samples"] = len(calls)
    m["power.restart_s.p50"] = statistics.median(restarts) if restarts else 0.0
    base = statistics.median(j["wall_s"] for j in plain)
    m["trace.base_wall_s"] = base
    m["trace.overhead_s"] = statistics.median(j["wall_s"] for j in traced) - base
    return m, differ


def run(args, spec):
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        runner.warm_up()
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "config": runner.cfg,
                  "environment": environment()}
        if args.trace == 0:
            # set-up is timed before every job, so that its samples span the
            # run's changes in machine speed as the jobs do
            setup, jobs = [], []
            deadline = time.perf_counter() + args.seconds
            while not jobs or time.perf_counter() < deadline:
                setup += runner.setup_times()
                jobs.append(runner.job())
            metrics = {
                "wall_s": statistics.median(j["wall_s"] for j in jobs),
                "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            report["setup_reps"] = len(setup)
            kinds = spec["end_to_end"]
        else:
            plain, traced = [], []
            deadline = time.perf_counter() + args.seconds
            while time.perf_counter() < deadline:
                plain.append(runner.job())
                traced.append(runner.job(traced=True))
            while len(traced) < 2:  # counts are checked between two traced jobs
                traced.append(runner.job(traced=True))
            jobs = plain + traced
            units = {k["name"]: k["unit"] for k in spec["per_layer"]}
            metrics, differ = per_layer(plain, traced, units)
            report["counts_repeat"] = not differ
            report["counts_differ"] = differ
            report["spans"] = traced[0]["spans"]
            if differ:
                print(f"perfbench: counts differ between traced jobs: {differ}",
                      file=sys.stderr)
            kinds = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = sum(1 for j in jobs if j["problem"])
    report["jobs"] = [{k: j[k] for k in ("wall_s", "cpu_s", "traced", "problem")}
                      for j in jobs]
    report["fail_frac"] = failed / len(jobs)
    report["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
              "metrics": {k["name"]: {"value": metrics[k["name"]], "unit": k["unit"]}
                          for k in kinds}}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long; the last job may end later")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nlspec" / "__init__.py").is_file():
        print(f"perfbench: no nlspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # measure this checkout, not an install
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    report, result = run(args, spec)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
