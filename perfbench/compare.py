"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the standard output of one or more runs of
run.py, for example ten seeds of each workload appended to one file per
commit.  For every workload and trace mode found in both, each metric is shown
as median [first quartile, third quartile] per side, with the change of the
medians.  An end-to-end metric whose median got worse by more than its bound in
BENCHMARK.json is marked REGRESSION; one whose quartile spread on either side
is wider than its bound is marked UNRESOLVED instead, since no change within
that spread can be told from noise.  Counts are compared seed by seed: a
count that differs between runs of one side with the same seed is marked
VARIES, and one that differs between the sides on the same seed is marked
CHANGED.  The exit status is 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path):
    """(seed, value) of every run in `path`, by (workload, trace) and metric."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.startswith('{"report"'):
                continue
            rep = json.loads(line)["report"]
            for name, value in rep["metrics"].items():
                runs[rep["workload"], rep["trace"]][name].append((rep["seed"], value))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def count_flag(base, new):
    seen = [defaultdict(set), defaultdict(set)]
    for side, runs in zip(seen, (base, new)):
        for seed, value in runs:
            side[seed].add(value)
    if any(len(v) > 1 for side in seen for v in side.values()):
        return "VARIES"
    if any(seen[0][s] != seen[1][s] for s in seen[0].keys() & seen[1].keys()):
        return "CHANGED"
    return ""


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    regressed = False
    for key in sorted(base.keys() & new.keys()):
        print(f"== {key[0]}  trace {key[1]}  ({len(next(iter(base[key].values())))} vs "
              f"{len(next(iter(new[key].values())))} runs)")
        for name, info in metrics.items():
            if name not in base[key] or name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            bq, nq = quartiles([v for _, v in b]), quartiles([v for _, v in n])
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            worse = change if info["better"] == "lower" else -change
            flag = ""
            if "bound" in info:
                spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, nq))
                if spread > info["bound"]:
                    flag = "UNRESOLVED"
                elif worse > info["bound"]:
                    flag, regressed = "REGRESSION", True
            elif info["unit"] == "count":
                flag = count_flag(b, n)
            print(f"  {name:38s} {bq[1]:12.6g} [{bq[0]:.4g}, {bq[2]:.4g}]  ->  "
                  f"{nq[1]:12.6g} [{nq[0]:.4g}, {nq[2]:.4g}]  {change:+8.2%}  {flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
