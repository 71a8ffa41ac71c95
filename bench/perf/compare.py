#!/usr/bin/env python3
"""Compares two sets of csca_perf runs, metric by metric and workload by
workload.

    python3 bench/perf/compare.py BASE_DIR NEW_DIR

Each directory holds the result documents run.py writes to
.bench_build/results/ (one JSON file per run). For every workload and
every end-to-end metric in BENCHMARK.json it prints each set's median,
its spread (interquartile range over median, as
statistics.quantiles(n=4) gives it), and the change of NEW against BASE,
signed so that positive means worse. A change worse than the metric's
bound is marked REGRESSED; a spread wider than the bound makes the
comparison UNRESOLVED. Exits 1 when anything regressed.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(directory):
    """{workload: {metric: [values]}} over the untraced runs in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("traced"):
            continue
        per_metric = runs.setdefault(doc["workload"], {})
        for name, m in doc["result"]["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    print(f"{'workload':12s} {'metric':14s} {'base':>12s} {'spread':>7s} "
          f"{'new':>12s} {'spread':>7s} {'worse by':>9s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            a = base[workload].get(m["name"], [])
            b = new[workload].get(m["name"], [])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            if max(spread(a), spread(b)) > m["bound"]:
                verdict = "UNRESOLVED"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            else:
                verdict = "ok"
            print(f"{workload:12s} {m['name']:14s} {ma:12.6g} {spread(a):7.3f} "
                  f"{mb:12.6g} {spread(b):7.3f} {worse:+9.3f}  {verdict} "
                  f"(bound {m['bound']}, n={len(a)}/{len(b)})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
