"""Compare two result files of ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians (over the runs
each file holds), the ratio B/A with its base, and a verdict against
the metric's bound in ``BENCHMARK.json``:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — the runs of either file spread wider than the bound
  (quartile distance with four or more runs, else max − min), so a
  difference of that size cannot be told from noise;
* ``ok``         — neither.

Exits 1 if any row is ``worse``.
"""

import json
import statistics
import sys

from common import load_benchmark_json


def _values(runs, workload, metric):
    return [run[workload]["end_to_end"][metric]["value"]
            for run in runs if workload in run]


def _spread(values):
    """Run-to-run spread as a share of the median; 0 for a single run."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) >= 4:
        q1, __, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / middle
    return (max(values) - min(values)) / middle


def compare(a, b, spec):
    """Rows ``(workload, metric, unit, median A, median B, ratio,
    verdict)`` for every pair both files measured."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            xs = _values(a["runs"], workload, metric["name"])
            ys = _values(b["runs"], workload, metric["name"])
            if not xs or not ys:
                continue
            x, y = statistics.median(xs), statistics.median(ys)
            worse_by = (y - x) / x if metric["better"] == "lower" \
                else (x - y) / x
            if max(_spread(xs), _spread(ys)) > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append((workload, metric["name"], metric["unit"],
                         x, y, y / x, verdict))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    rows = compare(a, b, load_benchmark_json())
    print("A = %s (%d run(s), %s)\nB = %s (%d run(s), %s)" % (
        argv[0], len(a["runs"]), a["meta"]["git_sha"],
        argv[1], len(b["runs"]), b["meta"]["git_sha"]))
    print("%-18s %-12s %12s %12s %-6s %14s  %s" % (
        "workload", "metric", "median A", "median B", "unit",
        "B/A (base A)", "verdict"))
    for workload, metric, unit, x, y, ratio, verdict in rows:
        print("%-18s %-12s %12.5g %12.5g %-6s %14.3f  %s" % (
            workload, metric, x, y, unit, ratio, verdict))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
