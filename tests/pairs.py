"""Alternating pairs: the working tree's ledger numbers against a revision's.

    python tests/pairs.py --base HEAD --workload recommend_offline
    python tests/pairs.py --base main \\
        --workload recommend_offline --workload online_ingest
    python tests/pairs.py --base HEAD --head DIR --workload online_ingest

The base is the committed tree of a revision, exported with ``git
archive`` into a temporary directory; the head is the working tree's
files (tracked and untracked, not ignored), copied into a sibling one,
so the two sides differ in their code only, not in where they run from.
``--head DIR`` runs the tree in DIR instead of the working tree (a
knock-out's copy, ``tests/knockouts.py --apply``).
Each of :data:`PAIRS` pairs runs driver-mode ``benchmarks/e2e/run.py
--workload W --seed 42 --seconds 10 --trace 0`` (the ledger's protocol)
once on each side, one after the other, and the side that goes first
alternates from pair to pair, so a drift of the machine over the run
falls on both sides alike.

Prints every run's metrics, then per workload and metric the two
medians, the base's quartiles, the head's wins out of the pairs (a
win is a strictly better value than the base's in the same pair, in
the direction ``BENCHMARK.json`` declares) and a verdict, plus the
attempted and failed operations of both sides.  The verdict is
``better`` or ``worse`` when the head's median is further than the
floor from the base's, else ``within floor``; the floor is the larger
of the base's quartile spread and the metric's ``BENCHMARK.json`` bound
times the base's median, so a metric whose base runs barely spread
(peak RSS often reads the same ten times) is not judged on a shift
smaller than its bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The ledger's protocol: pairs per workload, and each run's arguments.
PAIRS = 10
SEED = 42
SECONDS = 10


def export(revision, directory):
    """The committed files of *revision* under *directory*."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", revision],
        check=True, capture_output=True).stdout
    os.makedirs(directory)
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
    return directory


def copy_working_tree(directory):
    """The working tree's files that ``git ls-files`` lists (tracked and
    untracked, not ignored) under *directory*."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, listed.split(b"\0")):
        source = os.path.join(ROOT, os.fsdecode(name))
        if not os.path.isfile(source):
            continue  # deleted in the working tree, not yet staged
        target = os.path.join(directory, os.fsdecode(name))
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)
    return directory


def run_once(tree, workload):
    """One driver-mode run in *tree*: its last stdout line, parsed."""
    out = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_pairs(trees, workload):
    """``{side: [result, ...]}`` over :data:`PAIRS` alternating pairs."""
    runs = {side: [] for side in trees}
    for n in range(PAIRS):
        order = ("base", "head") if n % 2 == 0 else ("head", "base")
        for side in order:
            result = run_once(trees[side], workload)
            runs[side].append(result)
            print(json.dumps({"workload": workload, "pair": n, "side": side,
                              "first": side == order[0], **result}),
                  flush=True)
    return runs


def verdict(base_median, head_median, spread, better, bound):
    """``better``, ``worse`` or ``within floor``: whether the head's
    median moved past the floor, ``max(spread, bound * |base_median|)``,
    from the base's, and which way *better* reads that move."""
    shift = head_median - base_median
    if abs(shift) <= max(spread, bound * abs(base_median)):
        return "within floor"
    return "better" if (shift < 0) == (better == "lower") else "worse"


def summary(workload, runs, metrics):
    """One line per ``(name, better, bound)`` of *metrics*: medians, the
    base's quartiles, wins and the verdict."""
    lines = ["%s: attempted %s / %s, failed %s / %s (base / head)" % (
        workload,
        sum(r["attempted"] for r in runs["base"]),
        sum(r["attempted"] for r in runs["head"]),
        sum(r["failed"] for r in runs["base"]),
        sum(r["failed"] for r in runs["head"]))]
    lines.append("  %-12s %12s %12s %25s %6s  %s" % (
        "metric", "base median", "head median", "base quartiles", "wins",
        "verdict"))
    for name, better, bound in metrics:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * h < sign * b for b, h in zip(base, head))
        q1, __, q3 = (statistics.quantiles(base, n=4) if len(base) > 1
                      else (base[0],) * 3)
        base_median, head_median = (statistics.median(base),
                                    statistics.median(head))
        lines.append("  %-12s %12.4g %12.4g %12.4g .. %-10.4g %2d/%d  %s" % (
            name, base_median, head_median, q1, q3, wins, len(base),
            verdict(base_median, head_median, q3 - q1, better, bound)))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="revision measured against (default HEAD)")
    parser.add_argument("--head", metavar="DIR",
                        help="the tree measured (default: a copy of the "
                             "working tree)")
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = [(m["name"], m["better"], m["bound"])
                   for m in json.load(handle)["end_to_end"]]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": export(args.base, os.path.join(tmp, "base")),
                 "head": (os.path.abspath(args.head) if args.head else
                          copy_working_tree(os.path.join(tmp, "head")))}
        report = []
        for workload in args.workload:
            runs = run_pairs(trees, workload)
            report.extend(summary(workload, runs, metrics))
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
