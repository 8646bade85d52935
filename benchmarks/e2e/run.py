"""The perf ledger's one command.

Suite mode — what a person runs::

    python benchmarks/e2e/run.py --seed 42              # all five workloads
    python benchmarks/e2e/run.py --seed 42 --traced     # + per-layer run
    python benchmarks/e2e/run.py --workload online_evict
    python benchmarks/e2e/run.py --smoke                # checks only, ~1/20 size
    python benchmarks/e2e/run.py --check-repeat         # two sets must agree
    python benchmarks/e2e/run.py --traced --out BENCH_e2e.json

prints every metric by name with its unit and exits non-zero if any
operation failed a correctness check.

Driver mode — what ``BENCHMARK.json``'s ``command`` is run as::

    run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload sized for ``S`` seconds and prints, as the last
line, ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).

Every measurement runs in a fresh child interpreter (``child.py``);
end-to-end numbers always come from untraced children.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

from common import (
    HERE,
    NOMINAL_S,
    SETUP_REPEATS,
    SMOKE_SCALE,
    SRC,
    WORKLOADS,
    load_benchmark_json,
    median,
    run_meta,
    scale_for,
)

CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170  # a run must end well inside the driver's 180 s
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def _pin_addresses():
    """Switch address-space randomisation off for the child about to
    be exec'ed (and the workers and runners it starts).

    Signatures are routed to pool shards by ``hash()``.  String hashes
    are pinned with ``PYTHONHASHSEED``, but before Python 3.12
    ``hash(None)`` is the address of ``None``, which ASLR moves on every
    start — and a thrashing 64-entry pool then rebuilds 3800 or 4900
    entries on the very same input.  Without both pins the same seed
    would not mean the same work."""
    libc = ctypes.CDLL(None)
    persona = libc.personality(0xFFFFFFFF)  # query only
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def run_child(workload, seed, scale, traced=False, setup_only=False,
              spans_out=None):
    """Start one child and return its result object."""
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale),
               "--t0", repr(time.time())]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    if spans_out:
        command += ["--spans-out", spans_out]
    # Its own session, so that on a timeout the child goes down together
    # with the workers and runners it started.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             preexec_fn=_pin_addresses, start_new_session=True,
                             env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        stdout, __ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0 or not stdout.strip():
        raise RuntimeError(
            "%s child exited %d" % (workload, child.returncode))
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload, seed, scale):
    """One untraced measurement; ``setup_s`` is the median over
    ``SETUP_REPEATS`` child set-ups (the measured child's own plus
    set-up-only children), because one process start is noisy."""
    result = run_child(workload, seed, scale)
    setups = [result["end_to_end"]["setup_s"]["value"]]
    for __ in range(SETUP_REPEATS - 1):
        setups.append(
            run_child(workload, seed, scale, setup_only=True)["setup_s"])
    result["setup_samples_s"] = setups
    result["end_to_end"]["setup_s"]["value"] = median(setups)
    return result


def measure_traced(workload, seed, scale, untraced, spans_out=None):
    """The traced twin of *untraced*: per-layer metrics plus the cost of
    the instrument itself."""
    traced = run_child(workload, seed, scale, traced=True,
                       spans_out=spans_out)
    overhead = traced["region_s"] / untraced["region_s"] - 1.0
    traced["per_layer"]["obs.trace_overhead_frac"] = {
        "value": overhead, "unit": "ratio"}
    if traced["result_digest"] != untraced["result_digest"]:
        traced["coverage_errors"].append(
            "traced run's result_digest differs from the untraced run's")
    return traced


def is_correct(result):
    return result["failed"] == 0 and not result.get("coverage_errors")


def print_metrics(title, metrics):
    print("\n=== %s ===" % title)
    for name, metric in metrics.items():
        print("  %-44s %16.6g %s" % (name, metric["value"], metric["unit"]))


def print_problems(result):
    for message in result["failures"] + result.get("coverage_errors", []):
        print("  FAILED %s: %s" % (result["workload"], message.strip()))


# ----------------------------------------------------------------------
# Driver mode.
# ----------------------------------------------------------------------


def driver(args):
    workload = args.workload[0]
    scale = scale_for(workload, args.seconds)
    untraced = (run_child if args.trace else measure)(
        workload, args.seed, scale)
    spec = load_benchmark_json()
    result = untraced
    if args.trace:
        result = measure_traced(workload, args.seed, scale, untraced)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: measured[m["name"]] for m in declared}
    print_metrics("%s seed=%d scale=%.3f%s" % (
        workload, args.seed, scale, " (traced)" if args.trace else ""),
        metrics)
    print_problems(result)
    correct = is_correct(result) and is_correct(untraced)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# Suite mode.
# ----------------------------------------------------------------------


def run_set(names, seed, scale_of, traced=False, spans_dir=None, quiet=False):
    """One pass over *names*: ``{workload: result}`` (with the traced
    twin's numbers folded in when *traced*)."""
    results = {}
    for name in names:
        scale = scale_of(name)
        result = measure(name, seed, scale)
        if traced:
            spans_out = spans_dir and os.path.join(
                spans_dir, "spans_%s.json" % name)
            twin = measure_traced(name, seed, scale, result, spans_out)
            for key in ("per_layer", "coverage_errors", "covered_s",
                        "boundaries", "offthread_s"):
                result[key] = twin[key]
            result["traced_region_s"] = twin["region_s"]
        results[name] = result
        if not quiet:
            print_metrics(
                "%s seed=%d: %d ops, %d latency samples, timed %.1f s, "
                "digest %s" % (name, seed, result["attempted"],
                               result["op_samples"], result["region_s"],
                               result["result_digest"][:12]),
                {**result["end_to_end"], **result.get("per_layer", {})})
        print_problems(result)
    return results


def check_repeat(first, second, bounds):
    """Two sets of the same code must agree within the benchmark's own
    bounds, and every result_digest must match.  Returns the
    disagreements."""
    problems = []
    for name, a in first.items():
        b = second[name]
        if a["result_digest"] != b["result_digest"]:
            problems.append("%s: result_digest differs between sets" % name)
        for metric, (better, bound) in bounds.items():
            x = a["end_to_end"][metric]["value"]
            y = b["end_to_end"][metric]["value"]
            worse = (y - x) / x if better == "lower" else (x - y) / x
            if abs(worse) > bound:
                problems.append(
                    "%s %s: %.6g vs %.6g differ by %.1f%% (bound %.0f%%)"
                    % (name, metric, x, y, 100 * abs(worse), 100 * bound))
    return problems


def suite(args):
    names = args.workload or list(WORKLOADS)
    if args.smoke:
        results = run_set(names, args.seed, lambda n: SMOKE_SCALE, quiet=True)
        bad = [n for n, r in results.items() if not is_correct(r)]
        for name in names:
            print("smoke %-18s %s" % (name, "FAILED" if name in bad else "ok"))
        return 1 if bad else 0

    def scale_of(name):
        return scale_for(name, args.seconds) if args.seconds else 1.0

    runs = [run_set(names, args.seed, scale_of, traced=args.traced,
                    spans_dir=args.spans_dir)]
    problems = []
    if args.check_repeat:
        runs.append(run_set(names, args.seed, scale_of))
        spec = load_benchmark_json()
        bounds = {m["name"]: (m["better"], m["bound"])
                  for m in spec["end_to_end"]}
        problems = check_repeat(runs[0], runs[1], bounds)
        for problem in problems:
            print("REPEAT MISMATCH %s" % problem)
        if not problems:
            print("\ncheck-repeat: both sets agree within bounds, "
                  "digests identical")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"meta": run_meta(), "seed": args.seed,
                       "seconds": args.seconds, "runs": runs},
                      handle, indent=1)
            handle.write("\n")
    failed = [n for run in runs for n, r in run.items() if not is_correct(r)]
    return 1 if failed or problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="size each workload for this many seconds of "
                        "timed region (default: the full ISSUE-11 sizes, "
                        "%s)" % ", ".join(
                            "%s %.0f s" % kv for kv in NOMINAL_S.items()))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics, "
                        "1 = per-layer metrics; prints the driver's JSON")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: repeat each workload with spans")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--out", default=None, help="write results as JSON")
    parser.add_argument("--spans-dir", default=None,
                        help="with --traced: write every span here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("benchmarks/e2e: no program to measure at %s" % SRC)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1 or not args.seconds:
            parser.error("--trace needs exactly one --workload and --seconds")
        return driver(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
