"""The work-counter gate: the same code, seed and size do the same work.

``result_digest`` and the count-unit metrics of the perf ledger are
exact functions of (code, seed, size), so a change that claims "same
work" can be checked instead of diffed by hand.  This script runs every
ledger workload once, traced, at the smoke scale and seed 42 — through
``benchmarks/e2e/run.py``'s ``run_child``, so each run is a fresh child
with that harness's pins (``PYTHONHASHSEED=0``, address randomisation
off) — and compares the digest and the counters below with
``tests/data/work_counters.json``.  ``benchmarks/e2e/`` is imported,
never edited.

    python tests/work_counters.py          # compare; exit 1 on any drift
    python tests/work_counters.py --write  # regenerate the file

A change that means to change the work rewrites the file in the same
diff and says why.  A digest holds float results bit for bit, so the
file also names the interpreter and numeric libraries it was recorded
under; ``tests/test_work_counters.py`` runs the comparison in tier-1
where they match and skips, naming both, where they do not.
"""

import argparse
import importlib.util
import json
import os
import platform
import sys

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")
EXPECTED = os.path.join(ROOT, "tests", "data", "work_counters.json")
SEED = 42

# The per-layer metrics whose unit is a count of work done.
COUNTERS = (
    "optimizer.plans",
    "inum.builds",
    "inum.optimizer_calls",
    "evaluation.pool.misses",
    "evaluation.pool.evictions",
    "evaluation.pool.kernel_compiles",
    "evaluation.kernel.cells",
    "cophy.candidates",
    "colt.whatif_probes",
    "runtime.steps",
    "net.tasks",
)


def environment():
    """What a float result depends on besides the code."""
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _harness():
    """``benchmarks/e2e/run.py`` as a module, with its directory on
    ``sys.path`` only while its ``from common import ...`` runs (its
    ``trace`` would shadow the stdlib module)."""
    spec = importlib.util.spec_from_file_location(
        "_e2e_run", os.path.join(E2E, "run.py"))
    module = importlib.util.module_from_spec(spec)
    had_common = "common" in sys.modules
    sys.path.insert(0, E2E)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(E2E)
        if not had_common:
            sys.modules.pop("common", None)
    return module


def measure():
    """This checkout's record: its environment and, per workload, the
    digest and the counters."""
    run = _harness()
    workloads = {}
    for workload in run.WORKLOADS:
        result = run.run_child(workload, SEED, run.SMOKE_SCALE, traced=True)
        if not run.is_correct(result):
            raise RuntimeError("%s: %s" % (workload, result["failures"]
                                           + result["coverage_errors"]))
        workloads[workload] = {
            "result_digest": result["result_digest"],
            "counters": {name: result["per_layer"][name]["value"]
                         for name in COUNTERS},
        }
    return {"environment": environment(), "workloads": workloads}


def load():
    with open(EXPECTED) as handle:
        return json.load(handle)


def render(record):
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def drift(expected, found):
    """One line per workload value that differs between two records."""
    lines = []
    want_all, got_all = expected["workloads"], found["workloads"]
    for workload in sorted(set(want_all) | set(got_all)):
        want = want_all.get(workload, {})
        got = got_all.get(workload, {})
        pairs = [("result_digest", want.get("result_digest"),
                  got.get("result_digest"))]
        counters_want = want.get("counters", {})
        counters_got = got.get("counters", {})
        pairs += [(name, counters_want.get(name), counters_got.get(name))
                  for name in sorted(set(counters_want) | set(counters_got))]
        lines += ["%s %s: expected %r, found %r" % (workload, key, a, b)
                  for key, a, b in pairs if a != b]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate %s" % os.path.relpath(EXPECTED, ROOT))
    args = parser.parse_args(argv)
    found = measure()
    if args.write:
        os.makedirs(os.path.dirname(EXPECTED), exist_ok=True)
        with open(EXPECTED, "w") as handle:
            handle.write(render(found))
        return 0
    expected = load()
    if expected["environment"] != found["environment"]:
        print("note: recorded under %s, running under %s"
              % (expected["environment"], found["environment"]))
    lines = drift(expected, found)
    for line in lines:
        print("DRIFT " + line)
    print("work counters: %s" % ("%d drifted" % len(lines) if lines
                                 else "identical on every workload"))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
