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

    python tests/work_counters.py            # compare; exit 1 on any drift
    python tests/work_counters.py --write    # regenerate the file
    python tests/work_counters.py --base DIR # against a base checkout

A change that means to change the work rewrites the file in the same
diff and says why.  ``--base DIR`` takes a checkout of the commit the
change is based on (CI makes one with ``git worktree add``), records
that commit's work *here* by running its own copy of this script with
``--write`` there, and compares this checkout against it: a value this
checkout's file changes from the base's committed file is the drift
the change declares, and is reported, not failed; any other drift
fails.  A digest holds float results bit for bit, so the
file also names the interpreter and numeric libraries it was recorded
under; ``tests/test_work_counters.py`` runs the comparison in tier-1
where they match and skips, naming both, where they do not.
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
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


def load(path=EXPECTED):
    with open(path) as handle:
        return json.load(handle)


def render(record):
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def values(record):
    """``(workload, name) -> value`` for every digest and counter."""
    out = {}
    for workload, entry in record["workloads"].items():
        out[workload, "result_digest"] = entry.get("result_digest")
        for name, value in entry.get("counters", {}).items():
            out[workload, name] = value
    return out


def changes(expected, found):
    """``(key, expected value, found value)`` per differing value."""
    want, got = values(expected), values(found)
    return [(key, want.get(key), got.get(key))
            for key in sorted(set(want) | set(got))
            if want.get(key) != got.get(key)]


def describe(change):
    (workload, name), want, got = change
    return "%s %s: expected %r, found %r" % (workload, name, want, got)


def drift(expected, found):
    """One line per workload value that differs between two records."""
    return [describe(change) for change in changes(expected, found)]


def record_base(base):
    """``(committed, measured)``: the base checkout's own file, and its
    work measured in this environment by its own script (whose
    ``--write`` overwrites that file)."""
    path = os.path.join(base, "tests", "data", "work_counters.json")
    committed = load(path)
    subprocess.run(
        [sys.executable, os.path.join("tests", "work_counters.py"),
         "--write"],
        cwd=base, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(base, "src")),
    )
    return committed, load(path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate %s" % os.path.relpath(EXPECTED, ROOT))
    parser.add_argument("--base", metavar="DIR",
                        help="compare with a base checkout's work measured "
                        "here, allowing the values this file edits")
    args = parser.parse_args(argv)
    if args.write:
        os.makedirs(os.path.dirname(EXPECTED), exist_ok=True)
        with open(EXPECTED, "w") as handle:
            handle.write(render(measure()))
        return 0
    declared = set()  # the values this checkout's file edits
    if args.base:
        committed, expected = record_base(args.base)
        declared = {key for key, __, __ in changes(committed, load())}
    else:
        expected = load()
    found = measure()
    if expected["environment"] != found["environment"]:
        print("note: recorded under %s, running under %s"
              % (expected["environment"], found["environment"]))
    drifted = 0
    for change in changes(expected, found):
        edited = change[0] in declared
        drifted += not edited
        print("%s %s" % ("EDITED" if edited else "DRIFT", describe(change)))
    if drifted:
        verdict = "%d drifted" % drifted
    elif declared:
        verdict = "no drift besides the %d value(s) the file edits" \
            % len(declared)
    else:
        verdict = "identical on every workload"
    print("work counters: " + verdict)
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
