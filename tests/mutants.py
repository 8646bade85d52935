"""Declared mutants: small changes to ``src/repro`` that named tests
must fail ("kill").

Each entry of :data:`MUTANTS` names a file under ``src/``, the exact
text to replace (a line or a few; it must occur there once), its
replacement and the
pytest ids that must kill it.  The runner copies ``src/`` to a temporary
directory, checks that the named tests pass on the copy, then applies
one mutant at a time and runs only that mutant's tests against it —
seconds each, not a tier-1 run.  It fails when a mutant survives its
tests, or when a mutant's old text no longer matches its file (the code
drifted from the declaration).

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

A test that pins a behaviour adds the mutant it must kill here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = (
    Mutant(
        "greedy-schedule-ignores-interactions",
        "repro/interaction/schedule.py",
        "gain = current - cost_fn(built | {ix})",
        "gain = current - cost_fn({ix})",
        ("tests/test_interaction.py::TestScheduling::"
         "test_greedy_prices_each_index_on_what_is_built",),
    ),
    Mutant(
        "metrics-label-quote-unescaped",
        "repro/obs/metrics.py",
        """.replace('"', '\\\\"')""",
        """.replace('"', '"')""",
        ("tests/test_obs.py::TestRegistry::test_label_values_are_escaped",),
    ),
    Mutant(
        "remote-timeout-zero-accepted",
        "repro/net/client.py",
        "if not timeout > 0:",
        "if timeout < 0:",
        ("tests/test_cli.py::TestCommands::"
         "test_out_of_range_input_is_reported[remote-timeout-0]",),
    ),
    Mutant(
        "wire-accepts-any-version",
        "repro/evaluation/wire.py",
        "if version != WIRE_VERSION:",
        "if False:",
        ("tests/test_wire.py::TestVersionRejection",),
    ),
    Mutant(
        "colt-adopt-threshold-tenfold",
        "repro/colt/tuner.py",
        "ADOPT_THRESHOLD = 0.05",
        "ADOPT_THRESHOLD = 0.5",
        ("tests/test_snapshot_fuzz.py::"
         "test_parent_format_snapshot_restores_to_the_uninterrupted_outcome",),
    ),
    Mutant(
        "evicted-statement-ships-again",
        "repro/evaluation/evaluator.py",
        "return record is not None and record.terms is not None",
        "return False",
        ("tests/test_net.py::TestEvictionDropsDerivedStateNotTheAnswer",),
    ),
    Mutant(
        "pool-miss-replans-a-seen-statement",
        "repro/evaluation/evaluator.py",
        "plans = self._base_service.statement(bq.sql).terms",
        "plans = None",
        ("tests/test_plan_term_memo.py",),
    ),
    Mutant(
        "write-sum-reassociated",
        "repro/evaluation/evaluator.py",
        "out[:, s] += reads[read]",
        "out[:, s] = heap + ((out[:, s] - heap) + reads[read])",
        ("tests/test_writes.py::TestWritesPricedOnTheKernel",),
    ),
    Mutant(
        "write-index-set-key-collapsed",
        "repro/evaluation/evaluator.py",
        "key = view.design_signature(table)[0]",
        "key = table",
        ("tests/test_writes.py::TestWritesPricedOnTheKernel",),
    ),
    Mutant(
        "layout-cover-key-collapsed",
        "repro/catalog/partition.py",
        "cached = self._covers.get(needed)\n",
        "cached = self._covers.get(needed) or next(\n"
        "            iter(self._covers.values()), None)\n",
        ("tests/test_scan_memo.py::"
         "test_the_shared_cover_is_each_statements_own_cover",),
    ),
    Mutant(
        "designer-accepts-a-foreign-evaluator",
        "repro/designer/facade.py",
        "elif evaluator.catalog is not catalog:",
        "elif False:",
        ("tests/test_designer.py::TestOneEvaluator::"
         "test_mismatched_catalog_with_evaluator_rejected",),
    ),
    Mutant(
        "remote-backoff-cap-halved",
        "repro/net/client.py",
        "BACKOFF_CAP = 1.0",
        "BACKOFF_CAP = 0.5",
        ("tests/test_net.py::TestInterruptibleBackoff::"
         "test_backoff_doubles_up_to_its_cap",),
    ),
    Mutant(
        "template-key-drops-literal-kind",
        "repro/sql/template.py",
        '''_MASKS = {"number": "0", "string": "\'\'"}''',
        '''_MASKS = {"number": "0", "string": "0"}''',
        ("tests/test_statement_templates.py",),
    ),
    Mutant(
        "instance-reuses-first-range-merge",
        "repro/sql/template.py",
        "filters={alias: binder.merge_ranges(flist, alias)\n"
        "                         for alias, flist in filters.items()},",
        "filters=first.filters,",
        ("tests/test_statement_templates.py",),
    ),
    Mutant(
        "pool-keys-by-template",
        "repro/evaluation/evaluator.py",
        "return self.pool.get_or_build(bq.sql, lambda: self._entry(bq))",
        "return self.pool.get_or_build(bq.template,\n"
        "                                      lambda: self._entry(bq))",
        ("tests/test_evaluation_pool.py::TestOneKeyPerStatement::"
         "test_instances_of_one_template_get_their_own_entries_and_costs",),
    ),
    Mutant(
        "kernel-slot-costs-rounded",
        "repro/evaluation/kernel.py",
        "costs.append(np.inf if choice is None else choice[0])",
        "costs.append(np.inf if choice is None\n"
        "                             else float(np.float32(choice[0])))",
        ("tests/test_kernel.py::test_kernel_equals_per_call",),
    ),
    Mutant(
        "delta-child-costs-rounded",
        "repro/evaluation/kernel.py",
        "rows[footprint.slot_child, footprint.slots] = values",
        "rows[footprint.slot_child, footprint.slots] = values.astype(\n"
        "            np.float32)",
        ("tests/test_delta_kernel.py::test_delta_equals_full_grid",),
    ),
)


def run_tests(src, tests):
    """pytest's exit status for *tests* with *src* as the package root;
    no bytecode is written, so a restored file is never served stale."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutant(s): %s" % ", ".join(sorted(unknown)))
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in chosen for t in m.tests})
        if run_tests(src, tests) != 0:
            print("the named tests fail on the unmutated source")
            return 1
        for mutant in chosen:
            path = src / mutant.path
            original = path.read_text()
            if original.count(mutant.old) != 1:
                print("DRIFTED   %s: %r is not in %s once"
                      % (mutant.name, mutant.old, mutant.path))
                failures += 1
                continue
            path.write_text(original.replace(mutant.old, mutant.new))
            started = time.perf_counter()
            try:
                killed = run_tests(src, mutant.tests) != 0
            finally:
                path.write_text(original)
            print("%-9s %s (%.1f s)" % ("killed" if killed else "SURVIVED",
                                        mutant.name,
                                        time.perf_counter() - started))
            failures += not killed
    print("%d mutant(s), %d not killed" % (len(chosen), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
