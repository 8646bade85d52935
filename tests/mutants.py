"""Declared mutants: small changes to ``src/repro`` (or to the reach
census recorder) that named tests must fail ("kill").

Each entry of :data:`MUTANTS` names a file (under ``src/``, or the
census recorder under ``tests/``), the exact text to replace (a line or
a few; it must occur there once), its replacement and the pytest ids
that must kill it.  The runner copies ``src/``, ``tests/`` and
``benchmarks/`` to a temporary directory, checks that the named tests
pass in the copy, then applies one mutant at a time and runs only that
mutant's tests there — seconds each, not a tier-1 run.  It fails when a
mutant survives its tests, or, before running any, when a mutant's old
text no longer matches its file or a named test file is gone (the code
drifted from the declaration: :func:`drift`, which tier-1 runs as
``tests/test_mutants.py``).

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
COPIED = ("src", "tests", "benchmarks")  # what a mutant run gets a copy of

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = (
    Mutant(
        "greedy-schedule-ignores-interactions",
        "src/repro/interaction/schedule.py",
        "gain = current - cost_fn(built | {ix})",
        "gain = current - cost_fn({ix})",
        ("tests/test_interaction.py::TestScheduling::"
         "test_greedy_prices_each_index_on_what_is_built",),
    ),
    Mutant(
        "optimal-schedule-ignores-interactions",
        "src/repro/interaction/schedule.py",
        "cost_of[mask] = cost_fn(frozenset(indexes[i] for i in combo))",
        "cost_of[mask] = cost_fn(frozenset()) + sum(cost_fn(frozenset("
        "{indexes[i]})) - cost_fn(frozenset()) for i in combo)",
        ("benchmarks/bench_claim_schedule.py::test_claim_schedule_quality",),
    ),
    Mutant(
        "compression-keys-on-text",
        "src/repro/cophy/compression.py",
        "key = template_key(Lexer(sql).tokens())",
        "key = sql",
        ("tests/test_compression.py::TestShapeKey",),
    ),
    Mutant(
        "reach-hook-misses-threads",
        "tests/reach_census.py",
        "threading.setprofile(profile)\n    sys.setprofile(profile)",
        "sys.setprofile(profile)",
        ("tests/test_reach_census.py::"
         "test_the_recorder_sees_every_process_and_thread",),
    ),
    Mutant(
        "metrics-label-quote-unescaped",
        "src/repro/obs/metrics.py",
        """.replace('"', '\\\\"')""",
        """.replace('"', '"')""",
        ("tests/test_obs.py::TestRegistry::test_label_values_are_escaped",),
    ),
    Mutant(
        "remote-timeout-zero-accepted",
        "src/repro/net/client.py",
        "if not timeout > 0:",
        "if timeout < 0:",
        ("tests/test_cli.py::TestCommands::"
         "test_out_of_range_input_is_reported[remote-timeout-0]",),
    ),
    Mutant(
        "wire-accepts-any-version",
        "src/repro/evaluation/wire.py",
        "if version != WIRE_VERSION:",
        "if False:",
        ("tests/test_wire.py::TestVersionRejection",),
    ),
    Mutant(
        "recommendation-record-written-rounded",
        "src/repro/service/tenant.py",
        "recommendations=tuple(self.recommendations),",
        "recommendations=tuple(__import__('dataclasses').replace("
        "r, improvement_pct=round(r.improvement_pct, 6)) "
        "for r in self.recommendations),",
        ("tests/test_cli.py::"
         "test_a_version_8_state_file_re_dumps_byte_identical_and_resumes",),
    ),
    Mutant(
        # A restored tenant whose buffered events are lost: its stream
        # resumes past events nobody ingests.
        "restore-drops-a-tenants-pending-events",
        "src/repro/service/service.py",
        "for e in entry[\"pending\"]]",
        "for e in entry[\"pending\"][:0]]",
        ("tests/test_runtime.py::TestPausePointSnapshots::"
         "test_mid_ingest_snapshot_restores_identically",),
    ),
    Mutant(
        "frozenset-written-in-iteration-order",
        "src/repro/evaluation/wire.py",
        "return sorted(map(_to_wire, value),\n"
        "                      key=partial(json.dumps, sort_keys=True))",
        "return list(map(_to_wire, value))",
        ("tests/test_serialize.py::TestCanonicalDump::"
         "test_dump_is_insertion_order_invariant",
         "tests/test_cli.py::"
         "test_a_version_8_state_file_re_dumps_byte_identical_and_resumes"),
    ),
    Mutant(
        "inum-internal-cost-one-and-a-half-percent-high",
        "src/repro/inum/cache.py",
        "internal = max(0.0, internal)",
        "internal = max(0.0, internal) * 1.015",
        ("tests/test_inum_exact.py::"
         "test_inum_prices_drawn_indexes_as_the_planner_does",),
    ),
    Mutant(
        "colt-adopt-threshold-tenfold",
        "src/repro/colt/tuner.py",
        "ADOPT_THRESHOLD = 0.05",
        "ADOPT_THRESHOLD = 0.5",
        ("tests/test_colt.py::TestAlertingMode::"
         "test_a_moderate_projected_gain_is_alerted_and_adopted",),
    ),
    Mutant(
        "evicted-statement-ships-again",
        "src/repro/evaluation/evaluator.py",
        "return record is not None and record.terms is not None",
        "return False",
        ("tests/test_net.py::TestEvictionDropsDerivedStateNotTheAnswer",),
    ),
    Mutant(
        "pool-miss-replans-a-seen-statement",
        "src/repro/evaluation/evaluator.py",
        "plans = self._base_service.statement(bq.sql).terms",
        "plans = None",
        ("tests/test_plan_term_memo.py",),
    ),
    Mutant(
        "write-sum-reassociated",
        "src/repro/evaluation/evaluator.py",
        "out[:, s] += heap + maintenance[designs.ids[table][start:stop]]",
        "out[:, s] = (out[:, s] + heap) + maintenance[\n"
        "                    designs.ids[table][start:stop]]",
        ("tests/test_writes.py::TestWritesPricedOnTheKernel",),
    ),
    Mutant(
        "write-index-set-key-collapsed",
        "src/repro/evaluation/evaluator.py",
        "out[:, s] += heap + maintenance[designs.ids[table][start:stop]]",
        "out[:, s] += heap + maintenance[0]",
        ("tests/test_writes.py::TestWritesPricedOnTheKernel",),
    ),
    Mutant(
        "layout-cover-key-collapsed",
        "src/repro/catalog/partition.py",
        "cached = self._covers.get(needed)\n",
        "cached = self._covers.get(needed) or next(\n"
        "            iter(self._covers.values()), None)\n",
        ("tests/test_scan_memo.py::"
         "test_the_shared_cover_is_each_statements_own_cover",),
    ),
    Mutant(
        "designer-accepts-a-foreign-evaluator",
        "src/repro/designer/facade.py",
        "elif evaluator.catalog is not catalog:",
        "elif False:",
        ("tests/test_designer.py::TestOneEvaluator::"
         "test_mismatched_catalog_with_evaluator_rejected",),
    ),
    Mutant(
        "remote-backoff-cap-halved",
        "src/repro/net/client.py",
        "BACKOFF_CAP = 1.0",
        "BACKOFF_CAP = 0.5",
        ("tests/test_net.py::TestInterruptibleBackoff::"
         "test_backoff_doubles_up_to_its_cap",),
    ),
    Mutant(
        "template-key-drops-literal-kind",
        "src/repro/sql/template.py",
        '''_MASKS = {"number": "0", "string": "\'\'"}''',
        '''_MASKS = {"number": "0", "string": "0"}''',
        ("tests/test_statement_templates.py",),
    ),
    Mutant(
        "instance-reuses-first-range-merge",
        "src/repro/sql/template.py",
        "filters={alias: binder.merge_ranges(flist, alias)\n"
        "                         for alias, flist in filters.items()},",
        "filters=first.filters,",
        ("tests/test_statement_templates.py",),
    ),
    Mutant(
        "pool-keys-by-template",
        "src/repro/evaluation/evaluator.py",
        "return self.pool.get_or_build(bq.sql, lambda: self._entry(bq))",
        "return self.pool.get_or_build(bq.template,\n"
        "                                      lambda: self._entry(bq))",
        ("tests/test_evaluation_pool.py::TestOneKeyPerStatement::"
         "test_instances_of_one_template_get_their_own_entries_and_costs",),
    ),
    Mutant(
        "kernel-slot-costs-rounded",
        "src/repro/evaluation/kernel.py",
        "column[local] = np.inf if choice is None else choice[0]",
        "column[local] = np.inf if choice is None \\\n"
        "                    else float(np.float32(choice[0]))",
        ("tests/test_kernel.py::test_kernel_equals_per_call",),
    ),
    Mutant(
        "delta-child-costs-rounded",
        "src/repro/evaluation/kernel.py",
        "rows[footprint.slot_child, footprint.slots] = values",
        "rows[footprint.slot_child, footprint.slots] = values.astype(\n"
        "            np.float32)",
        ("tests/test_delta_kernel.py::test_delta_equals_full_grid",),
    ),
    Mutant(
        "arena-sums-reassociated",
        "src/repro/evaluation/kernel.py",
        "acc[...] = self.internal\n"
        "        for col in self.cols:\n"
        "            acc += rows[..., col]\n"
        "        return acc",
        "return self.internal + rows[..., self.cols].sum(axis=-2)",
        ("tests/test_kernel.py::"
         "test_arena_price_equals_dense_equals_python_walk",),
    ),
    Mutant(
        "arena-delta-resum-reassociated",
        "src/repro/evaluation/kernel.py",
        "vals = footprint.internal.copy()\n"
        "        for col in footprint.cols:\n"
        "            vals += rows[footprint.plan_child, col]",
        "vals = footprint.internal + rows[\n"
        "            footprint.plan_child, footprint.cols].sum(axis=0)",
        ("tests/test_kernel.py::"
         "test_arena_price_equals_dense_equals_python_walk",),
    ),
    Mutant(
        "lattice-totals-reassociated",
        "src/repro/evaluation/evaluator.py",
        "return np.cumsum(running, axis=1)[:, -1]",
        "return running.sum(axis=1)",
        ("tests/test_lattice.py::test_lattice_totals_add_in_the_walks_order",),
    ),
    Mutant(
        "sparse-column-skips-reached-probes",
        "src/repro/evaluation/kernel.py",
        "_slot_interesting(slot), slot.param_columns):",
        "_slot_interesting(slot)):",
        ("tests/test_lattice.py::"
         "test_each_candidate_alone_reaches_the_slots_it_changes",),
    ),
    Mutant(
        "doi-drops-a-context",
        "src/repro/interaction/doi.py",
        "ratio.max(axis=1, initial=0.0).tolist()):",
        "ratio[:, 1:].max(axis=1, initial=0.0).tolist()):",
        ("tests/test_ibg.py::test_the_interaction_graph_has_the_oracles_edges",
         "tests/test_ibg.py::test_enumerated_doi_is_bit_equal_to_the_oracle"),
    ),
    Mutant(
        "fleet-installs-another-statement",
        "src/repro/evaluation/wire.py",
        "if key is not None and sql != key:",
        "if False:",
        ("tests/test_net.py::TestEvictionDropsDerivedStateNotTheAnswer::"
         "test_malformed_entry_installs_and_remembers_nothing"
         "[another-statement]",),
    ),
    Mutant(
        "bip-witness-keeps-every-position",
        "src/repro/cophy/bip.py",
        "return self._compiled().used_positions(chosen_positions)",
        "return list(chosen_positions)",
        ("tests/test_cophy.py::TestSolvers::test_zero_budget_selects_nothing",),
    ),
    Mutant(
        "plan-key-sorts-reaching-indexes",
        "src/repro/optimizer/paths.py",
        "inputs.append((ctx, reaching_indexes(\n"
        "            ctx, catalog.indexes_on(table.name), ctx.interesting\n"
        "        )))",
        "inputs.append((ctx, tuple(sorted(reaching_indexes(\n"
        "            ctx, catalog.indexes_on(table.name), ctx.interesting\n"
        "        ), key=lambda ix: ix.name))))",
        ("tests/test_scan_memo.py::"
         "test_catalog_order_of_reaching_indexes_is_part_of_the_key",),
    ),
    Mutant(
        "path-set-admits-stops-at-equal-cost",
        "src/repro/optimizer/planner.py",
        "if existing.total_cost > total_cost:",
        "if existing.total_cost >= total_cost:",
        ("tests/test_join_oracle.py::TestPathSet::"
         "test_add_and_admits_equal_the_references",),
    ),
    Mutant(
        "scipy-imported-with-repro",
        "src/repro/cophy/solvers.py",
        "import numpy as np\n\nfrom repro import obs",
        "import numpy as np\nfrom scipy import optimize, sparse\n\n"
        "from repro import obs",
        ("tests/test_lean_import.py::test_only_a_milp_solve_loads_scipy",),
    ),
    Mutant(
        "milp-imports-scipy-optimize",
        "src/repro/cophy/solvers.py",
        "    highs = _highs()\n",
        "    from scipy import optimize  # noqa: F401\n    highs = _highs()\n",
        ("tests/test_lean_import.py::test_only_a_milp_solve_loads_scipy",),
    ),
    Mutant(
        "ub-rows-without-their-offset",
        "src/repro/cophy/solvers.py",
        "[n_eq + row for row in ub_rows]",
        "ub_rows",
        ("tests/test_backward_and_solver_props.py::TestSolverProperties::"
         "test_milp_feasible_and_dominates_greedy",),
    ),
    Mutant(
        "ndtri-coefficient-digit",
        "src/repro/util/maths.py",
        "-1.23916583867381258016E0)",
        "-1.23916583867381358016E0)",
        ("tests/test_catalog_schema.py::TestNormalQuantilesWithoutScipyStats::"
         "test_ndtri_equals_scipy_on_every_synthetic_quantile",
         "tests/test_catalog_schema.py::TestNormalQuantilesWithoutScipyStats::"
         "test_ndtri_equals_scipy_on_drawn_probabilities"),
    ),
    Mutant(
        "dominance-ignores-size",
        "src/repro/cophy/solvers.py",
        "return (sizes[i] <= sizes[j] and penalties[i] <= penalties[j]",
        "return (penalties[i] <= penalties[j]",
        ("tests/test_backward_and_solver_props.py::TestDominancePresolve",),
    ),
    Mutant(
        "slot-key-projection-copied",
        "src/repro/inum/cache.py",
        "indexes = shared.setdefault(indexes, indexes)",
        "indexes = frozenset(list(indexes))",
        ("tests/test_scan_memo.py::"
         "test_memo_keys_witnesses_and_signatures_are_shared_objects",),
    ),
    Mutant(
        "slot-key-ignores-reach",
        "src/repro/inum/cache.py",
        "indexes = frozenset(P.reaching_indexes(\n"
        "            ctx, indexes, _slot_interesting(slot), slot.param_columns\n"
        "        ))",
        "indexes = frozenset(indexes)",
        ("tests/test_scan_memo.py::"
         "test_an_index_no_slot_can_use_adds_no_slot_memo_entry",),
    ),
    Mutant(
        "slot-key-drops-cover",
        "src/repro/inum/cache.py",
        "return (slot, indexes, layout, horizontal)",
        "return (slot, indexes, None, horizontal)",
        ("tests/test_scan_memo.py::"
         "test_covers_of_one_weight_share_slot_costs_but_not_contexts",),
    ),
    Mutant(
        "slot-memo-witness-copied",
        "src/repro/evaluation/evaluator.py",
        "choice = bucket[key] = self._shared_choice(",
        "choice = bucket[key] = (",
        ("tests/test_scan_memo.py::"
         "test_memo_keys_witnesses_and_signatures_are_shared_objects",),
    ),
    Mutant(
        "kernel-signature-copied",
        "src/repro/evaluation/evaluator.py",
        "sig = (shared.setdefault(indexes, indexes), layout,",
        "sig = (frozenset(list(indexes)), layout,",
        ("tests/test_scan_memo.py::"
         "test_memo_keys_witnesses_and_signatures_are_shared_objects",),
    ),
    Mutant(
        "cold-release-disabled",
        "src/repro/evaluation/evaluator.py",
        "self.pool.release(frozenset().union(*(c.reads for c in left)))",
        "pass",
        ("tests/test_memo_inventory.py::"
         "test_derived_state_levels_off_while_records_grow",),
    ),
    Mutant(
        "cold-release-ignores-hot",
        "src/repro/evaluation/evaluator.py",
        "if not any(sql in hot for hot in reads)]",
        "]",
        ("tests/test_memo_inventory.py::"
         "test_a_statement_no_compiled_workload_reads_keeps_its_record_and_"
         "entry",),
    ),
    Mutant(
        "build-copies-slots",
        "src/repro/inum/cache.py",
        "return CachedPlan(internal_cost, one(tuple(map(one, slots))),",
        "return CachedPlan(internal_cost, tuple(slots),",
        ("tests/test_scan_memo.py::"
         "test_a_build_and_a_decoded_entry_share_their_slots",),
    ),
    Mutant(
        "layout-cover-ignores-table",
        "src/repro/catalog/partition.py",
        "if cached is None or cached[0] is not table:",
        "if cached is None:",
        ("tests/test_memo_inventory.py::"
         "test_two_catalogs_one_layout_each_priced_from_its_own_statistics",),
    ),
    Mutant(
        "kernel-counts-each-design-column",
        "src/repro/evaluation/kernel.py",
        "column = self._columns.get((table, signature))",
        "__import__('repro.obs').obs.metrics().family(__import__("
        "'repro.obs.catalogue').obs.catalogue.EVALUATE_CELLS).labels("
        "mode='column').inc()\n"
        "        column = self._columns.get((table, signature))",
        ("tests/test_obs.py::TestTelemetryBudget::"
         "test_a_warm_batch_costs_the_same_on_any_grid",),
    ),
    Mutant(
        "advisor-recommends-empty-design",
        "src/repro/cophy/advisor.py",
        "chosen = [candidates[pos] for pos in result.chosen_positions]",
        "chosen = []",
        ("benchmarks/bench_claim_zero_size_whatif.py::"
         "test_claim_zero_size_whatif_misleads",
         "benchmarks/bench_ext_write_tradeoff.py::test_ext_write_weight_sweep",
         "benchmarks/bench_ext_write_tradeoff.py::"
         "test_ext_sweep_rejects_a_design_that_ignores_maintenance",
         "benchmarks/bench_scenario2_recommend.py::"
         "test_scenario2_full_recommendation_with_schedule",
         "benchmarks/bench_scenario2_recommend.py::"
         "test_scenario2_tpch_portability",
         "benchmarks/bench_ablation_advisor.py::test_ablation_candidate_cap",
         "benchmarks/bench_ablation_advisor.py::"
         "test_ablation_candidate_classes",
         "benchmarks/bench_ablation_advisor.py::"
         "test_ablation_workload_compression",
         "benchmarks/bench_claim_cophy_vs_greedy.py::"
         "test_claim_milp_dominates_on_sdss",
         "benchmarks/bench_claim_cophy_vs_greedy.py::"
         "test_claim_milp_dominates_on_tpch",
         "benchmarks/bench_claim_colgen_scale.py::test_claim_colgen_scale",
         "benchmarks/bench_scenario2_recommend.py::"
         "test_scenario2_storage_sweep",
         "benchmarks/bench_ext_write_tradeoff.py::"
         "test_ext_advisor_respects_maintenance"),
    ),
    Mutant(
        # Only the claim bench kills it: its drifting stream is long
        # enough that the first epoch's cost dwarfs a later phase's.
        "colt-projects-against-the-first-epoch",
        "src/repro/colt/tuner.py",
        "recent = self.report.epochs[-1].observed_cost",
        "recent = self.report.epochs[0].observed_cost",
        ("benchmarks/bench_scenario3_colt.py::"
         "test_scenario3_drifting_stream",),
    ),
    Mutant(
        # A resident statement re-planned for every new design.
        "plan-memo-always-misses",
        "src/repro/optimizer/service.py",
        "plan = bq.plan_memo.get(key)",
        "plan = None",
        ("tests/test_whatif_budget.py::"
         "test_a_question_costs_no_more_than_its_budget",),
    ),
    Mutant(
        "refresh-restores-colt-probe-budget",
        "src/repro/service/tenant.py",
        "        self.last_recommendation = rec\n",
        "        self.last_recommendation = rec\n"
        "        self.tuner.notify_workload_shift()\n",
        ("tests/test_service.py::TestColtUnperturbed",),
    ),
    Mutant(
        # Stable partitions that never join an interacting pair: every
        # index its own group.  Tier-1's test_interaction kills it too.
        "stable-partition-never-joins",
        "src/repro/interaction/doi.py",
        "parent[root(b)] = root(a)",
        "parent[root(b)] = root(b)",
        ("benchmarks/bench_fig2_interaction_graph.py::"
         "test_fig2_stable_partition",),
    ),
)


def run_tests(root, tests):
    """pytest's exit status for *tests* run in the copy *root*; no
    bytecode is written, so a restored file is never served stale."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def drift(mutants, root=ROOT):
    """What no longer matches in *mutants* under *root*, one line each:
    an old text that is not in its file exactly once, or a named test
    file that does not exist.  Reads files only; runs nothing."""
    problems = []
    for mutant in mutants:
        if (root / mutant.path).read_text().count(mutant.old) != 1:
            problems.append("DRIFTED   %s: %r is not in %s once"
                            % (mutant.name, mutant.old, mutant.path))
        for test in mutant.tests:
            if not (root / test.split("::")[0]).is_file():
                problems.append("MISSING   %s: no test file %s"
                                % (mutant.name, test.split("::")[0]))
    return problems


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutant(s): %s" % ", ".join(sorted(unknown)))
        return 2
    problems = drift(chosen)
    if problems:
        print("\n".join(problems))
        return 1
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for top in COPIED:
            shutil.copytree(ROOT / top, root / top,
                            ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in chosen for t in m.tests})
        # tests/ and benchmarks/ each import their own ``conftest``
        # module, so one pytest run per directory.
        for top in sorted({t.split("/", 1)[0] for t in tests}):
            if run_tests(root, [t for t in tests
                                if t.startswith(top + "/")]) != 0:
                print("the named tests fail on the unmutated source")
                return 1
        for mutant in chosen:
            path = root / mutant.path
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            started = time.perf_counter()
            try:
                killed = run_tests(root, mutant.tests) != 0
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
