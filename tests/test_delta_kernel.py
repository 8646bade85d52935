"""Equivalence and lifetime suite for delta (seminaïve) kernel
evaluation.

Delta mode is a *compilation* of the existing paths, never a different
cost model: over fuzzed environments and every SDSS/TPC-H template,
``evaluate_deltas`` must equal ``evaluate_many`` bit-exactly, BIP delta
pricing must equal the full batch, and greedy must reproduce the full-batch sweep
(``greedy_select_reference`` in ``oracle.py``) decision for decision.
Lifetime tests pin that captured parent states die with their compiled
workloads on pool eviction, and the concurrency fuzz pins the evaluator
cache-race fixes (compiled-workload LRU and exact-service locking).
"""

import random
import threading
from dataclasses import replace

import pytest

from repro.cophy import candidate_indexes
from repro.cophy.bip import build_bip
from repro.cophy.greedy import greedy_select
from repro.evaluation import InumCachePool, WorkloadEvaluator, memos
from repro.whatif import Configuration
from repro.workloads import sdss, sdss_catalog, tpch, tpch_catalog

from oracle import config_costs_reference, greedy_select_reference
from test_evaluator_equivalence import make_env

SEEDS = [0, 1, 2, 3, 4]


def delta_family(rng, configs):
    """A parent plus children that are near edits of it (single adds
    and removals), the exact parent itself, unrelated configurations,
    and the empty configuration — the shapes chain sweeps produce."""
    parent = configs[rng.randrange(len(configs))]
    children = list(configs) + [parent, Configuration.empty()]
    pool = sorted(
        {ix for config in configs for ix in config.indexes},
        key=lambda ix: ix.name,
    )
    for ix in pool[:3]:
        children.append(parent.with_indexes(ix))
        children.append(replace(parent, indexes=parent.indexes - {ix}))
    return parent, children


# ----------------------------------------------------------------------
# Delta grids == full grids, bit-exactly.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_equals_full_grid(seed):
    catalog, workload, configs = make_env(seed, write_fraction=0.2)
    rng = random.Random(seed * 17 + 5)
    parent, children = delta_family(rng, configs)
    evaluator = WorkloadEvaluator(catalog)
    full = evaluator.evaluate_many(workload, children)
    delta = evaluator.evaluate_deltas(workload, parent, children)
    assert delta.matrix == full.matrix
    assert delta.totals == full.totals
    # A second pass answers from the memoized parent state, identically.
    again = evaluator.evaluate_deltas(workload, parent, children)
    assert again.matrix == full.matrix


@pytest.mark.parametrize(
    "registry, make_catalog",
    [
        (sdss.TEMPLATE_REGISTRY, lambda: sdss_catalog(scale=0.05)),
        (tpch.TEMPLATE_REGISTRY, lambda: tpch_catalog(scale=0.05)),
    ],
    ids=["sdss", "tpch"],
)
def test_every_template_delta_identical(registry, make_catalog):
    """Delta grids match the full grid exactly on every SDSS/TPC-H
    template."""
    catalog = make_catalog()
    rng = random.Random(41)
    workload = [
        (maker(rng), rng.choice([1.0, 2.0, 0.25]))
        for name, maker in sorted(registry.items())
    ]
    candidates = candidate_indexes(catalog, workload, max_candidates=10)
    configs = [Configuration.empty()] + [
        Configuration(indexes=frozenset(
            rng.sample(candidates, rng.randint(1, min(4, len(candidates))))
        ))
        for __ in range(5)
    ]
    parent, children = delta_family(rng, configs)
    evaluator = WorkloadEvaluator(catalog)

    full = evaluator.evaluate_many(workload, children)
    delta = evaluator.evaluate_deltas(workload, parent, children)
    assert delta.matrix == full.matrix


# ----------------------------------------------------------------------
# BIP delta pricing and delta-mode greedy.
# ----------------------------------------------------------------------


class TestBipDelta:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_delta_equals_full_batch_exactly(self, seed):
        catalog, workload, __ = make_env(seed, write_fraction=0.25)
        evaluator = WorkloadEvaluator(catalog)
        candidates = candidate_indexes(catalog, workload, max_candidates=8)
        problem = build_bip(
            evaluator, workload, candidates, budget_pages=10**6
        )
        rng = random.Random(seed * 7 + 1)
        n = len(candidates)
        for __ in range(6):
            chosen = rng.sample(range(n), rng.randint(0, n - 1))
            extensions = list(range(n))
            full = problem.config_costs(
                [chosen + [pos] for pos in extensions]
            )
            delta = problem.config_costs_delta(chosen, extensions)
            assert delta == full
            scalar = config_costs_reference(
                problem, [chosen + [pos] for pos in extensions]
            )
            assert delta == scalar

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("capped", [True, False])
    def test_greedy_delta_reproduces_full_run(self, seed, capped):
        """Decision for decision, with and without a ``max_indexes`` cap
        cutting the chain of captures short."""
        catalog, workload, __ = make_env(seed, write_fraction=0.2)
        evaluator = WorkloadEvaluator(catalog)
        candidates = candidate_indexes(catalog, workload, max_candidates=8)
        sizes = sum(
            ix.size_pages(catalog.table(ix.table_name)) for ix in candidates
        )
        problem = build_bip(
            evaluator, workload, candidates, budget_pages=sizes // 2,
            max_indexes=2 if capped else None,
        )
        with_delta = greedy_select(problem)
        without = greedy_select_reference(problem)
        assert with_delta.chosen_positions == without.chosen_positions
        assert with_delta.objective == without.objective
        assert with_delta.nodes_explored == without.nodes_explored
        if capped:
            assert len(with_delta.chosen_positions) <= 2


# ----------------------------------------------------------------------
# Compiled-workload lifetime: pool-owned, dropped on eviction.
# ----------------------------------------------------------------------


class TestDeltaStateLifetime:
    def test_eviction_drops_compiled_workload_and_delta_state(self):
        catalog, workload, configs = make_env(1)
        pool = InumCachePool(capacity=2)
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        parent = configs[0]
        short = workload[:2]
        reference = evaluator.evaluate_many(short, configs).matrix
        evaluator.evaluate_deltas(workload[:2], parent, configs)
        with evaluator._lock:
            assert evaluator._compiled
        # Evicting every member's entry sweeps the compiled workload
        # transitively.
        for sql, __ in workload[2:]:
            evaluator.cache_for(sql)
        for sql, __ in short:
            if evaluator.bound(sql).sql not in pool:
                break
        else:
            pytest.skip("capacity did not force an eviction")
        with evaluator._lock:
            live = {
                sql
                for compiled in evaluator._compiled.values()
                for sql in compiled.reads
            }
        assert all(sql in pool for sql in live)
        # Pricing again recompiles and recaptures, identically.
        assert evaluator.evaluate_deltas(
            short, parent, configs
        ).matrix == reference

# ----------------------------------------------------------------------
# Concurrency fuzz: the evaluator cache-race fixes.
# ----------------------------------------------------------------------


class TestEvaluatorConcurrency:
    def test_parallel_evaluation_against_concurrent_evictions(self):
        """Threads alternating evaluate_many / evaluate_deltas while a
        tiny pool constantly evicts: no lost updates, the compiled LRU
        never exceeds its bound, and every compiled workload reads only
        resident entries."""
        catalog, workload, configs = make_env(0)
        reference = WorkloadEvaluator(catalog)
        slices = [workload[i:i + 2] for i in range(len(workload) - 1)]
        expected = [
            reference.evaluate_many(sl, configs).matrix for sl in slices
        ]

        pool = InumCachePool(capacity=2)  # constant eviction pressure
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        errors = []
        barrier = threading.Barrier(len(slices))

        def worker(i):
            try:
                barrier.wait(timeout=30)
                for round_ in range(8):
                    if (round_ + i) % 2 == 0:
                        got = evaluator.evaluate_many(slices[i], configs)
                    else:
                        got = evaluator.evaluate_deltas(
                            slices[i], configs[0], configs
                        )
                    assert got.matrix == expected[i]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(slices))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        with evaluator._lock:
            assert len(evaluator._compiled) <= memos.COMPILED.bound
            for compiled in evaluator._compiled.values():
                assert all(sql in pool for sql in compiled.reads)

    def test_exact_service_counter_under_concurrent_lookups(self):
        """The exact services' shared planner-call counter is read while
        tenant threads churn the exact-service LRU; locked reads never
        crash or lose the pinned base service."""
        catalog, workload, configs = make_env(1)
        evaluator = WorkloadEvaluator(catalog)
        sql = workload[0][0]
        errors = []

        def churn():
            try:
                for config in configs * 5:
                    evaluator.exact_service(config).cost(sql)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read():
            try:
                for __ in range(200):
                    assert evaluator.exact_service().optimizer_calls >= 0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn) for __ in range(3)]
        threads += [threading.Thread(target=read) for __ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert evaluator.exact_service().optimizer_calls > 0

