"""Property/fuzz suite for the columnar plan-term kernel.

The kernel (:mod:`repro.evaluation.kernel`) is a *compilation* of the
scalar plan-term walks, never a different cost model: over fuzzed
catalogs, configurations, and weights — and over every SDSS and TPC-H
template — kernel ``evaluate_many`` must equal the per-call
:class:`InumCostModel` walk (``oracle.per_call_matrix``, a model of its
own with its own memos) **bit-exactly** (max/min witnesses, zero
tolerance).  The same holds for CoPhy's :class:`BipKernel` against the
scalar ``oracle.config_costs_reference``, and for COLT's kernel-scored
epochs against per-query INUM costs.
"""

import random

import pytest

from repro.cophy import candidate_indexes
from repro.cophy.bip import build_bip
from repro.evaluation import (
    InumCachePool,
    ShardedInumCachePool,
    WorkloadEvaluator,
    compile_statement,
    wire,
)
from repro.inum import InumCostModel
from repro.inum.cache import evaluate_terms
from repro.whatif import Configuration
from repro.workloads import sdss, sdss_catalog, tpch, tpch_catalog

from oracle import config_costs_reference, per_call_matrix
from test_evaluator_equivalence import make_env, random_write

SEEDS = [0, 1, 2, 3, 4]


def assert_grid_equals_per_call(kernel_grid, per_call, workload, configs):
    """Exact equality with the per-call walk pinned via max/min
    witnesses: the largest absolute deviation is exactly zero, the grid
    extrema coincide, and the weighted totals equal ``workload_cost``."""
    reference = per_call_matrix(per_call, workload, configs)
    assert kernel_grid.matrix == reference
    deviations = [
        abs(a - b)
        for row_a, row_b in zip(kernel_grid.matrix, reference)
        for a, b in zip(row_a, row_b)
    ]
    assert deviations, "empty grid compared"
    assert max(deviations) == 0.0
    flat = [c for row in kernel_grid.matrix for c in row]
    ref = [c for row in reference for c in row]
    assert (max(flat), min(flat)) == (max(ref), min(ref))
    assert kernel_grid.totals == [
        per_call.workload_cost(workload, config) for config in configs
    ]


# ----------------------------------------------------------------------
# Fuzzed environments: kernel == per-call, exactly.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_equals_per_call(seed):
    catalog, workload, configs = make_env(seed)
    rng = random.Random(seed * 31 + 7)
    workload = [(sql, rng.choice([0.5, 1.0, 2.0, 3.5])) for sql, __ in workload]
    evaluator = WorkloadEvaluator(catalog)
    kernel_grid = evaluator.evaluate_many(workload, configs)
    assert_grid_equals_per_call(
        kernel_grid, InumCostModel(catalog), workload, configs
    )
    # The evaluator's own inherited per-call path (shared slot memo)
    # agrees too.
    assert kernel_grid.matrix == per_call_matrix(evaluator, workload, configs)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_kernel_handles_writes_exactly(seed):
    catalog, workload, configs = make_env(seed, write_fraction=0.4)
    workload = list(workload) + [(random_write(random.Random(seed), catalog), 2.0)]
    evaluator = WorkloadEvaluator(catalog)
    kernel_grid = evaluator.evaluate_many(workload, configs)
    assert_grid_equals_per_call(
        kernel_grid, InumCostModel(catalog), workload, configs
    )


@pytest.mark.parametrize(
    "registry, make_catalog",
    [
        (sdss.TEMPLATE_REGISTRY, lambda: sdss_catalog(scale=0.05)),
        (tpch.TEMPLATE_REGISTRY, lambda: tpch_catalog(scale=0.05)),
    ],
    ids=["sdss", "tpch"],
)
def test_every_template_prices_identically(registry, make_catalog):
    """Kernel == per-call for every SDSS/TPC-H template, random weights
    and random configurations included."""
    catalog = make_catalog()
    rng = random.Random(23)
    workload = [
        (maker(rng), rng.choice([1.0, 2.0, 0.25]))
        for name, maker in sorted(registry.items())
    ]
    candidates = candidate_indexes(catalog, workload, max_candidates=10)
    configs = [Configuration.empty()] + [
        Configuration(indexes=frozenset(
            rng.sample(candidates, rng.randint(1, min(4, len(candidates))))
        ))
        for __ in range(6)
    ]
    evaluator = WorkloadEvaluator(catalog)
    kernel_grid = evaluator.evaluate_many(workload, configs)
    assert_grid_equals_per_call(
        kernel_grid, InumCostModel(catalog), workload, configs
    )


def test_kernel_respects_duplicate_statements():
    """Repeated statements share one read block but keep per-position
    weights; alias renames share the block too (one cache entry)."""
    catalog, workload, configs = make_env(2)
    sql = workload[0][0]
    repeated = [(sql, 1.0), (sql, 3.0), (sql, 0.5)]
    evaluator = WorkloadEvaluator(catalog)
    grid = evaluator.evaluate_many(repeated, configs)
    assert grid.weights == [1.0, 3.0, 0.5]
    for row in grid.matrix:
        assert row[0] == row[1] == row[2]
    compiled = evaluator._compile(repeated)
    assert compiled.kernel.n_reads == 1


def test_evaluate_terms_is_the_reference_walk():
    """The shared scalar walk prices exactly like the model's public
    cost path and surfaces the winning plan's slot payloads."""
    catalog, workload, configs = make_env(4)
    model = InumCostModel(catalog)
    sql = workload[0][0]
    config = configs[1]
    cache = model.cache_for(sql)
    from repro.inum.cache import _DesignView

    view = _DesignView(catalog, config)

    def price(bq, slot):
        cost = model.slot_cost(bq, slot, view)
        return None if cost is None else (cost, slot.alias)

    best, payloads = evaluate_terms(cache, price)
    assert best == model.cost(sql, config)
    assert all(isinstance(alias, str) for alias in payloads)


# ----------------------------------------------------------------------
# Pool-owned kernel lifetime.
# ----------------------------------------------------------------------


class TestKernelLifetime:
    def test_pool_compiles_once_and_serves_shared(self):
        catalog, workload, __ = make_env(0)
        pool = InumCachePool()
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        sql = workload[0][0]
        signature = evaluator.signature(sql)
        assert pool.kernel_for(signature) is None  # not resident yet
        evaluator.cache_for(sql)
        kernel = pool.kernel_for(signature)
        assert kernel is not None
        assert pool.kernel_for(signature) is kernel  # memoized
        assert pool.kernel_count == 1

    def test_eviction_invalidates_kernel(self):
        catalog, workload, __ = make_env(1)
        pool = InumCachePool(capacity=1)
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        first, second = workload[0][0], workload[1][0]
        evaluator.cache_for(first)
        sig_first = evaluator.signature(first)
        assert pool.kernel_for(sig_first) is not None
        evaluator.cache_for(second)  # evicts the first entry
        assert sig_first not in pool
        assert pool.kernel_for(sig_first) is None
        assert pool.kernel_count <= 1

    def test_overwrite_drops_stale_kernel(self):
        catalog, workload, __ = make_env(2)
        pool = InumCachePool()
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        sql = workload[0][0]
        cache = evaluator.cache_for(sql)
        signature = evaluator.signature(sql)
        stale = pool.kernel_for(signature)
        pool.put(signature, cache)  # reinstall: compiled form must renew
        fresh = pool.kernel_for(signature)
        assert fresh is not stale
        assert fresh.internal.tolist() == stale.internal.tolist()

    def test_clear_drops_all_kernels(self):
        catalog, workload, __ = make_env(3)
        pool = InumCachePool()
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        evaluator.warm_up([sql for sql, __ in workload])
        assert pool.kernel_count > 0  # warm-up prewarms compiled kernels
        pool.clear()
        assert pool.kernel_count == 0

    def test_sharded_pool_routes_kernels(self):
        catalog, workload, __ = make_env(0)
        pool = ShardedInumCachePool(shards=3)
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        built = evaluator.warm_up([sql for sql, __ in workload])
        assert built > 0
        for sql, __ in workload:
            assert pool.kernel_for(evaluator.signature(sql)) is not None
        assert pool.kernel_count == len(pool)


# ----------------------------------------------------------------------
# Wire: kernels rebuild from plan terms on load.
# ----------------------------------------------------------------------


class TestWireRebuild:
    def test_loads_with_pool_installs_and_compiles(self):
        catalog, workload, configs = make_env(1)
        source = WorkloadEvaluator(catalog)
        sql = workload[0][0]
        cache = source.cache_for(sql)
        signature = source.signature(sql)
        text = wire.dumps(wire.entry_to_wire(signature, cache))

        receiver = WorkloadEvaluator(catalog.clone(), pool=InumCachePool())
        loaded_sig, loaded = wire.loads(
            text, receiver.catalog, pool=receiver.pool
        )
        assert loaded_sig == signature
        assert loaded_sig in receiver.pool
        assert receiver.pool.kernel_for(loaded_sig) is not None
        # The rebuilt kernel prices identically to the source's.
        grid = receiver.evaluate_many([(sql, 1.0)], configs)
        reference = source.evaluate_many([(sql, 1.0)], configs)
        assert grid.matrix == reference.matrix

    def test_loads_without_pool_unchanged(self):
        catalog, workload, __ = make_env(1)
        source = WorkloadEvaluator(catalog)
        sql = workload[0][0]
        cache = source.cache_for(sql)
        signature = source.signature(sql)
        text = wire.dumps(wire.entry_to_wire(signature, cache))
        loaded_sig, loaded = wire.loads(text, catalog.clone())
        assert loaded_sig == signature
        assert len(loaded.plans) == len(cache.plans)

    def test_compile_statement_pure_function_of_terms(self):
        catalog, workload, __ = make_env(2)
        source = WorkloadEvaluator(catalog)
        sql = workload[0][0]
        cache = source.cache_for(sql)
        signature = source.signature(sql)
        text = wire.dumps(wire.entry_to_wire(signature, cache))
        __, loaded = wire.loads(text, catalog.clone())
        a = compile_statement(cache)
        b = compile_statement(loaded)
        assert a.internal.tolist() == b.internal.tolist()
        assert a.slot_idx.tolist() == b.slot_idx.tolist()
        assert a.slots == b.slots


# ----------------------------------------------------------------------
# CoPhy's BIP kernel.
# ----------------------------------------------------------------------


class TestBipKernel:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_config_costs_match_scalar_exactly(self, seed):
        catalog, workload, __ = make_env(seed, write_fraction=0.25)
        evaluator = WorkloadEvaluator(catalog)
        candidates = candidate_indexes(catalog, workload, max_candidates=8)
        problem = build_bip(evaluator, workload, candidates, budget_pages=10**6)
        rng = random.Random(seed)
        batch = [()]
        batch.append(tuple(range(len(candidates))))
        batch.extend(
            tuple(rng.sample(range(len(candidates)),
                             rng.randint(0, len(candidates))))
            for __ in range(25)
        )
        vectorized = problem.config_costs(batch)
        scalar = config_costs_reference(problem, batch)
        deviations = [abs(a - b) for a, b in zip(vectorized, scalar)]
        assert max(deviations) == 0.0
        assert (max(vectorized), min(vectorized)) == (max(scalar), min(scalar))

    def test_solvers_price_through_the_kernel(self):
        """Greedy and exact solvers share the kernelized oracle, so
        objective values still match the evaluator's own account."""
        catalog, workload, __ = make_env(1)
        evaluator = WorkloadEvaluator(catalog)
        candidates = candidate_indexes(catalog, workload, max_candidates=6)
        problem = build_bip(evaluator, workload, candidates, budget_pages=10**6)
        from repro.cophy.greedy import greedy_select

        result = greedy_select(problem)
        chosen = [candidates[pos] for pos in result.chosen_positions]
        config = Configuration(indexes=frozenset(chosen))
        assert result.objective == problem.config_cost(result.chosen_positions)
        assert result.objective == pytest.approx(
            evaluator.workload_cost(workload, config), rel=1e-9
        )

    def test_empty_batch(self):
        catalog, workload, __ = make_env(0)
        evaluator = WorkloadEvaluator(catalog)
        candidates = candidate_indexes(catalog, workload, max_candidates=4)
        problem = build_bip(evaluator, workload, candidates, budget_pages=10**6)
        assert problem.config_costs([]) == []


# ----------------------------------------------------------------------
# COLT epoch scoring routes through the kernel.
# ----------------------------------------------------------------------


class TestColtEpochScoring:
    def test_epoch_cost_equals_per_query_inum(self):
        from repro.colt import ColtSettings, ColtTuner

        catalog = sdss_catalog(scale=0.05)
        tuner = ColtTuner(
            catalog,
            ColtSettings(epoch_length=8, whatif_budget=4,
                         space_budget_pages=100_000),
        )
        rng = random.Random(11)
        queries = [sdss.template("cone_search")(rng) for __ in range(6)]
        scored = tuner._epoch_cost(queries)
        reference = sum(
            tuner.evaluator.cost(sql, tuner.current) for sql in queries
        )
        assert scored == reference
        assert tuner._epoch_cost([]) == 0.0

    def test_epoch_report_scored_by_kernel(self):
        from repro.colt import ColtSettings, ColtTuner

        catalog = sdss_catalog(scale=0.05)
        settings = ColtSettings(epoch_length=5, whatif_budget=4,
                                space_budget_pages=100_000)
        tuner = ColtTuner(catalog, settings)
        rng = random.Random(3)
        stream = [sdss.template("magnitude_cut")(rng) for __ in range(5)]
        for sql in stream:
            tuner.observe(sql)
        assert len(tuner.report.epochs) == 1
        # The epoch was scored under the pre-adoption configuration
        # (empty), one kernel pass over the epoch's queries.
        fresh = WorkloadEvaluator(catalog)
        baseline = fresh.evaluate_many(
            [(sql, 1.0) for sql in stream], [Configuration.empty()]
        )
        assert tuner.report.epochs[-1].observed_cost == baseline.totals[0]
