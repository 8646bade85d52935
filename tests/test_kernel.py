"""Property/fuzz suite for the columnar plan-term kernel.

The kernel (:mod:`repro.evaluation.kernel`) is a *compilation* of the
scalar plan-term walks, never a different cost model: over fuzzed
catalogs, configurations, and weights — and over every SDSS and TPC-H
template — kernel ``evaluate_many`` must equal the per-call walk
(``oracle.per_call_matrix`` on an ``oracle.PerTextEvaluator``, a model
of its own with its own memos and no pool) **bit-exactly** (max/min
witnesses, zero tolerance).  The same holds for CoPhy's :class:`BipKernel` against the
scalar ``oracle.config_costs_reference``, and for COLT's kernel-scored
epochs against per-query INUM costs.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings
from hypothesis import strategies as st

from repro.catalog import Index
from repro.cophy import candidate_indexes
from repro.cophy.bip import (
    BipProblem,
    PlanTerm,
    QueryTerm,
    SlotOptions,
    build_bip,
)
from repro.evaluation import (
    BipDeltaState,
    InumCachePool,
    ShardedInumCachePool,
    WorkloadEvaluator,
    compile_statement,
    wire,
)
from repro.evaluation.kernel import _PlanArena
from repro.inum.cache import QueryCache, evaluate_terms
from repro.whatif import Configuration
from repro.workloads import sdss, sdss_catalog, tpch, tpch_catalog

from oracle import PerTextEvaluator, config_costs_reference, per_call_matrix
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
        kernel_grid, PerTextEvaluator(catalog), workload, configs
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
        kernel_grid, PerTextEvaluator(catalog), workload, configs
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
        kernel_grid, PerTextEvaluator(catalog), workload, configs
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
    assert len(compiled.kernel.kernels) == 1


def test_evaluate_terms_is_the_reference_walk():
    """The shared scalar walk prices exactly like the model's public
    cost path and surfaces the winning plan's slot payloads."""
    catalog, workload, configs = make_env(4)
    model = PerTextEvaluator(catalog)
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
        key = evaluator.bound(sql).sql
        assert pool.kernel_for(key) is None  # not resident yet
        evaluator.cache_for(sql)
        kernel = pool.kernel_for(key)
        assert kernel is not None
        assert pool.kernel_for(key) is kernel  # memoized
        assert pool.kernel_count == 1

    def test_eviction_invalidates_kernel(self):
        catalog, workload, __ = make_env(1)
        pool = InumCachePool(capacity=1)
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        first, second = workload[0][0], workload[1][0]
        evaluator.cache_for(first)
        first_key = evaluator.bound(first).sql
        assert pool.kernel_for(first_key) is not None
        evaluator.cache_for(second)  # evicts the first entry
        assert first_key not in pool
        assert pool.kernel_for(first_key) is None
        assert pool.kernel_count <= 1

    def test_overwrite_drops_stale_kernel(self):
        catalog, workload, __ = make_env(2)
        pool = InumCachePool()
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        sql = workload[0][0]
        cache = evaluator.cache_for(sql)
        key = evaluator.bound(sql).sql
        stale = pool.kernel_for(key)
        pool.put(key, cache)  # reinstall: compiled form must renew
        fresh = pool.kernel_for(key)
        assert fresh is not stale
        assert fresh.internal.tolist() == stale.internal.tolist()

    def test_sharded_pool_routes_kernels(self):
        catalog, workload, __ = make_env(0)
        pool = ShardedInumCachePool(shards=3)
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        built = evaluator.warm_up([sql for sql, __ in workload])
        assert built > 0
        for sql, __ in workload:
            assert pool.kernel_for(evaluator.bound(sql).sql) is not None
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
        key = source.bound(sql).sql
        text = wire.dumps(wire.entry_to_wire(key, cache))

        receiver = WorkloadEvaluator(catalog.clone(), pool=InumCachePool())
        loaded_key, loaded = wire.loads(
            text, receiver.catalog, pool=receiver.pool
        )
        assert loaded_key == key
        assert loaded_key in receiver.pool
        assert receiver.pool.kernel_for(loaded_key) is not None
        # The rebuilt kernel prices identically to the source's.
        grid = receiver.evaluate_many([(sql, 1.0)], configs)
        reference = source.evaluate_many([(sql, 1.0)], configs)
        assert grid.matrix == reference.matrix

    def test_loads_without_pool_unchanged(self):
        catalog, workload, __ = make_env(1)
        source = WorkloadEvaluator(catalog)
        sql = workload[0][0]
        cache = source.cache_for(sql)
        key = source.bound(sql).sql
        text = wire.dumps(wire.entry_to_wire(key, cache))
        loaded_key, loaded = wire.loads(text, catalog.clone())
        assert loaded_key == key
        assert len(loaded.plans) == len(cache.plans)

    def test_compile_statement_pure_function_of_terms(self):
        catalog, workload, __ = make_env(2)
        source = WorkloadEvaluator(catalog)
        sql = workload[0][0]
        cache = source.cache_for(sql)
        key = source.bound(sql).sql
        text = wire.dumps(wire.entry_to_wire(key, cache))
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
            WorkloadEvaluator(catalog),
            ColtSettings(epoch_length=8, whatif_budget=4, min_whatif_budget=2,
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
                                min_whatif_budget=2,
                                space_budget_pages=100_000)
        tuner = ColtTuner(WorkloadEvaluator(catalog), settings)
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


# ----------------------------------------------------------------------
# The one delta core, pinned against a walk that shares none of its code.
# ----------------------------------------------------------------------


def walk(internal, plan_rows, starts, row):
    """``(cheapest cost, first-strict-less plan)`` per group, as plain
    Python: each plan adds its slots onto its internal cost in plan
    order, each group keeps the first plan strictly below its best."""
    bounds = list(starts) + [len(internal)]
    out = []
    for first, end in zip(bounds, bounds[1:]):
        best, winner = math.inf, first
        for plan in range(first, end):
            cost = internal[plan]
            for slot in plan_rows[plan]:
                cost += row[slot]
            if cost < best:
                best, winner = cost, plan
        out.append((best, winner))
    return out


@st.composite
def arena_cases(draw):
    """A tiny arena (ragged plan rows, groups of ≥ 1 plans, disjoint
    units), a parent row with ``+inf`` slots, and 0–4 children each
    rewriting 0–3 units."""
    n_slots = draw(st.sampled_from([4, 1, 3, 0, 5]))
    finite = st.floats(0.0, 1e12, allow_nan=False)
    cost = st.tuples(st.integers(0, 9), finite).map(
        lambda drawn: math.inf if drawn[0] == 0 else drawn[1]
    )

    def costs(n):
        return st.lists(cost, min_size=n, max_size=n)

    def sized(elements, sizes):
        # Hypothesis favours a sample's first entry and short lists: the
        # edge sizes are listed, but not first, so they are not most runs.
        n = draw(st.sampled_from(sizes))
        return st.lists(elements, min_size=n, max_size=n)

    plan = st.tuples(finite, st.lists(
        st.integers(0, max(n_slots - 1, 0)), max_size=3 if n_slots else 0,
    ))
    groups = draw(sized(
        st.lists(plan, min_size=1, max_size=3), [3, 1, 2, 0, 4]
    ))
    starts, internal, plan_rows = [], [], []
    for group in groups:
        starts.append(len(internal))
        for plan_internal, slots in group:
            internal.append(plan_internal)
            plan_rows.append(slots)
    owner = draw(st.lists(st.sampled_from([-1, 0, 0, 1, 1, 2, 2]),
                          min_size=n_slots, max_size=n_slots))
    units = [[s for s in range(n_slots) if owner[s] == u] for u in range(3)]
    row = draw(costs(n_slots)) + [0.0]
    children = draw(sized(
        st.permutations([0, 1, 2]).flatmap(
            lambda order: st.sampled_from([order[:k] for k in (1, 0, 2, 3)])
        ),
        [2, 1, 3, 0, 4],
    ))
    pairs = [(c, u) for c, changed in enumerate(children) for u in changed]
    values = [draw(costs(len(units[u]))) for __, u in pairs]
    return (internal, plan_rows, starts, n_slots, units, row,
            len(children), pairs, values)


@hsettings(max_examples=300, deadline=None)
@given(arena_cases())
# One plan of internal cost 1e16 over two slots of 1.0: summed in the
# walk's order each 1.0 rounds away; re-associated, 1.0 + 1.0 does not.
@example(([1e16], [[0, 1]], [0], 2, [[0, 1], [], []], [1.0, 1.0, 0.0], 1,
          [(0, 0)], [[1.0, 1.0]]))
def test_arena_price_equals_dense_equals_python_walk(case):
    """``price`` == ``minima(sums(child rows))`` == the pure-Python
    walk, bit for bit, and ``argmin`` == first-strict-less — for 1-D
    and stacked rows, children that change nothing and a batch of none;
    where the walk finds a group with no feasible plan, both raise."""
    (internal, plan_rows, starts, n_slots, units, row, n_children, pairs,
     values) = case
    arena = _PlanArena(
        internal, plan_rows, starts, n_slots,
        np.cumsum([0] + [len(unit) for unit in units]),
        [slot for unit in units for slot in unit], "nothing feasible",
    )
    footprint = arena.footprint(
        np.asarray([c for c, __ in pairs], dtype=np.intp),
        np.asarray([u for __, u in pairs], dtype=np.intp),
    )
    child_rows = [list(row) for __ in range(n_children)]
    for (c, u), unit_values in zip(pairs, values):
        for slot, value in zip(units[u], unit_values):
            child_rows[c][slot] = value
    stacked = np.asarray(child_rows, dtype=np.float64).reshape(
        n_children, n_slots + 1
    )
    parent = np.asarray(row, dtype=np.float64)

    def price():
        return arena.price(
            parent, arena.sums(parent), n_children, footprint,
            np.asarray([v for vals in values for v in vals], dtype=np.float64),
        )

    expected = [walk(internal, plan_rows, starts, r) for r in child_rows]
    if any(math.isinf(best) for child in expected for best, __ in child):
        with pytest.raises(RuntimeError, match="nothing feasible"):
            price()
        with pytest.raises(RuntimeError, match="nothing feasible"):
            arena.minima(arena.sums(stacked))
        return
    rows, sums, best = price()
    assert rows.tolist() == child_rows
    assert sums.tolist() == arena.sums(stacked).tolist()
    assert best.tolist() == arena.minima(arena.sums(stacked)).tolist()
    assert best.tolist() == [[b for b, __ in child] for child in expected]
    assert arena.argmin(sums).tolist() == [
        [winner for __, winner in child] for child in expected
    ]
    for r, child in zip(child_rows, expected):  # one row at a time, 1-D
        acc = arena.sums(np.asarray(r, dtype=np.float64))
        assert arena.minima(acc).tolist() == [b for b, __ in child]
        assert arena.argmin(acc).tolist() == [w for __, w in child]


def order_only_env():
    """An evaluator whose entry for one statement keeps only the plan
    expecting ``ra`` order under a pipelined LIMIT — no sort can stand
    in, so it is feasible only with an index on ``ra`` — between two
    ordinary statements; returns ``(evaluator, workload, sql, with_ra)``."""
    catalog = sdss_catalog(scale=0.01)
    evaluator = WorkloadEvaluator(catalog)
    sql = "SELECT ra FROM photoobj WHERE ra < 10 ORDER BY ra"
    cache = evaluator.cache_for(sql)
    plans = [
        dataclasses.replace(plan, slots=tuple(
            dataclasses.replace(slot, scale=0.5) for slot in plan.slots
        ))
        for plan in cache.plans
        if any(slot.required_order for slot in plan.slots)
    ]
    assert plans
    evaluator.pool.put(
        evaluator.bound(sql).sql,
        QueryCache.from_plan_terms(cache.bound_query, plans),
    )
    workload = [
        ("SELECT z FROM specobj WHERE z > 6.5", 1.0), (sql, 2.0),
        ("SELECT dec FROM photoobj WHERE dec > 80", 0.5),
    ]
    return evaluator, workload, sql, Configuration.of(
        Index("photoobj", ("ra",))
    )


def needy_bip(plans=None, position=1):
    """Three query terms; the one at *position* is served only by
    candidate 1 (no default access), so it is infeasible without it —
    or holds exactly *plans* when given."""
    def term(weight, cost):
        return QueryTerm(weight, [
            PlanTerm(1.0, [SlotOptions([(-1, cost), (0, cost / 2)])]),
        ])

    needy = QueryTerm(2.0, [
        PlanTerm(1.0, [SlotOptions([(1, 3.0)])]),
        PlanTerm(4.0, [SlotOptions([(1, 1.0)]), SlotOptions([(-1, 1.0)])]),
    ] if plans is None else plans)
    queries = [term(1.0, 6.0), term(0.5, 9.0)]
    queries.insert(position, needy)
    return BipProblem(candidates=[None, None], sizes=[1.0, 1.0],
                      budget_pages=10.0, queries=queries)


def uncaptured(problem, chosen):
    """The BIP state of an infeasible *chosen*, built without the
    capture's own check — what the delta passes must still refuse."""
    kernel = problem._compiled()
    __, rows = kernel._resolve([chosen])
    return kernel, BipDeltaState(
        list(chosen), rows[0], kernel.arena.sums(rows[0])
    )


def bip_delta(problem):
    kernel, state = uncaptured(problem, [])
    return kernel.evaluate_delta(state, [0])


def bip_chained_capture(problem):
    kernel, state = uncaptured(problem, [])
    kernel._delta_state = state
    return kernel.delta_state([0])


class TestNoFeasiblePlanRaises:
    """Every pass of both kernels raises the scalar walk's error when
    all plans of one group price ``+inf`` — and up front when a group
    has no plans at all, where a grouped reduction would have answered
    with its neighbour's cost."""

    INUM = "INUM cache produced no feasible plan"
    BIP = "BIP has an infeasible query term"

    @pytest.mark.parametrize("price", [
        lambda ev, wl, ok: ev.evaluate_many(wl, [ok, None]),
        lambda ev, wl, ok: ev.evaluate_deltas(wl, None, [ok]),
        lambda ev, wl, ok: ev.evaluate_deltas(wl, ok, [ok, None]),
        lambda ev, wl, ok: ev.workload_cost_with_usage_batch(wl, [ok, None]),
    ], ids=["dense", "capture", "delta", "usage"])
    def test_workload_kernel(self, price):
        evaluator, workload, sql, with_ra = order_only_env()
        with pytest.raises(RuntimeError, match=self.INUM):
            evaluator.cost(sql, Configuration.empty())  # the scalar walk
        with pytest.raises(RuntimeError, match=self.INUM):
            price(evaluator, workload, with_ra)
        # The feasible child still prices, and like the per-call walk.
        assert evaluator.evaluate_deltas(
            workload, with_ra, [with_ra]
        ).matrix == per_call_matrix(evaluator, workload, [with_ra])

    @pytest.mark.parametrize("price", [
        lambda problem: problem.config_costs([[1], [0]]),
        lambda problem: problem.config_costs_delta([0], [1]),
        bip_chained_capture,
        bip_delta,
    ], ids=["dense", "capture", "chained-capture", "delta"])
    def test_bip_kernel(self, price):
        problem = needy_bip()
        with pytest.raises(RuntimeError, match=self.BIP):
            config_costs_reference(problem, [[0]])  # the scalar walk
        with pytest.raises(RuntimeError, match=self.BIP):
            price(problem)
        assert problem.config_costs_delta([1], [0, 1]) \
            == config_costs_reference(problem, [[1, 0], [1, 1]])

    @pytest.mark.parametrize("position", [0, 1, 2],
                             ids=["first", "middle", "last"])
    def test_plan_less_query_term(self, position):
        problem = needy_bip(plans=[], position=position)
        with pytest.raises(RuntimeError, match=self.BIP):
            config_costs_reference(problem, [[], [0]])
        for price in (
            lambda: problem.config_costs([[], [0]]),
            lambda: problem.config_costs_delta([], [0]),
            lambda: problem.used_positions([0]),
        ):
            with pytest.raises(RuntimeError, match=self.BIP):
                price()

    @pytest.mark.parametrize("position", [0, 1, 2],
                             ids=["first", "middle", "last"])
    def test_plan_less_cache_entry(self, position):
        evaluator, workload, __, with_ra = order_only_env()
        sql = workload[position][0]
        evaluator.pool.put(
            evaluator.bound(sql).sql,
            QueryCache.from_plan_terms(evaluator.bound(sql), []),
        )
        configs = [with_ra, with_ra.with_indexes(Index("specobj", ("z",)))]
        with pytest.raises(RuntimeError, match=self.INUM):
            evaluator.cost(sql, with_ra)
        for price in (
            lambda: evaluator.evaluate_many(workload, configs),
            lambda: evaluator.evaluate_deltas(workload, with_ra, configs),
        ):
            with pytest.raises(RuntimeError, match=self.INUM):
                price()

    def test_option_less_slot_is_an_infeasible_plan(self):
        """A slot nothing serves prices its plan out, like the scalar
        walk's empty ``applicable`` list — not as its neighbour slot."""
        dead = PlanTerm(0.0, [SlotOptions([])])
        alive = PlanTerm(7.0, [SlotOptions([(-1, 1.0), (1, 0.25)])])
        problem = needy_bip(plans=[dead, alive])
        batch = [[], [0], [1], [0, 1]]
        assert problem.config_costs(batch) \
            == config_costs_reference(problem, batch)
        assert problem.config_costs_delta([0], [0, 1]) \
            == config_costs_reference(problem, [[0, 0], [0, 1]])
        with pytest.raises(RuntimeError, match=self.BIP):
            needy_bip(plans=[dead]).config_costs([[0, 1]])
