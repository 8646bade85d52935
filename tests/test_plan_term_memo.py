"""An eviction drops derived state, not the answer (ISSUE 23).

The evaluator keeps each statement's plan terms for as long as it keeps
the statement's bound AST, so a pool miss on a statement
the optimizer has already answered is *decoded*
(``QueryCache.from_plan_terms``), never planned again.  Pinned here:

* for every SDSS / TPC-H template, under ``capacity=1``: the decoded
  entry ``==`` a cold ``build_cache`` term for term, the rebuild calls
  the planner zero times and leaves ``PoolStats.optimizer_calls`` where
  it was, and ``evaluate_many`` / ``evaluate_deltas`` on fuzzed designs
  are bit-identical to an unbounded evaluator;
* the memo is keyed by statement text, as the pool is: two texts that
  differ in their aliases alone are two entries, each with its own
  terms;
* a ``TuningService`` with ``pool_capacity=8`` emits what the unbounded
  run emits and calls ``build_cache`` once per distinct statement.

The fleet half (an evicted statement ships no task frame, an entry a
runner returned is decodable after eviction) is in ``tests/test_net.py``.
"""

import random

import pytest

from repro.evaluation import InumCachePool, WorkloadEvaluator
from repro.evaluation import evaluator as evaluator_module
from repro.inum import cache as inum_cache
from repro.inum.cache import build_cache
from repro.sql.binder import bind_statement
from repro.whatif import Configuration
from repro.workloads import sdss_catalog

from test_evaluation_pool import Q_JOIN, Q_JOIN_RENAMED, Q_RA
from test_refresh_cost import TENANTS, outcome, run_service
from test_scan_memo import (
    ENVIRONMENTS,
    fuzzed_configurations,
    read_statements,
)


@pytest.fixture
def built(monkeypatch):
    """Bound queries the evaluator builds an entry for: every other pool
    miss is a decode (``PoolStats.misses`` == builds + decodes)."""
    calls = []
    real = evaluator_module.build_cache

    def counting_build_cache(bq, *args):
        calls.append(bq.sql)
        return real(bq, *args)

    monkeypatch.setattr(evaluator_module, "build_cache", counting_build_cache)
    return calls


@pytest.fixture
def planned(monkeypatch):
    """Bound queries ``build_cache`` hands to the planner."""
    calls = []
    real = inum_cache.plan_query

    def counting_plan_query(bq, *args, **kwargs):
        calls.append(bq.sql)
        return real(bq, *args, **kwargs)

    monkeypatch.setattr(inum_cache, "plan_query", counting_plan_query)
    return calls


@ENVIRONMENTS
def test_an_evicted_statement_is_decoded_not_replanned(
        registry, make_catalog, planned, built):
    catalog = make_catalog()
    sqls = read_statements(registry, catalog)
    workload = [(sql, 1.0 + i % 3) for i, sql in enumerate(sqls)]
    configs = fuzzed_configurations(random.Random(31), catalog, sqls)
    unbounded = WorkloadEvaluator(catalog)
    grid = unbounded.evaluate_many(workload, configs).matrix
    deltas = unbounded.evaluate_deltas(workload, configs[1], configs).matrix

    bounded = WorkloadEvaluator(catalog, pool=InumCachePool(capacity=1))
    del built[:]  # the unbounded evaluator's
    targets = [bq for bq, __, __ in bounded.warm_targets(workload)]
    assert len(targets) > 3  # writes ride along as their locate queries
    first = {bq.sql: bounded.cache_for(bq).plans for bq in targets}
    stats = bounded.pool.stats
    assert len(bounded.pool) == 1 and stats.evictions == len(targets) - 1
    cold = {
        bq.sql: build_cache(bq, catalog, bounded.settings) for bq in targets
    }
    spent, calls = stats.optimizer_calls, len(planned)
    assert spent == sum(c.build_optimizer_calls for c in cold.values()) > 0

    # Second round: every request misses the one-entry pool.
    for bq in targets:
        decoded = bounded.cache_for(bq)
        assert decoded.bound_query is bq
        assert decoded.build_optimizer_calls == 0
        assert decoded.plans == cold[bq.sql].plans == list(first[bq.sql])
        assert decoded.plan_terms() == cold[bq.sql].plan_terms()
    assert stats.misses == 2 * len(targets) and stats.hits == 0
    assert len(built) == len(targets)  # the second round decoded

    # Grids over a pool that evicts on every statement: bit-identical.
    assert bounded.evaluate_many(workload, configs).matrix == grid
    assert bounded.evaluate_deltas(
        workload, configs[1], configs).matrix == deltas
    assert stats.evictions > 2 * len(targets)
    assert len(planned) == calls and stats.optimizer_calls == spent


def test_alias_variants_are_two_entries_with_their_own_terms(
        sdss_catalog, planned):
    evaluator = WorkloadEvaluator(sdss_catalog, pool=InumCachePool(capacity=1))
    original = evaluator.cache_for(Q_JOIN)
    calls = len(planned)
    renamed = evaluator.cache_for(Q_JOIN_RENAMED)  # evicts the join
    assert len(planned) > calls and renamed is not original
    assert {s.alias for p in original.plans for s in p.slots} == {"p", "s"}
    assert {s.alias for p in renamed.plans for s in p.slots} == \
        {"alpha", "beta"}
    assert renamed.plans == build_cache(
        bind_statement(Q_JOIN_RENAMED, sdss_catalog), sdss_catalog,
        evaluator.settings,
    ).plans
    calls, misses = len(planned), evaluator.pool.stats.misses
    assert evaluator.cache_for(Q_JOIN).plans == original.plans  # decoded
    assert len(planned) == calls  # a miss that planned nothing
    assert evaluator.pool.stats.misses == misses + 1
    config = Configuration.empty()
    assert evaluator.cost(Q_JOIN, config) == evaluator.cost(
        Q_JOIN_RENAMED, config)


def test_a_bounded_service_plans_each_statement_once(monkeypatch):
    catalog = sdss_catalog(scale=0.01)
    builds = []
    real = evaluator_module.build_cache

    def spy(bq, *args):
        builds.append(bq.sql)
        return real(bq, *args)

    monkeypatch.setattr(evaluator_module, "build_cache", spy)
    unbounded = run_service(catalog, shards=1)
    distinct = len(builds)
    assert distinct == len(set(builds))
    del builds[:]
    bounded = run_service(catalog, shards=1, pool_capacity=8)
    plane = bounded.backplane("sdss")
    stats = plane.pool.stats
    assert stats.evictions > 0
    for name in TENANTS:
        assert outcome(bounded.tenant(name)) \
            == outcome(unbounded.tenant(name)), name
    # One build per distinct statement; every other miss was a decode,
    # and the optimizer bill is the unbounded run's.
    assert len(builds) == len(set(builds)) == distinct
    assert stats.misses > len(builds)  # the rest decoded
    assert stats.optimizer_calls \
        == unbounded.backplane("sdss").pool.stats.optimizer_calls
