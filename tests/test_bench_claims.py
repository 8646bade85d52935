"""Golden regression tests: each ``benchmarks/bench_claim_*.py`` scenario
in miniature.

The full benchmarks print tables and assert on wall-clock; these tests
re-run each scenario on the small shared SDSS catalog and pin the
*paper-direction invariants* — the qualitative claims the benchmarks
exist to demonstrate — so a regression shows up in pytest rather than in
someone eyeballing benchmark JSON.
"""

import random

import pytest

from repro.catalog import Index
from repro.cophy import CoPhyAdvisor, candidate_indexes
from repro.evaluation import WorkloadEvaluator
from repro.interaction import schedule_naive, schedule_optimal
from repro.optimizer import CostService
from repro.whatif import Configuration, WhatIfSession

from oracle import PerTextEvaluator, drain, threaded_warm_up

WORKLOAD = [
    ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12", 1.0),
    ("SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1", 1.0),
    ("SELECT p.ra, s.z FROM photoobj p, specobj s "
     "WHERE p.objid = s.objid AND s.z > 6.5", 1.0),
    ("SELECT type, COUNT(*) FROM photoobj WHERE gmag < 18 GROUP BY type", 1.0),
    ("SELECT ra FROM photoobj WHERE dec > 85 ORDER BY ra LIMIT 5", 1.0),
]

CANDIDATES = [
    Index("photoobj", ("ra",)),
    Index("photoobj", ("rmag", "type")),
    Index("photoobj", ("objid",)),
    Index("specobj", ("z",), include=("objid",)),
    Index("photoobj", ("gmag",)),
    Index("photoobj", ("dec",)),
]


def make_configs(n, seed=0, max_size=4):
    rng = random.Random(seed)
    return [
        Configuration(
            indexes=frozenset(rng.sample(CANDIDATES, rng.randint(0, max_size)))
        )
        for __ in range(n)
    ]


class TestClaimInumSpeedup:
    """bench_claim_inum_speedup: INUM pays optimizer calls once, per
    interesting-order vector — not per configuration."""

    def test_fewer_optimizer_calls_than_reoptimization(self, sdss_catalog):
        configs = make_configs(12, seed=1)

        naive_calls = 0
        naive_costs = []
        for config in configs:
            service = CostService(config.apply(sdss_catalog))
            naive_costs.append(service.workload_cost(WORKLOAD))
            naive_calls += service.optimizer_calls

        model = WorkloadEvaluator(sdss_catalog)
        warm_calls = model.warm_up(WORKLOAD)
        inum_costs = [model.workload_cost(WORKLOAD, c) for c in configs]

        assert warm_calls < naive_calls / 2  # one-off investment, amortized
        assert model.precompute_calls == warm_calls  # zero calls while evaluating
        for estimate, real in zip(inum_costs, naive_costs):
            assert estimate == pytest.approx(real, rel=0.05)


class TestClaimWhatIfOverhead:
    """bench_claim_whatif_overhead: simulating a design costs a couple of
    optimizer calls per query, not a physical build, and never leaks into
    the real catalog."""

    def test_call_budget_and_isolation(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        config = Configuration(indexes=frozenset(CANDIDATES[:3]))
        before = {ix.name for ix in sdss_catalog.indexes}
        report = session.evaluate(WORKLOAD, config)
        assert session.optimizer_calls <= 2 * len(WORKLOAD) + 5
        assert report.average_improvement_pct > 0
        assert {ix.name for ix in sdss_catalog.indexes} == before


class TestClaimZeroSizeWhatIf:
    """bench_claim_zero_size_whatif: honest size accounting keeps the
    recommendation within budget (ignoring sizes is what misleads)."""

    def test_recommendation_respects_budget(self, sdss_catalog):
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        total = sum(
            ix.size_pages(sdss_catalog.table(ix.table_name)) for ix in CANDIDATES
        )
        budget = total // 3  # cannot fit everything
        rec = advisor.recommend(
            WORKLOAD, budget, candidates=list(CANDIDATES), solver="greedy"
        )
        assert rec.size_pages <= budget
        # Predicted impact agrees with the cost model's own account.
        assert rec.predicted_workload_cost == pytest.approx(
            advisor.evaluator.workload_cost(WORKLOAD, rec.configuration),
            rel=1e-6,
        )


class TestClaimCophyVsGreedy:
    """bench_claim_cophy_vs_greedy: neither the exact solver's design
    nor its proven lower bound is above the greedy heuristic's cost on
    the same problem."""

    @pytest.mark.parametrize("budget_divisor", [2, 4])
    def test_milp_dominates_greedy(self, sdss_catalog, budget_divisor):
        total = sum(
            ix.size_pages(sdss_catalog.table(ix.table_name)) for ix in CANDIDATES
        )
        budget = total // budget_divisor
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        milp = advisor.recommend(
            WORKLOAD, budget, candidates=list(CANDIDATES), solver="milp"
        )
        greedy = advisor.recommend(
            WORKLOAD, budget, candidates=list(CANDIDATES), solver="greedy"
        )
        assert milp.stats["lower_bound"] \
            <= greedy.predicted_workload_cost + 1e-6
        assert milp.predicted_workload_cost \
            <= greedy.predicted_workload_cost + 1e-6


class TestClaimSchedule:
    """bench_claim_schedule: interaction-aware ordering beats naive
    benefit ordering, and benefit only accumulates."""

    def test_optimal_beats_naive_and_is_monotone(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        chosen = [CANDIDATES[0], CANDIDATES[3], CANDIDATES[5]]

        def cost_fn(index_set):
            return evaluator.workload_cost(
                WORKLOAD, Configuration(indexes=frozenset(index_set))
            )

        optimal = schedule_optimal(chosen, cost_fn, sdss_catalog)
        naive = schedule_naive(chosen, cost_fn, sdss_catalog)
        assert optimal.area <= naive.area + 1e-6
        costs = [cost for __, cost in optimal.timeline]
        assert all(b <= a + 1e-6 for a, b in zip(costs, costs[1:]))


class TestClaimBatchedEval:
    """The batched evaluator prices a sweep with zero optimizer calls
    and the per-call numbers — the invariants of the retired
    ``bench_claim_batched_eval.py`` (exact equality is
    ``tests/test_kernel.py``'s; its speed is the ledger's
    ``evaluation.kernel.cells_per_s``)."""

    def test_batched_matches_per_call_with_zero_calls(self, sdss_catalog):
        configs = make_configs(10, seed=4)
        per_call = PerTextEvaluator(sdss_catalog)
        evaluator = WorkloadEvaluator(sdss_catalog)
        evaluator.warm_up(WORKLOAD)
        before = evaluator.precompute_calls
        totals = evaluator.workload_costs(WORKLOAD, configs)
        assert evaluator.precompute_calls == before
        for config, total in zip(configs, totals):
            assert total == pytest.approx(
                per_call.workload_cost(WORKLOAD, config), rel=1e-12
            )

    def test_pool_is_shared_across_designer_components(self, sdss_catalog):
        """The backplane property the tentpole exists for: one pool, many
        consumers, no duplicate cache builds."""
        from repro.designer import Designer

        designer = Designer(sdss_catalog)
        designer.evaluator.warm_up(WORKLOAD)
        built = designer.evaluator.precompute_calls
        designer.evaluate_design(WORKLOAD, indexes=[CANDIDATES[0], CANDIDATES[5]])
        rec = designer.recommend(
            WORKLOAD, storage_budget_pages=50_000, solver="greedy",
            partitions=False, schedule=False,
        )
        assert rec is not None
        # No designer component rebuilt a cache the pool already had.
        assert designer.evaluator.precompute_calls == built
        assert designer.evaluator.pool.stats.hits > 0


class TestClaimServiceThroughput:
    """The multi-tenant service dedupes cross-tenant work through the
    shared sharded backplane — fewer total cache builds than running
    each tenant alone — without changing any tenant's recommendations.
    (The wall-clock side is the ledger's ``online_ingest`` row; here we
    pin the mechanism via exact build accounting.)"""

    def _fleet(self):
        from repro.workloads import sdss_catalog as make_sdss
        from repro.workloads import tpch_catalog as make_tpch
        from repro.workloads.drift import (
            default_phases,
            drifting_stream,
            tpch_phases,
        )

        catalogs = {"sdss": make_sdss(scale=0.01), "tpch": make_tpch(scale=0.01)}
        mixes = {"sdss": (default_phases, 11), "tpch": (tpch_phases, 7)}

        def stream(key):
            phases_fn, seed = mixes[key]
            return drifting_stream(phases_fn(8), seed=seed)

        tenants = [
            ("astro-1", "sdss"), ("astro-2", "sdss"),
            ("dss-1", "tpch"), ("dss-2", "tpch"),
        ]
        return catalogs, tenants, stream

    @staticmethod
    def _options():
        from repro.colt import ColtSettings

        return dict(
            colt_settings=ColtSettings(
                epoch_length=6, space_budget_pages=50_000
            ),
            recommend_every=10,
            window=12,
        )

    @staticmethod
    def _outcome(session):
        return (
            session.status()["configuration"],
            [(r.trigger, r.indexes) for r in session.recommendations],
        )

    def test_service_dedupes_builds_with_identical_recommendations(self):
        from repro.evaluation import WorkloadEvaluator
        from repro.service import TenantSession, TuningService

        catalogs, tenants, stream = self._fleet()

        alone, alone_builds = {}, 0
        for name, key in tenants:
            evaluator = WorkloadEvaluator(catalogs[key])
            evaluator.warm_up([sql for __, sql in stream(key)])
            session = TenantSession(
                name, evaluator, **self._options()
            )
            drain(session, stream(key))
            alone[name] = session
            alone_builds += evaluator.pool.stats.optimizer_calls

        service = TuningService(shards=4)
        for key, catalog in catalogs.items():
            service.add_backplane(key, catalog)
        for name, key in tenants:
            service.add_tenant(name, key, **self._options())
        for key in catalogs:
            # Warmed from four threads: warm_targets dedupes the stream
            # first, so no two threads ever build one statement.
            threaded_warm_up(
                service.backplane(key).evaluator,
                [sql for __, sql in stream(key)],
            )
        service.run_scheduled({name: stream(key) for name, key in tenants})

        # Identical per-tenant outcomes: sharing never changes results.
        for name, __ in tenants:
            assert self._outcome(service.tenant(name)) == \
                self._outcome(alone[name]), name

        # Two tenants per stream -> the fleet builds each cache once,
        # i.e. exactly half the alone total, and warm-up did all of it.
        service_builds = sum(
            service.backplane(key).pool.stats.optimizer_calls
            for key in catalogs
        )
        assert service_builds * 2 == alone_builds

    def test_concurrent_warm_up_is_bit_identical_to_sequential(self):
        from repro.evaluation import ShardedInumCachePool, WorkloadEvaluator
        from repro.workloads import sdss_workload

        catalogs, __, ___ = self._fleet()
        workload = sdss_workload(n_queries=16, seed=5, write_fraction=0.2)
        sequential = WorkloadEvaluator(catalogs["sdss"])
        concurrent = WorkloadEvaluator(
            catalogs["sdss"], pool=ShardedInumCachePool(shards=4)
        )
        calls_seq = sequential.warm_up(workload)
        calls_par = threaded_warm_up(concurrent, workload, threads=4)
        assert calls_seq == calls_par
        configs = [
            Configuration.empty(),
            Configuration(indexes=frozenset({Index("photoobj", ("ra",))})),
            Configuration(
                indexes=frozenset(
                    {Index("photoobj", ("type",)),
                     Index("specobj", ("bestobjid",))}
                )
            ),
        ]
        for config in configs:
            assert sequential.workload_cost(workload, config) == \
                concurrent.workload_cost(workload, config)
