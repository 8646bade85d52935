"""Cross-module integration tests: the full pipeline, verified end to end.

The chain under test: workload generator -> binder -> optimizer -> INUM ->
CoPhy -> interaction scheduling -> what-if materialization, with the
executor double-checking semantics on generated data where feasible.
"""

import pytest

from repro.catalog import Catalog, Column, DataType, Distribution, Index, Table
from repro.cophy import CoPhyAdvisor
from repro.designer import Designer
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.util import DesignError
from repro.whatif import Configuration
from repro.workloads import Workload, sdss_catalog, sdss_workload, tpch_catalog, tpch_workload

from datagen import generate_database
from executor import run_query


class TestSdssPipeline:
    @pytest.fixture(scope="class")
    def env(self):
        catalog = sdss_catalog(scale=0.05)
        workload = sdss_workload(n_queries=15, seed=42)
        return catalog, workload

    def test_recommend_then_materialize_then_costs_drop(self, env):
        catalog, workload = env
        designer = Designer(catalog)
        budget = sum(t.pages for t in catalog.tables) // 3
        rec = designer.recommend(workload, storage_budget_pages=budget,
                                 partitions=False)
        new_catalog, build_cost = designer.materialize(
            rec.combined_configuration
        )
        before = CostService(catalog).workload_cost(workload)
        after = CostService(new_catalog).workload_cost(workload)
        assert after < before
        assert after == pytest.approx(rec.combined_workload_cost, rel=0.05)
        assert build_cost > 0

    def test_recommended_indexes_actually_used_by_plans(self, env):
        catalog, workload = env
        designer = Designer(catalog)
        budget = sum(t.pages for t in catalog.tables) // 3
        rec = designer.recommend(workload, storage_budget_pages=budget,
                                 partitions=False)
        service = CostService(rec.combined_configuration.apply(catalog))
        used = set()
        for sql, __ in workload:
            used |= {ix.name for ix in service.plan(sql).indexes_used()}
        recommended = {ix.name for ix in rec.index_recommendation.indexes}
        assert recommended & used, "at least some recommended indexes in plans"

    def test_suggest_drops_flags_unused_index(self, env):
        catalog, workload = env
        cluttered = catalog.clone()
        useless = Index("photoobj", ("skyversion", "camcol"))
        cluttered.add_index(useless)
        designer = Designer(cluttered)
        drops = designer.suggest_drops(workload)
        assert useless in [ix for ix, __ in drops]

    def test_suggest_drops_keeps_used_index(self, env):
        catalog, workload = env
        useful_catalog = catalog.clone()
        useful = Index("photoobj", ("ra",))
        useful_catalog.add_index(useful)
        designer = Designer(useful_catalog)
        drops = designer.suggest_drops(workload)
        assert useful not in [ix for ix, __ in drops]

    def test_suggest_drops_requires_workload(self, env):
        catalog, __ = env
        with pytest.raises(DesignError):
            Designer(catalog).suggest_drops([])


class TestTpchPipeline:
    def test_full_designer_flow(self):
        catalog = tpch_catalog(scale=0.02)
        workload = tpch_workload(n_queries=10, seed=7)
        designer = Designer(catalog)
        budget = sum(t.pages for t in catalog.tables) // 2
        rec = designer.recommend(workload, storage_budget_pages=budget)
        assert rec.combined_workload_cost <= rec.base_workload_cost
        evaluation = designer.evaluate_design(
            workload, indexes=rec.index_recommendation.indexes
        )
        assert evaluation.report.average_improvement_pct >= 0


class TestExecutorBackedRecommendation:
    """Recommend on a small executable catalog and verify the recommended
    configuration changes plans but never changes results."""

    @pytest.fixture(scope="class")
    def env(self):
        catalog = Catalog()
        catalog.add_table(
            Table(
                "events",
                [
                    Column("id", DataType.INT, Distribution(kind="sequence")),
                    Column("kind", DataType.INT,
                           Distribution(kind="uniform_int", low=0, high=19)),
                    Column("value", DataType.DOUBLE,
                           Distribution(kind="uniform", low=0.0, high=1000.0)),
                    Column("day", DataType.INT,
                           Distribution(kind="uniform_int", low=0, high=364,
                                        correlation=0.95)),
                ],
                row_count=4000,
            ).build_stats()
        )
        workload = Workload(
            [
                "SELECT id, value FROM events WHERE kind = 3 AND value < 100",
                "SELECT id FROM events WHERE day BETWEEN 100 AND 110",
                "SELECT kind, COUNT(*) FROM events WHERE day > 300 GROUP BY kind",
                "SELECT id FROM events WHERE kind = 7",
            ]
        )
        database = generate_database(catalog, seed=11)
        return catalog, workload, database

    def test_recommendation_preserves_results(self, env):
        catalog, workload, database = env
        advisor = CoPhyAdvisor(WorkloadEvaluator(catalog))
        rec = advisor.recommend(workload, budget_pages=10_000)
        assert rec.indexes, "this workload clearly wants indexes"
        tuned = rec.configuration.apply(catalog)
        for sql, __ in workload:
            __, base_rows = run_query(sql, catalog, database)
            plan, tuned_rows = run_query(sql, tuned, database)
            assert sorted(map(repr, base_rows)) == sorted(map(repr, tuned_rows))

    def test_plans_change_shape_under_recommendation(self, env):
        catalog, workload, database = env
        advisor = CoPhyAdvisor(WorkloadEvaluator(catalog))
        rec = advisor.recommend(workload, budget_pages=10_000)
        tuned = rec.configuration.apply(catalog)
        base_kinds = [
            run_query(sql, catalog, database)[0].node_type for sql, __ in workload
        ]
        tuned_kinds = [
            run_query(sql, tuned, database)[0].node_type for sql, __ in workload
        ]
        assert base_kinds != tuned_kinds

    def test_inum_agrees_with_optimizer_on_recommended_config(self, env):
        catalog, workload, __ = env
        inum = WorkloadEvaluator(catalog)
        advisor = CoPhyAdvisor(inum)
        rec = advisor.recommend(workload, budget_pages=10_000)
        real = CostService(rec.configuration.apply(catalog)).workload_cost(workload)
        assert inum.workload_cost(workload, rec.configuration) == pytest.approx(
            real, rel=0.02
        )


class TestConfigurationRoundTrips:
    def test_apply_then_size_accounting(self):
        catalog = sdss_catalog(scale=0.02)
        config = Configuration.of(
            Index("photoobj", ("ra",)), Index("specobj", ("z",))
        )
        overlay = config.apply(catalog)
        assert overlay.design_size_pages() == sum(
            ix.size_pages(catalog.table(ix.table_name))
            for ix in config.indexes)

    def test_double_apply_is_idempotent(self):
        catalog = sdss_catalog(scale=0.02)
        config = Configuration.of(Index("photoobj", ("ra",)))
        once = config.apply(catalog)
        twice = config.apply(once)
        assert len(twice.indexes) == len(once.indexes)
