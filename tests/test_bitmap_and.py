"""Tests for BitmapAnd: multi-index intersection scans."""

import pytest

from repro.catalog import Catalog, Column, DataType, Distribution, Index, Table
from repro.evaluation import WorkloadEvaluator
from repro.interaction import InteractionAnalyzer
from repro.optimizer import CostService, PlannerSettings
from repro.whatif import Configuration

from datagen import generate_database
from executor import run_query


def node_types(plan):
    return [n.node_type for n in plan.walk()]


@pytest.fixture
def two_index_catalog(sdss_catalog):
    catalog = sdss_catalog.clone()
    catalog.add_index(Index("photoobj", ("dec",)))
    catalog.add_index(Index("photoobj", ("rmag",)))
    return catalog


AND_SQL = "SELECT ra FROM photoobj WHERE dec BETWEEN 0 AND 3 AND rmag < 15.5"


class TestPlanChoice:
    def test_two_medium_predicates_pick_bitmap_and(self, two_index_catalog):
        plan = CostService(two_index_catalog).plan(AND_SQL)
        assert plan.node_type == "BitmapAndScan"
        assert len(plan.indexes) == 2

    def test_and_beats_single_index(self, sdss_catalog, two_index_catalog):
        single = sdss_catalog.clone()
        single.add_index(Index("photoobj", ("dec",)))
        assert (
            CostService(two_index_catalog).cost(AND_SQL)
            < CostService(single).cost(AND_SQL)
        )

    def test_disable_bitmapscan_disables_and(self, two_index_catalog):
        svc = CostService(two_index_catalog, PlannerSettings(enable_bitmapscan=False))
        assert svc.plan(AND_SQL).node_type != "BitmapAndScan"

    def test_same_column_indexes_do_not_combine(self, sdss_catalog):
        catalog = sdss_catalog.clone()
        catalog.add_index(Index("photoobj", ("dec",)))
        catalog.add_index(Index("photoobj", ("dec", "rmag")))
        plan = CostService(catalog).plan(
            "SELECT ra FROM photoobj WHERE dec BETWEEN 0 AND 10"
        )
        assert plan.node_type != "BitmapAndScan"

    def test_indexes_used_reports_both_arms(self, two_index_catalog):
        plan = CostService(two_index_catalog).plan(AND_SQL)
        assert len(plan.indexes_used()) == 2


class TestInumWithBitmapAnd:
    def test_exactness_preserved(self, sdss_catalog):
        config = Configuration.of(
            Index("photoobj", ("dec",)), Index("photoobj", ("rmag",))
        )
        inum = WorkloadEvaluator(sdss_catalog)
        real = CostService(config.apply(sdss_catalog)).cost(AND_SQL)
        assert inum.cost(AND_SQL, config) == pytest.approx(real, rel=0.01)

    def test_usage_reports_both(self, sdss_catalog):
        config = Configuration.of(
            Index("photoobj", ("dec",)), Index("photoobj", ("rmag",))
        )
        inum = WorkloadEvaluator(sdss_catalog)
        __, used = inum.cost_with_usage(AND_SQL, config)
        assert used == config.indexes


class TestSynergyInteraction:
    def test_and_arms_interact_positively(self, sdss_catalog):
        """Two single-column indexes that only pay off together produce a
        nonzero degree of interaction — synergy, not just subsumption."""
        workload = [(AND_SQL, 1.0)]
        analyzer = InteractionAnalyzer(WorkloadEvaluator(sdss_catalog), workload)
        dec_ix = Index("photoobj", ("dec",))
        rmag_ix = Index("photoobj", ("rmag",))
        doi = analyzer.doi(dec_ix, rmag_ix, [dec_ix, rmag_ix])
        assert doi > 0.01


class TestExecutorBitmapAnd:
    @pytest.fixture
    def env(self):
        catalog = Catalog()
        catalog.add_table(
            Table(
                "t",
                [
                    Column("id", DataType.INT, Distribution(kind="sequence")),
                    Column("x", DataType.INT,
                           Distribution(kind="uniform_int", low=0, high=19)),
                    Column("y", DataType.INT,
                           Distribution(kind="uniform_int", low=0, high=19)),
                    Column("z", DataType.DOUBLE,
                           Distribution(kind="uniform", low=0.0, high=1.0)),
                ],
                row_count=4000,
            ).build_stats()
        )
        database = generate_database(catalog, seed=4)
        indexed = catalog.clone()
        indexed.add_index(Index("t", ("x",)))
        indexed.add_index(Index("t", ("y",)))
        return catalog, indexed, database

    def test_results_match_seqscan(self, env):
        catalog, indexed, database = env
        sql = "SELECT id FROM t WHERE x BETWEEN 2 AND 5 AND y BETWEEN 3 AND 6"
        plan, rows = run_query(sql, indexed, database)
        __, expected = run_query(sql, catalog, database)
        assert sorted(rows) == sorted(expected)

    def test_residual_filters_applied(self, env):
        catalog, indexed, database = env
        sql = (
            "SELECT id FROM t WHERE x BETWEEN 2 AND 5 AND y BETWEEN 3 AND 6 "
            "AND z < 0.5"
        )
        __, rows = run_query(sql, indexed, database)
        __, expected = run_query(sql, catalog, database)
        assert sorted(rows) == sorted(expected)
