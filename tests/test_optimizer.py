"""Optimizer tests: plan shapes, cost-model behaviour, GUC toggles."""

import pytest

from repro.catalog import HorizontalPartitioning, Index, VerticalFragment, VerticalLayout
from repro.optimizer import CostService, PlannerSettings
from repro.optimizer.paths import mackert_lohman_pages
from repro.sql import bind_sql


@pytest.fixture
def svc(sdss_catalog):
    return CostService(sdss_catalog)


@pytest.fixture
def svc_ix(sdss_with_indexes):
    return CostService(sdss_with_indexes)


def node_types(plan):
    return [n.node_type for n in plan.walk()]


class TestScanChoice:
    def test_no_index_means_seqscan(self, svc):
        plan = svc.plan("SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 11")
        assert plan.node_type == "SeqScan"

    def test_selective_predicate_uses_index(self, svc_ix):
        plan = svc_ix.plan("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 10.5")
        assert "IndexScan" in node_types(plan) or "IndexOnlyScan" in node_types(plan)

    def test_wide_predicate_prefers_seqscan(self, svc_ix):
        plan = svc_ix.plan("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 0 AND 350")
        assert plan.node_type == "SeqScan"

    def test_index_only_scan_when_covered(self, svc_ix):
        plan = svc_ix.plan("SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 11")
        assert plan.node_type == "IndexOnlyScan"

    def test_uncorrelated_medium_selectivity_prefers_bitmap(self, sdss_catalog):
        catalog = sdss_catalog.clone()
        catalog.add_index(Index("photoobj", ("dec",)))  # dec has correlation 0
        svc = CostService(catalog)
        plan = svc.plan("SELECT ra, dec FROM photoobj WHERE dec BETWEEN 0 AND 4")
        assert plan.node_type == "BitmapHeapScan"

    def test_equality_on_indexed_column(self, svc_ix):
        plan = svc_ix.plan("SELECT ra, rmag FROM photoobj WHERE objid = 123")
        assert plan.node_type in ("IndexScan", "BitmapHeapScan")
        assert plan.rows == pytest.approx(1.0, abs=1.0)


class TestCostMonotonicity:
    def test_adding_index_never_increases_cost(self, sdss_catalog):
        queries = [
            "SELECT ra FROM photoobj WHERE ra BETWEEN 5 AND 6",
            "SELECT ra, rmag FROM photoobj WHERE rmag < 14",
            "SELECT p.ra, s.z FROM photoobj p, specobj s WHERE p.objid = s.objid AND s.z > 6.9",
        ]
        base = CostService(sdss_catalog)
        richer = sdss_catalog.clone()
        richer.add_index(Index("photoobj", ("ra",)))
        richer.add_index(Index("photoobj", ("objid",)))
        richer.add_index(Index("specobj", ("z",)))
        with_ix = CostService(richer)
        for q in queries:
            assert with_ix.cost(q) <= base.cost(q) + 1e-6

    def test_narrower_range_is_cheaper_with_index(self, svc_ix):
        narrow = svc_ix.cost("SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 11")
        wide = svc_ix.cost("SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 60")
        assert narrow < wide

    def test_mackert_lohman_bounds(self):
        assert mackert_lohman_pages(100, 0) == 0
        assert mackert_lohman_pages(100, 10**9) == 100
        assert 0 < mackert_lohman_pages(100, 50) <= 50


class TestJoinPlanning:
    def test_join_produces_two_scans(self, svc):
        plan = svc.plan(
            "SELECT p.ra, s.z FROM photoobj p, specobj s WHERE p.objid = s.objid"
        )
        kinds = node_types(plan)
        assert kinds[0] in ("HashJoin", "MergeJoin", "NestLoop")
        assert kinds.count("SeqScan") == 2

    def test_selective_outer_prefers_index_nestloop(self, sdss_catalog):
        catalog = sdss_catalog.clone()
        catalog.add_index(Index("photoobj", ("objid",)))
        catalog.add_index(Index("specobj", ("z",)))
        svc = CostService(catalog)
        plan = svc.plan(
            "SELECT p.ra, s.z FROM photoobj p, specobj s "
            "WHERE p.objid = s.objid AND s.z > 6.99"
        )
        kinds = node_types(plan)
        assert "NestLoop" in kinds
        assert any(
            n.node_type in ("IndexScan", "IndexOnlyScan") and n.is_parameterized
            for n in plan.walk()
        )

    def test_three_way_join_plans(self, sdss_catalog):
        svc = CostService(sdss_catalog)
        plan = svc.plan(
            "SELECT p.ra FROM photoobj p, specobj s, specobj s2 "
            "WHERE p.objid = s.objid AND s.specid = s2.specid"
        )
        assert sum(1 for k in node_types(plan) if "Join" in k or k == "NestLoop") == 2

    def test_cartesian_fallback(self, svc):
        plan = svc.plan("SELECT p.ra, s.z FROM photoobj p, specobj s LIMIT 1")
        assert plan is not None  # no join clause: planner must still succeed


class TestJoinControl:
    """The what-if join component: GUC toggles steer the join method."""

    JOIN_SQL = (
        "SELECT p.ra, s.z FROM photoobj p, specobj s WHERE p.objid = s.objid"
    )

    def test_disable_hashjoin_switches_method(self, sdss_catalog):
        base = CostService(sdss_catalog)
        assert base.plan(self.JOIN_SQL).node_type == "HashJoin"
        no_hash = CostService(
            sdss_catalog, PlannerSettings(enable_hashjoin=False)
        )
        assert no_hash.plan(self.JOIN_SQL).node_type != "HashJoin"

    def test_disabling_everything_still_plans(self, sdss_catalog):
        settings = PlannerSettings(
            enable_hashjoin=False, enable_mergejoin=False, enable_nestloop=False
        )
        plan = CostService(sdss_catalog, settings).plan(self.JOIN_SQL)
        assert plan is not None

    def test_force_mergejoin(self, sdss_catalog):
        settings = PlannerSettings(enable_hashjoin=False, enable_nestloop=False)
        plan = CostService(sdss_catalog, settings).plan(self.JOIN_SQL)
        assert "MergeJoin" in node_types(plan)


class TestGroupingAndOrdering:
    def test_group_by_adds_aggregate(self, svc):
        plan = svc.plan("SELECT type, count(*) FROM photoobj GROUP BY type")
        assert plan.node_type == "Aggregate"

    def test_order_by_satisfied_by_index_avoids_sort(self, svc_ix):
        plan = svc_ix.plan("SELECT ra FROM photoobj WHERE ra > 359 ORDER BY ra")
        assert "Sort" not in node_types(plan)

    def test_order_by_without_index_sorts(self, svc):
        plan = svc.plan("SELECT ra FROM photoobj WHERE ra > 359 ORDER BY ra")
        assert "Sort" in node_types(plan)

    def test_limit_reduces_total_cost(self, svc):
        full = svc.plan("SELECT ra FROM photoobj")
        limited = svc.plan("SELECT ra FROM photoobj LIMIT 10")
        assert limited.total_cost < full.total_cost

    def test_plain_aggregate_single_row(self, svc):
        plan = svc.plan("SELECT count(*) FROM photoobj")
        assert plan.rows == 1.0


class TestPartitionAwarePlanning:
    def test_horizontal_pruning_cuts_cost(self, sdss_catalog):
        catalog = sdss_catalog.clone()
        catalog.set_horizontal_partitioning(
            HorizontalPartitioning("photoobj", "ra", tuple(float(x) for x in range(30, 360, 30)))
        )
        svc_part = CostService(catalog)
        svc_base = CostService(sdss_catalog)
        sql = "SELECT rmag FROM photoobj WHERE ra BETWEEN 100 AND 110"
        assert svc_part.cost(sql) < svc_base.cost(sql)
        plan = svc_part.plan(sql)
        assert plan.node_type == "AppendScan"
        assert plan.partitions_scanned < plan.partitions_total

    def test_vertical_layout_cuts_narrow_scan_cost(self, sdss_catalog):
        catalog = sdss_catalog.clone()
        table = catalog.table("photoobj")
        layout = VerticalLayout(
            "photoobj",
            (
                VerticalFragment("photoobj", ("objid", "ra", "dec")),
                VerticalFragment(
                    "photoobj", ("rmag", "gmag", "type", "flags", "status")
                ),
            ),
        )
        catalog.set_vertical_layout(layout)
        svc_part = CostService(catalog)
        svc_base = CostService(sdss_catalog)
        sql = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 0 AND 300"
        assert svc_part.cost(sql) < svc_base.cost(sql)
        assert svc_part.plan(sql).node_type == "FragmentScan"

    def test_vertical_scan_spanning_fragments_stitches(self, sdss_catalog):
        catalog = sdss_catalog.clone()
        layout = VerticalLayout(
            "photoobj",
            (
                VerticalFragment("photoobj", ("objid", "ra")),
                VerticalFragment(
                    "photoobj", ("dec", "rmag", "gmag", "type", "flags", "status")
                ),
            ),
        )
        catalog.set_vertical_layout(layout)
        plan = CostService(catalog).plan("SELECT ra, rmag FROM photoobj")
        assert plan.node_type == "FragmentScan"
        assert len(plan.fragments) == 2


class TestServicePlumbing:
    def test_plan_cache_counts_once(self, svc):
        before = svc.optimizer_calls
        svc.cost("SELECT ra FROM photoobj")
        svc.cost("SELECT ra FROM photoobj")
        assert svc.optimizer_calls - before == 1

    def test_with_catalog_shares_counter(self, sdss_catalog):
        svc = CostService(sdss_catalog)
        other = svc.with_catalog(sdss_catalog.clone())
        svc.cost("SELECT ra FROM photoobj")
        other.cost("SELECT dec FROM photoobj")
        assert svc.optimizer_calls == 2

    def test_workload_cost_weighted(self, svc):
        q = "SELECT ra FROM photoobj"
        single = svc.cost(q)
        assert svc.workload_cost([(q, 3.0)]) == pytest.approx(3 * single)

    def test_explain_renders(self, svc_ix):
        text = svc_ix.explain("SELECT ra FROM photoobj WHERE ra BETWEEN 1 AND 2")
        assert "cost=" in text and "rows=" in text
