"""Tests for the AutoPart partition advisor and query rewriting."""

import pytest

from repro.autopart import AutoPartAdvisor, rewrite_for_layout
from repro.catalog import VerticalFragment, VerticalLayout
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.optimizer import paths as P
from repro.util import DesignError
from repro.workloads import (
    sdss_catalog as full_sdss_catalog,
    sdss_workload,
    tpch_catalog,
    tpch_workload,
)

from oracle import ScalarAutoPartAdvisor
from test_evaluator_equivalence import make_env

# Queries touching small, distinct column subsets of the wide table —
# AutoPart's sweet spot.
WORKLOAD = [
    ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 30", 1.0),
    ("SELECT rmag, gmag FROM photoobj WHERE rmag < 20", 1.0),
    ("SELECT ra, dec FROM photoobj WHERE dec > 50", 1.0),
    ("SELECT z FROM specobj WHERE z BETWEEN 1 AND 2", 1.0),
]


@pytest.fixture
def advisor(sdss_catalog):
    return AutoPartAdvisor(WorkloadEvaluator(sdss_catalog))


class TestVerticalRecommendation:
    def test_layout_improves_workload(self, advisor):
        rec = advisor.recommend(WORKLOAD, horizontal=False)
        assert rec.predicted_workload_cost < rec.base_workload_cost
        assert "photoobj" in rec.layouts

    def test_layout_covers_all_columns(self, advisor, sdss_catalog):
        rec = advisor.recommend(WORKLOAD, horizontal=False)
        for layout in rec.configuration.layouts:
            layout.validate_covers(sdss_catalog.table(layout.table_name))

    def test_hot_columns_grouped(self, advisor):
        rec = advisor.recommend(WORKLOAD, horizontal=False)
        layout = rec.layouts["photoobj"]
        frag_of = {}
        for frag in layout.fragments:
            for col in frag.columns:
                frag_of[col] = frag
        # ra and dec are always read together.
        assert frag_of["ra"] is frag_of["dec"]
        # cold columns do not share the hot fragment
        assert frag_of["flags"] is not frag_of["ra"]

    def test_predicted_cost_close_to_optimizer(self, advisor, sdss_catalog):
        rec = advisor.recommend(WORKLOAD, horizontal=False)
        real = CostService(rec.configuration.apply(sdss_catalog)).workload_cost(
            WORKLOAD
        )
        assert rec.predicted_workload_cost == pytest.approx(real, rel=0.05)

    def test_replication_budget_respected(self, advisor, sdss_catalog):
        rec = advisor.recommend(
            WORKLOAD, replication_budget_pages=100_000, horizontal=False
        )
        extra = sum(
            l.replication_pages(sdss_catalog.table(l.table_name))
            for l in rec.configuration.layouts
        )
        assert extra <= 100_000


class TestHorizontalRecommendation:
    def test_range_partitioning_suggested(self, advisor):
        rec = advisor.recommend(WORKLOAD, vertical=False, horizontal=True)
        assert rec.horizontals  # predicates on ra/dec/z allow pruning
        for horizontal in rec.configuration.horizontals:
            assert horizontal.partition_count >= 2

    def test_partitioning_improves_cost(self, advisor):
        rec = advisor.recommend(WORKLOAD, vertical=False, horizontal=True)
        assert rec.predicted_workload_cost < rec.base_workload_cost


class TestRecommendationOutput:
    def test_per_query_benefits_reported(self, advisor):
        rec = advisor.recommend(WORKLOAD)
        assert len(rec.per_query) == len(WORKLOAD)
        for __, base, new in rec.per_query:
            assert new <= base + 1e-6

    def test_text_rendering(self, advisor):
        rec = advisor.recommend(WORKLOAD)
        text = rec.to_text()
        assert "Suggested partitions" in text and "workload:" in text

    def test_empty_workload_rejected(self, advisor):
        with pytest.raises(DesignError):
            advisor.recommend([])

    def test_negative_budget_rejected(self, advisor):
        with pytest.raises(DesignError):
            advisor.recommend(WORKLOAD, replication_budget_pages=-1)


class TestQueryRewriting:
    def make_layout(self):
        return VerticalLayout(
            "photoobj",
            (
                VerticalFragment("photoobj", ("objid", "ra", "dec")),
                VerticalFragment(
                    "photoobj",
                    ("rmag", "gmag", "type", "flags", "status"),
                ),
            ),
        )

    def test_single_fragment_query(self, sdss_catalog):
        sql = "SELECT ra, dec FROM photoobj WHERE ra < 100"
        rewritten = rewrite_for_layout(
            sql, sdss_catalog, {"photoobj": self.make_layout()}
        )
        assert "photoobj__objid_ra_dec" in rewritten
        assert "rid" not in rewritten  # one fragment: no stitch join

    def test_spanning_query_stitches(self, sdss_catalog):
        sql = "SELECT ra, rmag FROM photoobj WHERE dec > 0"
        rewritten = rewrite_for_layout(
            sql, sdss_catalog, {"photoobj": self.make_layout()}
        )
        assert ".rid = " in rewritten
        assert rewritten.count("photoobj__") >= 2

    def test_join_query_keeps_other_table(self, sdss_catalog):
        sql = (
            "SELECT p.ra, s.z FROM photoobj p, specobj s "
            "WHERE p.objid = s.objid AND s.z > 6"
        )
        rewritten = rewrite_for_layout(
            sql, sdss_catalog, {"photoobj": self.make_layout()}
        )
        assert "specobj s" in rewritten
        assert "= s.objid" in rewritten or "s.objid =" in rewritten

    def test_group_order_limit_preserved(self, sdss_catalog):
        sql = (
            "SELECT type, COUNT(*) FROM photoobj WHERE rmag < 20 "
            "GROUP BY type ORDER BY type LIMIT 3"
        )
        rewritten = rewrite_for_layout(
            sql, sdss_catalog, {"photoobj": self.make_layout()}
        )
        assert "GROUP BY" in rewritten and "LIMIT 3" in rewritten

    def test_table_without_layout_untouched(self, sdss_catalog):
        sql = "SELECT z FROM specobj WHERE z > 1"
        rewritten = rewrite_for_layout(
            sql, sdss_catalog, {"photoobj": self.make_layout()}
        )
        assert "specobj" in rewritten and "__" not in rewritten


# ----------------------------------------------------------------------
# The search runs on the evaluation backplane: kernel delta batches over
# cover-keyed slot pricing.  The scalar search it replaced is the oracle.
# ----------------------------------------------------------------------


def assert_same_recommendation(catalog, workload, **knobs):
    """Backplane search == scalar oracle, field by field, exactly.  The
    oracle prices per call on an evaluator of its own (a different slot
    memo, no kernel), so nothing is shared but the cost model."""
    shipped = AutoPartAdvisor(WorkloadEvaluator(catalog)).recommend(
        workload, **knobs
    )
    reference = ScalarAutoPartAdvisor(WorkloadEvaluator(catalog)).recommend(
        workload, **knobs
    )
    assert shipped.configuration == reference.configuration
    assert shipped.merge_log == reference.merge_log
    assert shipped.base_workload_cost == reference.base_workload_cost
    assert shipped.predicted_workload_cost == reference.predicted_workload_cost
    assert shipped.per_query == reference.per_query
    assert shipped.replication_pages == reference.replication_pages
    return shipped


class TestBackplaneSearchEqualsScalarOracle:
    def test_sdss(self):
        catalog = full_sdss_catalog(scale=0.05)
        rec = assert_same_recommendation(
            catalog, list(sdss_workload(n_queries=30, seed=3))
        )
        assert any(line.startswith("round") for line in rec.merge_log)

    def test_tpch(self):
        catalog = tpch_catalog(scale=0.05)
        rec = assert_same_recommendation(
            catalog, list(tpch_workload(n_queries=20, seed=4))
        )
        assert rec.merge_log

    def test_mixed_write_workload_with_non_unit_weights(self):
        catalog = full_sdss_catalog(scale=0.05)
        workload = list(sdss_workload(
            n_queries=20, seed=5, write_fraction=0.3, write_weight=5
        ))
        assert len({weight for __, weight in workload}) > 1
        assert_same_recommendation(catalog, workload)

    @pytest.mark.parametrize("budget", [2_000, 100_000])
    def test_positive_replication_budget(self, sdss_catalog, budget):
        assert_same_recommendation(
            sdss_catalog,
            WORKLOAD + [("SELECT ra, rmag FROM photoobj WHERE dec > 80", 2.0)],
            replication_budget_pages=budget,
        )

    def test_an_accepted_replica(self):
        # The set cover prefers narrow exact fragments, so replicas are
        # rarely accepted; this fuzzed environment accepts one when the
        # merge phase is cut short.
        catalog, workload, __ = make_env(5, write_fraction=0.2)
        rec = assert_same_recommendation(
            catalog, workload, replication_budget_pages=10**7,
            max_merge_rounds=2,
        )
        assert any(line.startswith("replicate") for line in rec.merge_log)

    @pytest.mark.parametrize("vertical, horizontal",
                             [(True, False), (False, True)])
    def test_each_phase_alone(self, sdss_catalog, vertical, horizontal):
        assert_same_recommendation(
            sdss_catalog, WORKLOAD, vertical=vertical, horizontal=horizontal
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_fuzzed_catalogs(self, seed):
        catalog, workload, __ = make_env(seed, write_fraction=0.2)
        assert_same_recommendation(
            catalog, workload, replication_budget_pages=5_000 * (seed % 3)
        )


class TestBackplaneIsRequired:
    def test_search_never_walks_the_scalar_path(self, sdss_catalog, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scalar workload_cost walk in the search")

        monkeypatch.setattr(WorkloadEvaluator, "workload_cost", forbidden)
        monkeypatch.setattr(WorkloadEvaluator, "cost", forbidden)
        rec = AutoPartAdvisor(WorkloadEvaluator(sdss_catalog)).recommend(
            WORKLOAD, replication_budget_pages=50_000
        )
        assert rec.merge_log

    def test_contexts_built_at_most_once_per_distinct_cover(self, monkeypatch):
        """The count guard: a merge round re-prices only references whose
        cover changed, so over a whole run ``_build_context`` runs at most
        once per distinct (statement, alias, cover, partitioning) — not
        once per (reference, candidate layout)."""
        catalog = full_sdss_catalog(scale=0.05)
        workload = list(sdss_workload(n_queries=30, seed=3))
        built = []
        covers = set()
        layouts = set()
        real_build, real_cover = P._build_context, P.layout_cover

        def counting_build(bq, alias, cover, horizontal):
            built.append((bq.sql, alias, cover and cover[0], horizontal))
            return real_build(bq, alias, cover, horizontal)

        def counting_cover(bq, alias, layout):
            entry = real_cover(bq, alias, layout)
            covers.add((bq.sql, alias, entry[0]))
            layouts.add((bq.sql, alias, layout))
            return entry

        monkeypatch.setattr(P, "_build_context", counting_build)
        monkeypatch.setattr(P, "layout_cover", counting_cover)
        evaluator = WorkloadEvaluator(catalog)
        evaluator.warm_up(workload)
        built.clear()  # the INUM builds price the base design only
        AutoPartAdvisor(evaluator).recommend(
            workload, horizontal=False
        )
        assert built and len(built) == len(set(built))
        assert len(built) <= len(covers)
        # ... and the covers are far fewer than the layouts tried.
        assert len(covers) * 3 < len(layouts)
