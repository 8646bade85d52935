"""Tests for the Designer facade: the three demo scenarios end to end."""

import pytest

from repro.catalog import Index, VerticalFragment, VerticalLayout
from repro.colt import ColtSettings
from repro.designer import Designer
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.util import DesignError
from repro.workloads.drift import DriftPhase, drifting_stream
from repro.workloads import sdss

WORKLOAD = [
    ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12", 1.0),
    ("SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1", 1.0),
    ("SELECT p.ra, s.z FROM photoobj p, specobj s "
     "WHERE p.objid = s.objid AND s.z > 6.5", 1.0),
    ("SELECT ra, dec FROM photoobj WHERE dec > 80", 1.0),
]


@pytest.fixture
def designer(sdss_catalog):
    return Designer(sdss_catalog)


class TestScenario1:
    def test_evaluate_user_design(self, designer):
        evaluation = designer.evaluate_design(
            WORKLOAD,
            indexes=[Index("photoobj", ("ra",)), Index("photoobj", ("ra", "dec"))],
        )
        assert evaluation.report.average_improvement_pct > 0
        assert evaluation.interaction_graph is not None
        assert "What-if evaluation" in evaluation.to_text()

    def test_single_index_skips_graph(self, designer):
        evaluation = designer.evaluate_design(
            WORKLOAD, indexes=[Index("photoobj", ("ra",))]
        )
        assert evaluation.interaction_graph is None

    def test_partition_design_produces_rewrites(self, designer):
        layout = VerticalLayout(
            "photoobj",
            (
                VerticalFragment("photoobj", ("objid", "ra", "dec")),
                VerticalFragment(
                    "photoobj",
                    ("rmag", "gmag", "type", "flags", "status"),
                ),
            ),
        )
        evaluation = designer.evaluate_design(WORKLOAD, layouts=[layout])
        assert evaluation.rewritten_queries
        assert any("photoobj__" in sql for sql in evaluation.rewritten_queries)

    def test_only_statements_reading_a_relaid_table_are_rewritten(self):
        """One ``specobj`` layout on the SDSS-50 workload: the rewriter
        re-renders SQL, so every statement's text changes, but only the
        13 that reference ``specobj`` were rewritten for new partitions."""
        from repro.sql.binder import bind_statement
        from repro.workloads import sdss_catalog, sdss_workload

        catalog = sdss_catalog(scale=0.05)
        workload = list(sdss_workload(50, seed=42))
        columns = catalog.table("specobj").column_names
        layout = VerticalLayout(
            "specobj",
            (
                VerticalFragment("specobj", tuple(columns[:2])),
                VerticalFragment("specobj", tuple(columns[2:])),
            ),
        )
        reading = [
            sql for sql, __ in workload
            if any(
                t.name == "specobj"
                for t in getattr(bind_statement(sql, catalog), "tables", {}).values()
            )
        ]
        assert len(workload) == 50 and len(reading) == 13
        evaluation = Designer(catalog).evaluate_design(workload, layouts=[layout])
        assert len(evaluation.rewritten_queries) == 13
        assert all("specobj__" in sql for sql in evaluation.rewritten_queries)

    def test_untouched_statement_is_never_listed(self, designer):
        layout = VerticalLayout(
            "specobj",
            (
                VerticalFragment("specobj", ("objid", "z")),
                VerticalFragment("specobj", ("specid", "zerr", "class")),
            ),
        )
        evaluation = designer.evaluate_design(WORKLOAD, layouts=[layout])
        # Only the join reads specobj; the three photoobj-only
        # statements re-render to different text but are not rewrites.
        assert len(evaluation.rewritten_queries) == 1
        assert "specobj__" in evaluation.rewritten_queries[0]

    def test_empty_workload_rejected(self, designer):
        with pytest.raises(DesignError):
            designer.evaluate_design([], indexes=[Index("photoobj", ("ra",))])


class TestScenario2:
    def test_recommendation_improves_workload(self, designer):
        rec = designer.recommend(WORKLOAD, storage_budget_pages=20_000)
        assert rec.combined_workload_cost < rec.base_workload_cost
        assert rec.improvement_pct > 0

    def test_budget_respected(self, designer, sdss_catalog):
        rec = designer.recommend(WORKLOAD, storage_budget_pages=8_000)
        assert rec.index_recommendation.size_pages <= 8_000

    def test_schedule_present_for_multi_index(self, designer):
        rec = designer.recommend(WORKLOAD, storage_budget_pages=30_000)
        if len(rec.index_recommendation.indexes) >= 2:
            assert rec.schedule is not None
            assert rec.naive_schedule is not None
            assert rec.schedule.area <= rec.naive_schedule.area + 1e-6

    def test_combined_cost_verified_by_optimizer(self, designer, sdss_catalog):
        rec = designer.recommend(
            WORKLOAD, storage_budget_pages=20_000, partitions=False
        )
        real = CostService(
            rec.combined_configuration.apply(sdss_catalog)
        ).workload_cost(WORKLOAD)
        assert rec.combined_workload_cost == pytest.approx(real, rel=0.05)

    def test_seed_indexes_steer_search(self, designer):
        seed = Index("photoobj", ("dec",))
        rec = designer.recommend(
            WORKLOAD, storage_budget_pages=100_000, seed_indexes=[seed]
        )
        assert rec is not None  # seed accepted without error

    def test_to_text_sections(self, designer):
        rec = designer.recommend(WORKLOAD, storage_budget_pages=20_000)
        text = rec.to_text()
        assert "Recommended indexes" in text
        assert "combined design" in text


class TestScenario3:
    def test_continuous_tuning_reports(self, designer):
        phases = (DriftPhase("pos", 30, ((sdss.template("cone_search"), 1.0),)),)
        report = designer.continuous(
            drifting_stream(phases, seed=3),
            ColtSettings(epoch_length=10, space_budget_pages=100_000),
        )
        assert len(report.epochs) == 3
        assert report.alerts >= 1

    def test_manual_tuner_keeps_alert_pending(self, designer):
        tuner = designer.continuous_tuner(
            ColtSettings(epoch_length=10, auto_adopt=False)
        )
        phases = (DriftPhase("pos", 20, ((sdss.template("cone_search"), 1.0),)),)
        for __, sql in drifting_stream(phases, seed=3):
            tuner.observe(sql)
        tuner.flush()
        assert tuner.pending_alert is not None


class TestMaterialize:
    def test_materialize_returns_new_catalog(self, designer, sdss_catalog):
        rec = designer.recommend(WORKLOAD, storage_budget_pages=20_000,
                                 partitions=False)
        new_catalog, build_cost = designer.materialize(rec.combined_configuration)
        assert build_cost > 0
        for ix in rec.index_recommendation.indexes:
            assert new_catalog.has_index(ix)
        assert not sdss_catalog.has_index(rec.index_recommendation.indexes[0])


class TestOneEvaluator:
    def test_mismatched_catalog_with_evaluator_rejected(self, sdss_catalog):
        """The designer is where a catalog meets an evaluator: one that
        prices another catalog is refused there, before any component
        is built on it; one that prices this catalog is every
        component's."""
        evaluator = WorkloadEvaluator(sdss_catalog.clone())
        with pytest.raises(DesignError, match="catalog conflict"):
            Designer(sdss_catalog, evaluator=evaluator)
        designer = Designer(evaluator.catalog, evaluator)
        for component in (designer.session, designer._index_advisor,
                          designer._partition_advisor,
                          designer.continuous_tuner()):
            assert component.evaluator is evaluator
