"""Tests for the what-if component: configurations, sessions, join control."""

from dataclasses import replace

import pytest

from repro.catalog import (
    HorizontalPartitioning,
    Index,
    VerticalFragment,
    VerticalLayout,
)
from repro.evaluation import WorkloadEvaluator
from repro.util import DesignError
from repro.whatif import Configuration, WhatIfSession


def ra_index():
    return Index("photoobj", ("ra",))


def z_index():
    return Index("specobj", ("z",))


class TestConfiguration:
    def test_empty(self):
        assert Configuration.empty().is_empty

    def test_value_semantics(self):
        a = Configuration.of(ra_index(), z_index())
        b = Configuration.of(z_index(), ra_index())
        assert a == b
        assert hash(a) == hash(b)

    def test_with_and_without_indexes(self):
        cfg = Configuration.empty().with_indexes(ra_index())
        assert ra_index() in cfg.indexes
        assert replace(cfg, indexes=cfg.indexes - {ra_index()}).is_empty

    def test_union_merges_layouts(self):
        layout = VerticalLayout(
            "specobj",
            (VerticalFragment("specobj", ("specid", "bestobjid", "z", "zerr", "class")),),
        )
        a = Configuration.of(ra_index())
        b = Configuration(layouts=(layout,))
        merged = a.union(b)
        assert merged.indexes == a.indexes
        assert merged.layouts == (layout,)

    def test_duplicate_layout_rejected(self):
        layout = VerticalLayout(
            "specobj", (VerticalFragment("specobj", ("specid",)),)
        )
        with pytest.raises(DesignError):
            Configuration(layouts=(layout, layout))

    def test_apply_adds_objects(self, sdss_catalog):
        cfg = Configuration.of(ra_index())
        overlay = cfg.apply(sdss_catalog)
        assert overlay.has_index(ra_index())
        assert not sdss_catalog.has_index(ra_index())  # base untouched

    def test_apply_skips_existing(self, sdss_with_indexes):
        cfg = Configuration.of(Index("photoobj", ("ra",)))
        overlay = cfg.apply(sdss_with_indexes)  # already built
        assert overlay.design_size_pages() == \
            sdss_with_indexes.design_size_pages()

    def test_build_cost_positive(self, sdss_catalog):
        cfg = Configuration.of(ra_index(), z_index())
        assert cfg.build_cost(sdss_catalog) > 0

    def test_describe_mentions_objects(self, sdss_catalog):
        text = Configuration.of(ra_index()).describe()
        assert "CREATE INDEX" in text and "photoobj" in text


def benefit(session, workload, config):
    """Workload benefit of *config* over the base design."""
    return session.workload_cost(workload) - session.workload_cost(
        workload, config)


class TestWhatIfSession:
    def test_index_benefit_positive(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        wl = [("SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 11", 1.0)]
        assert benefit(session, wl, Configuration.of(ra_index())) > 0

    def test_config_never_hurts(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        wl = [
            ("SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 11", 1.0),
            ("SELECT dec FROM photoobj WHERE dec > 80", 1.0),
        ]
        config = Configuration.of(ra_index(), z_index())
        assert benefit(session, wl, config) >= -1e-6

    def test_evaluate_report_fields(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        wl = [("SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 11", 2.0)]
        report = session.evaluate(wl, Configuration.of(ra_index()))
        [qb] = report.per_query
        assert qb.weight == 2.0
        assert qb.new_cost < qb.base_cost
        assert report.average_improvement_pct > 0
        assert "workload" in report.to_text()

    def test_service_cache_reused(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        cfg = Configuration.of(ra_index())
        assert session.service_for(cfg) is session.service_for(cfg)

    def test_join_control_changes_plan(self, sdss_catalog):
        sql = (
            "SELECT p.ra, s.z FROM photoobj p, specobj s WHERE p.objid = s.objid"
        )
        base = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        no_hash = base.with_join_methods(enable_hashjoin=False)
        assert base.base_service.plan(sql).node_type == "HashJoin"
        assert no_hash.base_service.plan(sql).node_type != "HashJoin"

    def test_partition_whatif(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        layout = VerticalLayout(
            "photoobj",
            (
                VerticalFragment("photoobj", ("objid", "ra", "dec")),
                VerticalFragment(
                    "photoobj", ("rmag", "gmag", "type", "flags", "status")
                ),
            ),
        )
        config = Configuration(layouts=(layout,))
        wl = [("SELECT ra, dec FROM photoobj WHERE ra < 100", 1.0)]
        assert benefit(session, wl, config) > 0

    def test_horizontal_whatif(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        horizontal = HorizontalPartitioning(
            "photoobj", "ra", tuple(float(b) for b in range(40, 360, 40))
        )
        config = Configuration(horizontals=(horizontal,))
        wl = [("SELECT rmag FROM photoobj WHERE ra BETWEEN 100 AND 105", 1.0)]
        assert benefit(session, wl, config) > 0

    def test_bad_workload_entries_rejected(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        with pytest.raises(TypeError):
            session.cost(12345)


class TestQueryBenefitDegenerateCosts:
    """A zero/negative base cost with a *different* new cost is a real
    change in improvement_pct, not a 0.0% no-op."""

    def _benefit(self, base, new):
        from repro.whatif import QueryBenefit

        return QueryBenefit(sql="SELECT 1", base_cost=base, new_cost=new)

    def test_zero_base_zero_new_is_flat(self):
        assert self._benefit(0.0, 0.0).improvement_pct == 0.0

    def test_zero_base_with_regression_is_minus_inf(self):
        b = self._benefit(0.0, 10.0)
        assert b.improvement_pct == float("-inf")
        assert b.benefit < 0  # consistent direction

    def test_negative_base_with_improvement_is_inf(self):
        b = self._benefit(-5.0, -10.0)
        assert b.improvement_pct == float("inf")
        assert b.benefit > 0

    def test_positive_base_unchanged(self):
        b = self._benefit(200.0, 100.0)
        assert b.improvement_pct == pytest.approx(50.0)

    def test_zero_new_cost_is_a_full_improvement(self):
        b = self._benefit(100.0, 0.0)
        assert b.improvement_pct == pytest.approx(100.0)


class TestSessionBackplane:
    """The session draws exact services from the shared evaluator."""

    def test_services_come_from_evaluator(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        config = Configuration.of(ra_index())
        svc = session.service_for(config)
        assert svc is session.evaluator.exact_service(config)
        assert session.base_service is session.evaluator.exact_service()

    def test_shared_evaluator_shares_exact_services(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        one = WhatIfSession(evaluator)
        two = WhatIfSession(evaluator)
        config = Configuration.of(ra_index())
        assert one.service_for(config) is two.service_for(config)

    def test_catalog_and_settings_come_from_the_evaluator(self, sdss_catalog):
        """The session has no catalog or settings of its own to conflict
        with its evaluator's: it reads both off the evaluator, and a
        join-method session is a fresh evaluator's."""
        from repro.optimizer.settings import DEFAULT_SETTINGS

        changed = replace(DEFAULT_SETTINGS, enable_hashjoin=False)
        evaluator = WorkloadEvaluator(sdss_catalog, changed)
        session = WhatIfSession(evaluator)
        assert session.catalog is sdss_catalog
        assert session.base_service.settings == changed
        hashless = WhatIfSession(WorkloadEvaluator(sdss_catalog)) \
            .with_join_methods(enable_hashjoin=False)
        assert hashless.evaluator.catalog is sdss_catalog
        assert hashless.evaluator.settings == changed
        assert hashless.base_service.settings == changed

    def test_report_average_matches_query_convention(self):
        from repro.whatif import QueryBenefit, WhatIfReport

        report = WhatIfReport(configuration=Configuration.empty())
        report.per_query.append(
            QueryBenefit(sql="SELECT 1", base_cost=0.0, new_cost=10.0)
        )
        assert report.average_improvement_pct == float("-inf")
        report.per_query[0] = QueryBenefit(
            sql="SELECT 1", base_cost=0.0, new_cost=0.0
        )
        assert report.average_improvement_pct == 0.0
