"""Tests for workload compression."""

import pytest

from repro.cophy import CoPhyAdvisor
from repro.cophy.compression import compress_workload
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.workloads import Workload, sdss_workload


def clusters(*statements):
    """How many clusters :func:`compress_workload` makes of *statements*."""
    compressed, __ = compress_workload(
        Workload((sql, 1.0) for sql in statements))
    return len(compressed)


class TestShapeKey:
    """A cluster is a template key: the statement's tokens, literals
    masked (:func:`repro.sql.template.template_key`), the key a
    ``CostService`` files its statement templates under."""

    def test_literal_changes_share_a_cluster(self):
        assert clusters(
            "SELECT ra FROM photoobj WHERE ra BETWEEN 1 AND 2",
            "SELECT ra FROM photoobj WHERE ra BETWEEN 7.5 AND 9",
            "SELECT ra FROM photoobj WHERE type = 'star'",
            "SELECT ra FROM photoobj WHERE type = 'galaxy'",
        ) == 2

    def test_one_cluster_per_template_the_cost_service_files(self):
        from repro.workloads import sdss_catalog  # the fixture's is smaller

        workload = sdss_workload(n_queries=120, seed=3, write_fraction=0.2)
        service = CostService(sdss_catalog(scale=0.01))
        for sql, __ in workload:
            service.bound(sql)
        compressed, __ = compress_workload(workload)
        assert len(compressed) == len(service.templates) == 24

    def test_different_columns_differ(self):
        assert clusters("SELECT ra FROM photoobj WHERE ra < 2",
                        "SELECT ra FROM photoobj WHERE dec < 2") == 2

    def test_predicate_kind_differs(self):
        assert clusters("SELECT ra FROM photoobj WHERE type = 1",
                        "SELECT ra FROM photoobj WHERE type < 1") == 2

    def test_join_vs_single_table_differ(self):
        assert clusters(
            "SELECT p.ra FROM photoobj p WHERE p.ra < 2",
            "SELECT p.ra FROM photoobj p, specobj s "
            "WHERE p.objid = s.objid AND p.ra < 2") == 2

    def test_projection_matters(self):
        assert clusters("SELECT ra FROM photoobj WHERE ra < 2",
                        "SELECT ra, rmag FROM photoobj WHERE ra < 2") == 2

    def test_a_negative_literal_keeps_its_sign(self):
        assert clusters("SELECT ra FROM photoobj WHERE dec > 5",
                        "SELECT ra FROM photoobj WHERE dec > -5") == 2


class TestCompression:
    def make_workload(self):
        entries = []
        for i in range(10):
            entries.append(
                ("SELECT ra FROM photoobj WHERE ra BETWEEN %d AND %d" % (i, i + 1), 1.0)
            )
        for i in range(5):
            entries.append(("SELECT dec FROM photoobj WHERE dec > %d" % i, 2.0))
        return Workload(entries)

    def test_clusters_by_shape(self):
        compressed, stats = compress_workload(self.make_workload())
        assert stats.original_statements == 15
        assert stats.compressed_statements == 2
        assert stats.ratio == pytest.approx(7.5)

    def test_weight_preserved(self):
        workload = self.make_workload()
        compressed, __ = compress_workload(workload)
        assert sum(w for __, w in compressed) == pytest.approx(
            sum(w for __, w in workload))

    def test_compressed_recommendation_close_to_full(self, sdss_catalog):
        workload = self.make_workload()
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        full = advisor.recommend(workload, budget_pages=50_000)
        compressed_workload, stats = compress_workload(workload)
        compressed = advisor.recommend(compressed_workload, budget_pages=50_000)
        # The chosen index set should coincide for literal-only variation.
        assert set(full.indexes) == set(compressed.indexes)
        assert stats.ratio > 5

    def test_empty_like_workload(self):
        compressed, stats = compress_workload(
            Workload([("SELECT ra FROM photoobj", 1.0)]))
        assert len(compressed) == 1 and stats.ratio == 1.0


class TestMaxIndexesConstraint:
    def test_cap_enforced_by_all_solvers(self, sdss_catalog):
        workload = [
            ("SELECT ra FROM photoobj WHERE ra BETWEEN 1 AND 2", 1.0),
            ("SELECT dec FROM photoobj WHERE dec > 80", 1.0),
            ("SELECT rmag FROM photoobj WHERE rmag < 14", 1.0),
        ]
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        for solver in ("milp", "greedy", "colgen"):
            rec = advisor.recommend(
                workload, budget_pages=10**6, solver=solver, max_indexes=1
            )
            assert len(rec.indexes) <= 1, solver

    def test_cap_of_zero_selects_nothing(self, sdss_catalog):
        workload = [("SELECT ra FROM photoobj WHERE ra BETWEEN 1 AND 2", 1.0)]
        rec = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog)).recommend(
            workload, budget_pages=10**6, max_indexes=0
        )
        assert rec.indexes == []
