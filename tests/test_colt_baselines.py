"""Tests for COLT baselines and report rendering extras."""

import pytest

from repro.colt import ColtSettings, ColtTuner, static_oracle
from repro.evaluation import WorkloadEvaluator
from repro.whatif import WhatIfSession
from repro.workloads import sdss
from repro.workloads.drift import DriftPhase, drifting_stream


def stream(n=30, seed=5):
    phases = (DriftPhase("pos", n, ((sdss.template("cone_search"), 1.0),)),)
    return drifting_stream(phases, seed=seed)


def no_tuning_cost(catalog, stream):
    """Total cost of the stream with the existing design untouched (the
    demo's "before" picture), the floor the static oracle must beat."""
    session = WhatIfSession(WorkloadEvaluator(catalog))
    total = 0.0
    for item in stream:
        sql = item[1] if isinstance(item, tuple) else item
        total += session.cost(sql)
    return total


class TestNoTuning:
    def test_matches_sum_of_costs(self, sdss_catalog):
        session = WhatIfSession(WorkloadEvaluator(sdss_catalog))
        expected = sum(session.cost(sql) for __, sql in stream())
        assert no_tuning_cost(sdss_catalog, stream()) == pytest.approx(expected)

    def test_accepts_bare_sql_stream(self, sdss_catalog):
        bare = [sql for __, sql in stream(10)]
        assert no_tuning_cost(sdss_catalog, bare) > 0


class TestStaticOracle:
    def test_oracle_beats_no_tuning_on_steady_stream(self, sdss_catalog):
        untuned = no_tuning_cost(sdss_catalog, stream(40))
        oracle = static_oracle(sdss_catalog, stream(40), space_budget_pages=100_000)
        assert oracle.stream_cost < untuned
        assert oracle.build_cost > 0

    def test_oracle_configuration_within_budget(self, sdss_catalog):
        oracle = static_oracle(sdss_catalog, stream(30), space_budget_pages=50_000)
        overlay = oracle.configuration.apply(sdss_catalog)
        assert overlay.design_size_pages() <= 50_000

    def test_zero_budget_oracle_is_no_tuning(self, sdss_catalog):
        untuned = no_tuning_cost(sdss_catalog, stream(20))
        oracle = static_oracle(sdss_catalog, stream(20), space_budget_pages=0)
        assert oracle.stream_cost == pytest.approx(untuned)
        assert oracle.build_cost == 0.0


class TestSparkline:
    def test_sparkline_length_matches_epochs(self, sdss_catalog):
        tuner = ColtTuner(
            WorkloadEvaluator(sdss_catalog),
            ColtSettings(epoch_length=10, space_budget_pages=100_000),
        )
        report = tuner.run(stream(35))
        assert len(report.sparkline()) == len(report.epochs)

    def test_sparkline_in_text_report(self, sdss_catalog):
        tuner = ColtTuner(
            WorkloadEvaluator(sdss_catalog),
            ColtSettings(epoch_length=10, space_budget_pages=100_000),
        )
        report = tuner.run(stream(20))
        assert "per epoch" in report.to_text()

    def test_empty_report_sparkline(self):
        from repro.colt import OnlineReport

        assert OnlineReport([]).sparkline() == ""
