"""Tests for COLT continuous tuning."""

import random

import pytest

from repro.colt import ColtSettings, ColtTuner
from repro.evaluation import WorkloadEvaluator
from repro.util import DesignError
from repro.workloads.drift import DriftPhase, drifting_stream
from repro.workloads import sdss


def small_settings(**overrides):
    defaults = dict(
        epoch_length=10,
        space_budget_pages=100_000,
        whatif_budget=20,
    )
    defaults.update(overrides)
    return ColtSettings(**defaults)


def positional_stream(n, seed=5):
    phases = (DriftPhase("pos", n, ((sdss.template("cone_search"), 1.0),)),)
    return drifting_stream(phases, seed=seed)


def mixed_epoch(seed=3):
    """One 10-query epoch: five cone searches an index on ``ra``/``dec``
    helps, each followed by a full-table GROUP BY none does."""
    rng = random.Random(seed)
    cone = sdss.template("cone_search")
    return [sql for __ in range(5) for sql in (
        cone(rng), "SELECT type, COUNT(*) FROM photoobj GROUP BY type")]


class TestEpochMechanics:
    def test_epoch_boundaries(self, sdss_catalog):
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        report = tuner.run(positional_stream(35))
        assert [e.queries for e in report.epochs] == [10, 10, 10, 5]

    def test_flush_idempotent(self, sdss_catalog):
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        for __, sql in positional_stream(12):
            tuner.observe(sql)
        tuner.flush()
        tuner.flush()
        assert len(tuner.report.epochs) == 2

    def test_probe_budget_respected(self, sdss_catalog):
        settings = small_settings(whatif_budget=5, min_whatif_budget=2)
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), settings)
        report = tuner.run(positional_stream(30))
        assert all(e.whatif_probes <= 5 for e in report.epochs)


class TestAdaptation:
    def test_steady_workload_adopts_helpful_index(self, sdss_catalog):
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        report = tuner.run(positional_stream(40))
        assert report.adoptions >= 1
        final = report.epochs[-1].configuration
        assert any("ra" in name or "dec" in name for name in final)

    def test_adopted_design_reduces_observed_cost(self, sdss_catalog):
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        report = tuner.run(positional_stream(60))
        first, last = report.epochs[0], report.epochs[-1]
        assert last.observed_cost < first.observed_cost

    def test_drift_triggers_new_alerts(self, sdss_catalog):
        # The test catalog only has r/g magnitudes, so phase 2 uses a
        # template pinned to rmag rather than a random band.
        def rmag_cut(rng):
            return (
                "SELECT objid, rmag FROM photoobj WHERE rmag < %.2f AND type = %d"
                % (rng.uniform(14.0, 16.0), rng.randint(1, 3))
            )

        phases = (
            DriftPhase("pos", 30, ((sdss.template("cone_search"), 1.0),)),
            DriftPhase("mag", 30, ((rmag_cut, 1.0),)),
        )
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        report = tuner.run(drifting_stream(phases, seed=5))
        adopted_epochs = [e.epoch for e in report.epochs if e.adopted]
        # Adoption must happen both before and after the phase switch.
        assert any(e < 3 for e in adopted_epochs)
        assert any(e >= 3 for e in adopted_epochs)

    def test_space_budget_limits_configuration(self, sdss_catalog):
        settings = small_settings(space_budget_pages=10)
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), settings)
        report = tuner.run(positional_stream(30))
        assert report.adoptions == 0
        assert report.epochs[-1].configuration == ()

    def test_build_cost_charged_on_adoption(self, sdss_catalog):
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        report = tuner.run(positional_stream(40))
        adopted = [e for e in report.epochs if e.adopted]
        assert adopted and all(e.build_cost > 0 for e in adopted)


class TestAlertingMode:
    def test_manual_mode_raises_alert_without_adopting(self, sdss_catalog):
        settings = small_settings(auto_adopt=False)
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), settings)
        report = tuner.run(positional_stream(40))
        assert report.alerts >= 1
        assert report.adoptions == 0
        assert tuner.pending_alert is not None
        assert tuner.current.is_empty

    def test_a_moderate_projected_gain_is_alerted_and_adopted(
            self, sdss_catalog):
        """Half the epoch a cone search an index on ``ra``/``dec`` helps,
        half a full-table GROUP BY none does: the projected improvement
        lies well inside (5 %, 50 %), above ``ADOPT_THRESHOLD``, so the
        epoch alerts and adopts."""
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        projected = []
        real = tuner._projected_improvement

        def spy(proposal):
            projected.append(real(proposal))
            return projected[-1]

        tuner._projected_improvement = spy
        report = tuner.run(mixed_epoch())
        (improvement,) = projected
        assert 0.1 < improvement < 0.4, improvement
        (record,) = report.epochs
        assert record.alert and record.adopted and record.configuration

    @pytest.mark.parametrize("improvement, alerted", [
        (0.0, False), (0.049, False), (0.05, False),
        (0.051, True), (0.275, True), (0.9, True),
    ])
    def test_a_proposal_alerts_iff_its_projection_exceeds_five_percent(
            self, sdss_catalog, improvement, alerted):
        """Whatever the epoch proposes is alerted, and auto-adopted,
        exactly when its projected improvement is strictly above 5 %;
        otherwise the design stays as it was."""
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        tuner._projected_improvement = lambda proposal: improvement
        report = tuner.run(mixed_epoch())
        (record,) = report.epochs
        assert (record.alert, record.adopted) == (alerted, alerted)
        assert bool(record.configuration) is alerted
        assert report.alerts == report.adoptions == int(alerted)

    def test_candidates_are_single_column(self, sdss_catalog):
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        tuner.run(positional_stream(20))
        assert all(len(ix.columns) == 1 for ix in tuner.candidates)


class TestWritesInStream:
    def mixed_stream(self, n=30, seed=5):
        """Cone searches interleaved with status-update storms."""
        import random

        rng = random.Random(seed)
        for i in range(n):
            if i % 3 == 2:
                yield ("write",
                       "UPDATE photoobj SET status = %d WHERE objid = %d"
                       % (rng.randint(0, 255), rng.randint(0, 10**5)))
            else:
                yield ("read", sdss.template("cone_search")(rng))

    def test_writes_observed_and_charged(self, sdss_catalog):
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        report = tuner.run(self.mixed_stream(30))
        assert report.observed_cost > 0
        assert len(report.epochs) == 3

    def test_maintenance_suppresses_hot_write_column_index(self, sdss_catalog):
        """A candidate on the constantly-updated column must be vetoed by
        its maintenance estimate even if reads would like it a little."""
        import random

        rng = random.Random(9)

        def stream():
            for i in range(60):
                if i % 2 == 0:
                    # Cheap read that mildly benefits from a status index.
                    yield ("read",
                           "SELECT objid FROM photoobj WHERE status = %d"
                           % rng.randint(0, 100))
                else:
                    # Bulk reprocessing: each update rewrites ~10% of the
                    # table, so a status index would churn massively.
                    lo = rng.uniform(0.0, 320.0)
                    yield ("write",
                           "UPDATE photoobj SET status = %d "
                           "WHERE ra BETWEEN %.1f AND %.1f"
                           % (rng.randint(0, 255), lo, lo + 36.0))

        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        tuner.run(stream())
        from repro.catalog import Index

        status_ix = Index("photoobj", ("status",))
        state = tuner.candidates.get(status_ix)
        assert state is not None
        assert state.ewma_maintenance > 0
        assert status_ix not in tuner.current.indexes


class TestSettingsBounds:
    @pytest.mark.parametrize("change", [
        dict(epoch_length=0), dict(min_whatif_budget=-1),
        dict(whatif_budget=4),  # below the default floor of 8
        dict(space_budget_pages=-1),
    ])
    def test_refused(self, change):
        with pytest.raises(DesignError):
            ColtSettings(**change)

    def test_edges_accepted(self):
        ColtSettings(epoch_length=1, whatif_budget=8,
                     min_whatif_budget=8, space_budget_pages=0)
        ColtSettings(whatif_budget=0, min_whatif_budget=0)


class TestSelfRegulation:
    def test_budget_decays_when_stable(self, sdss_catalog):
        settings = small_settings(whatif_budget=16, min_whatif_budget=2)
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), settings)
        tuner.run(positional_stream(200))
        # Long steady stream: probing should have throttled down.
        late = tuner.report.epochs[-1]
        assert late.whatif_probes < 16

    def test_report_totals_consistent(self, sdss_catalog):
        tuner = ColtTuner(WorkloadEvaluator(sdss_catalog), small_settings())
        report = tuner.run(positional_stream(30))
        assert report.total_cost == pytest.approx(
            report.observed_cost + report.build_cost
        )
        assert "totals:" in report.to_text()
