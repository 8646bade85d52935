"""Tests for the multi-tenant TuningService: registration, streaming
ingest, drift detection, status snapshots, and the load-bearing
equivalence — shared backplanes dedupe work but never change any
tenant's outcome."""

import json
import os
import stat

import pytest

from repro.colt import ColtSettings, ColtTuner
from repro.colt.tuner import TenantState
from repro.evaluation import WorkloadEvaluator, wire
from repro.service import TenantSession, TuningService
from repro.util import DesignError
from repro.workloads import (DriftPhase, default_phases, drifting_stream,
                             sdss, tpch, tpch_phases)

from oracle import drain, finish, ingest, threaded_warm_up

SDSS_PHASES = (
    DriftPhase("positional", 10, ((sdss.template("cone_search"), 1.0),)),
    DriftPhase("photometric", 10, ((sdss.template("magnitude_cut"), 1.0),)),
)
TPCH_PHASES = (
    DriftPhase("pricing", 10, ((tpch.template("shipping_window"), 1.0),)),
    DriftPhase("customers", 10, ((tpch.template("customer_orders"), 1.0),)),
)

COLT = ColtSettings(epoch_length=5, space_budget_pages=50_000)


@pytest.fixture(scope="module")
def astro_catalog():
    from repro.workloads import sdss_catalog

    return sdss_catalog(scale=0.01)


@pytest.fixture(scope="module")
def dss_catalog():
    from repro.workloads import tpch_catalog

    return tpch_catalog(scale=0.01)


def options():
    return dict(colt_settings=COLT, recommend_every=8, window=10)


def outcome(session):
    """The per-tenant result surface the equivalence claim covers."""
    status = session.status()
    return (
        status["configuration"],
        [(r.trigger, r.indexes) for r in session.recommendations],
        [(e.from_phase, e.to_phase, e.at_query) for e in session.drift_events],
        status["epochs"],
        status["adoptions"],
    )


class TestRegistration:
    def test_duplicate_backplane_rejected(self, astro_catalog):
        service = TuningService()
        service.add_backplane("sdss", astro_catalog)
        with pytest.raises(DesignError):
            service.add_backplane("sdss", astro_catalog)

    def test_duplicate_tenant_rejected(self, astro_catalog):
        service = TuningService()
        service.add_backplane("sdss", astro_catalog)
        service.add_tenant("t", "sdss")
        with pytest.raises(DesignError):
            service.add_tenant("t", "sdss")

    def test_unknown_backplane_and_tenant_rejected(self, astro_catalog):
        service = TuningService()
        with pytest.raises(DesignError):
            service.add_tenant("t", "ghost")
        with pytest.raises(DesignError):
            service.tenant("ghost")

    def test_tenants_share_their_backplane_evaluator(self, astro_catalog):
        service = TuningService()
        service.add_backplane("sdss", astro_catalog)
        a = service.add_tenant("a", "sdss")
        b = service.add_tenant("b", "sdss")
        assert a.evaluator is b.evaluator
        assert service.backplane("sdss").tenants == ["a", "b"]


class TestTenantSession:
    def test_drift_events_fire_at_phase_boundaries(self, astro_catalog):
        session = TenantSession(
            "t", WorkloadEvaluator(astro_catalog), **options()
        )
        drain(session, drifting_stream(SDSS_PHASES, seed=2))
        assert [(e.from_phase, e.to_phase) for e in session.drift_events] == [
            ("positional", "photometric")
        ]
        assert session.drift_events[0].at_query == 10  # exactly the boundary
        assert session.status()["phases_seen"] == ["positional", "photometric"]

    def test_drift_restores_colt_probe_budget(self, astro_catalog):
        session = TenantSession(
            "t", WorkloadEvaluator(astro_catalog),
            colt_settings=ColtSettings(
                epoch_length=2, whatif_budget=16, min_whatif_budget=2,
                space_budget_pages=50_000,
            ),
        )
        # One template, many epochs: the stable design throttles probing.
        for __, sql in drifting_stream((SDSS_PHASES[0],), seed=2):
            ingest(session, ("positional", sql))
        assert session.tuner._budget < 16
        ingest(session, ("photometric", sdss.template("magnitude_cut")(
            __import__("random").Random(5))))
        assert session.tuner._budget == 16  # restored at the boundary

    def test_refresh_triggers(self, astro_catalog):
        session = TenantSession(
            "t", WorkloadEvaluator(astro_catalog), **options()
        )
        drain(session, drifting_stream(SDSS_PHASES, seed=2))
        triggers = [r.trigger for r in session.recommendations]
        # 20 events, refresh every 8, one drift boundary, one final.
        assert triggers == ["interval", "drift", "interval", "final"]
        assert all(
            r.at_query <= session.queries for r in session.recommendations
        )

    def test_plain_sql_events_have_no_phase(self, astro_catalog):
        session = TenantSession(
            "t", WorkloadEvaluator(astro_catalog),
            colt_settings=COLT,
        )
        ingest(session, "SELECT ra FROM photoobj WHERE ra < 5")
        assert session.status()["phase"] is None
        assert session.drift_events == []

    def test_finish_is_idempotent(self, astro_catalog):
        session = TenantSession(
            "t", WorkloadEvaluator(astro_catalog), **options()
        )
        drain(session, drifting_stream((SDSS_PHASES[0],), seed=2))
        recs = len(session.recommendations)
        finish(session)
        assert len(session.recommendations) == recs
        assert session.status()["finished"]

    def test_a_window_below_one_query_is_refused(self, astro_catalog):
        """A session it could not load back is never built."""
        with pytest.raises(DesignError, match="window"):
            TenantSession("t", WorkloadEvaluator(astro_catalog),
                          **dict(options(), window=0))

    def test_a_one_query_window_round_trips(self, astro_catalog):
        evaluator = WorkloadEvaluator(astro_catalog)
        session = TenantSession("t", evaluator, **dict(options(), window=1))
        drain(session, drifting_stream((SDSS_PHASES[0],), seed=2))
        written = json.dumps(wire.record_to_wire(session.snapshot()))
        restored = TenantSession.from_snapshot(
            wire.record_from_wire(TenantState, json.loads(written)),
            evaluator)
        assert restored.snapshot() == session.snapshot()
        assert list(restored.window) == list(session.window)
        assert len(restored.window) == 1

    def test_status_snapshot_shape(self, astro_catalog):
        session = TenantSession(
            "t", WorkloadEvaluator(astro_catalog), **options()
        )
        drain(session, drifting_stream(SDSS_PHASES, seed=2))
        status = session.status()
        assert status["queries"] == 20
        assert status["epochs"] == 4
        assert status["tenant"] == "t"
        assert status["recommendations"] == len(session.recommendations)
        assert status["last_recommendation"] == \
            session.recommendations[-1].indexes
        assert isinstance(status["observed_cost"], float)


class TestServiceEquivalence:
    """The acceptance-pinned property: hosting tenants together changes
    throughput accounting, never results."""

    def test_shared_tenants_match_alone_runs(self, astro_catalog, dss_catalog):
        specs = [
            ("astro-1", "sdss", SDSS_PHASES, 4),
            ("astro-2", "sdss", SDSS_PHASES, 4),  # fan-in: same stream
            ("astro-3", "sdss", SDSS_PHASES, 9),  # distinct stream
            ("dss-1", "tpch", TPCH_PHASES, 6),
            ("dss-2", "tpch", TPCH_PHASES, 6),
        ]
        catalogs = {"sdss": astro_catalog, "tpch": dss_catalog}

        alone = {}
        for name, key, phases, seed in specs:
            session = TenantSession(
                name, WorkloadEvaluator(catalogs[key]),
                **options()
            )
            drain(session, drifting_stream(phases, seed=seed))
            alone[name] = session

        alone_builds = sum(
            alone[n].evaluator.pool.stats.optimizer_calls
            for n, k, __, ___ in specs if k == "sdss"
        )
        for shards in (1, 4):  # the flat single-lock pool, and sharded
            service = TuningService(shards=shards)
            service.add_backplane("sdss", astro_catalog)
            service.add_backplane("tpch", dss_catalog)
            for name, key, __, ___ in specs:
                service.add_tenant(name, key, **options())
            service.run_scheduled(
                {
                    name: drifting_stream(phases, seed=seed)
                    for name, __, phases, seed in specs
                }
            )

            for name, __, ___, ____ in specs:
                assert outcome(service.tenant(name)) == \
                    outcome(alone[name]), (shards, name)

            # And the dedupe actually happened: the sdss backplane built
            # the shared astro stream once, not once per tenant.
            shared_builds = \
                service.backplane("sdss").pool.stats.optimizer_calls
            assert shared_builds < alone_builds

    def test_two_scheduled_runs_of_the_same_streams_are_equal(
            self, astro_catalog):
        """Scheduled ingest is a deterministic function of the streams:
        a fresh service fed the same events reaches the same state."""
        def build_and_run():
            service = TuningService(shards=2)
            service.add_backplane("sdss", astro_catalog)
            for name in ("a", "b", "c"):
                service.add_tenant(name, "sdss", **options())
            service.run_scheduled(
                {
                    name: drifting_stream(SDSS_PHASES, seed=i)
                    for i, name in enumerate(("a", "b", "c"))
                }
            )
            return {
                name: outcome(service.tenant(name))
                for name in ("a", "b", "c")
            }

        assert build_and_run() == build_and_run()


class TestColtUnperturbed:
    @pytest.mark.parametrize("adopt", [True, False], ids=["adopt", "alert"])
    @pytest.mark.parametrize("key", ["sdss", "tpch"])
    def test_a_served_tenant_without_drift_is_a_bare_tuner(
            self, astro_catalog, dss_catalog, key, adopt):
        """A one-tenant service fed plain SQL (no phase tags, so no drift
        step) ends in the COLT state a bare ``ColtTuner`` reaches over the
        same stream: scheduling, refreshes and the shared evaluator never
        perturb COLT, so the drift signal is all that separates ``serve``
        from ``online``."""
        catalog, phases = {
            "sdss": (astro_catalog, default_phases(12)),
            "tpch": (dss_catalog, tpch_phases(12)),
        }[key]
        stream = [sql for __, sql in drifting_stream(phases, seed=3)]
        settings = ColtSettings(epoch_length=5, space_budget_pages=50_000,
                                auto_adopt=adopt)
        service = TuningService(shards=2)
        service.add_backplane(key, catalog)
        session = service.add_tenant(key, key, colt_settings=settings,
                                     recommend_every=7)
        service.run_scheduled({key: iter(stream)})
        assert session.recommendations and not session.drift_events
        bare = ColtTuner(WorkloadEvaluator(catalog), settings)
        bare.run(stream)
        assert session.tuner.snapshot_state() == bare.snapshot_state()


class TestServiceSurface:
    def test_run_streams_unknown_tenant(self, astro_catalog):
        service = TuningService()
        service.add_backplane("sdss", astro_catalog)
        with pytest.raises(DesignError):
            service.run_scheduled({"ghost": []})

    def test_warm_up_counts_and_is_hit_by_ingest(self, astro_catalog):
        service = TuningService(shards=2)
        service.add_backplane("sdss", astro_catalog)
        service.add_tenant("t", "sdss", **options())
        queries = [sql for __, sql in drifting_stream(SDSS_PHASES, seed=2)]
        # The first phase is built from two racing threads; the
        # service's own warm-up then builds only what is missing.
        raced = threaded_warm_up(
            service.backplane("sdss").evaluator, queries[:10], threads=2
        )
        calls = service.warm_up("sdss", queries)
        assert raced > 0 and calls > 0
        assert service.warm_up("sdss", queries) == 0  # already resident
        before = service.backplane("sdss").pool.stats.optimizer_calls
        service.run_scheduled(
            {"t": drifting_stream(SDSS_PHASES, seed=2)}
        )
        after = service.backplane("sdss").pool.stats.optimizer_calls
        assert after == before  # ingest needed no new INUM builds

    def test_status_text_lists_every_tenant_and_backplane(self, astro_catalog):
        service = TuningService()
        service.add_backplane("sdss", astro_catalog)
        service.add_tenant("alpha", "sdss", **options())
        ingest(service.tenant("alpha"),
            ("positional", "SELECT ra FROM photoobj")
        )
        text = service.status_text()
        assert "alpha" in text
        assert "backplane sdss" in text

    def test_ingest_routes_to_tenant(self, astro_catalog):
        service = TuningService()
        service.add_backplane("sdss", astro_catalog)
        service.add_tenant("t", "sdss", **options())
        ingest(service.tenant("t"),
            ("positional", "SELECT ra FROM photoobj")
        )
        assert service.tenant("t").queries == 1


def test_a_state_file_is_on_disk_before_the_rename_publishes_it(
        astro_catalog, tmp_path, monkeypatch):
    """``save_state`` fsyncs the new file, then renames it over the old
    one, then fsyncs the directory: a crash at any point leaves the
    last good snapshot or the new one, never a torn file."""
    calls = []
    fsync, replace = os.fsync, os.replace

    def recorded_fsync(fd):
        info = os.fstat(fd)
        calls.append(("fsync", "directory" if stat.S_ISDIR(info.st_mode)
                      else info.st_ino))
        fsync(fd)

    def recorded_replace(source, target):
        calls.append(("replace", os.stat(source).st_ino))
        replace(source, target)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(os, "replace", recorded_replace)
    service = TuningService(shards=1)
    service.add_backplane("sdss", astro_catalog)
    service.add_tenant("t0", "sdss", **options())
    path = service.save_state(str(tmp_path))
    written = os.stat(path).st_ino
    assert calls == [("fsync", written), ("replace", written),
                     ("fsync", "directory")]
