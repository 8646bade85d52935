"""Tests for the cooperative tenant-scheduler runtime.

The ISSUE-4 acceptance pins live here:

* scheduler-driven ``run_scheduled`` produces **bit-identical**
  per-tenant results to the loop a thread per tenant used to run —
  ``oracle.drain(session, stream)``, one tenant after another — on the
  SDSS and TPC-H drift streams;
* a mid-ingest pause-point snapshot restores to the same subsequent
  recommendations as an uninterrupted run;
* fairness: no tenant starves under a skewed stream — the unfinished
  tenants' step counts never differ by more than one;
* the process-offload executor changes wall-clock placement only, never
  results; a closed :class:`ProcessPoolBackplane` fails loudly.
"""

import itertools
import time
from contextlib import closing

import pytest

from repro import obs
from repro.colt import ColtSettings
from repro.evaluation import ProcessPoolBackplane, WorkloadEvaluator, wire
from repro.runtime import ProcessStepExecutor, Scheduler, StepExecutor
from repro.service import TenantSession, TuningService
from repro.util import DesignError
from repro.workloads import DriftPhase, drifting_stream, sdss, tpch
from repro.workloads import sdss_catalog as make_sdss
from repro.workloads.drift import default_phases

from oracle import drain, metric_value

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
    return make_sdss(scale=0.01)


@pytest.fixture(scope="module")
def dss_catalog():
    from repro.workloads import tpch_catalog

    return tpch_catalog(scale=0.01)


def options():
    return dict(colt_settings=COLT, recommend_every=8, window=10)


def outcome(session):
    """The per-tenant result surface the equivalence pins cover, down to
    the tuner's full dynamic state (EWMAs, probe counters, budgets)."""
    status = session.status()
    return (
        status["configuration"],
        session.tuner.snapshot_state(),
        [(r.at_query, r.trigger, r.indexes, r.improvement_pct)
         for r in session.recommendations],
        [(e.from_phase, e.to_phase, e.at_query) for e in session.drift_events],
        [(e.epoch, e.queries, e.observed_cost, e.build_cost, e.whatif_probes)
         for e in session.report.epochs],
        status["adoptions"],
    )


def session_for(catalog, name="t", **overrides):
    opts = options()
    opts.update(overrides)
    return TenantSession(name, WorkloadEvaluator(catalog), **opts)


class TestStepDecomposition:
    """``oracle.drain`` and the step generators are the same machine."""

    def test_step_driven_ingest_equals_drain(self, astro_catalog):
        loop = session_for(astro_catalog)
        drain(loop, drifting_stream(SDSS_PHASES, seed=2))

        stepped = session_for(astro_catalog)
        for event in drifting_stream(SDSS_PHASES, seed=2):
            for step in stepped.ingest_steps(event):
                step.run()
        for step in stepped.finish_steps():
            step.run()

        assert outcome(stepped) == outcome(loop)
        assert stepped.status()["finished"]

    def test_step_kinds_and_prewarm(self, astro_catalog):
        session = session_for(astro_catalog, recommend_every=2)
        kinds = []
        for event in itertools.islice(drifting_stream(SDSS_PHASES, seed=2), 12):
            for step in session.ingest_steps(event):
                kinds.append(step.kind)
                if step.kind == "observe":
                    assert step.prewarm[0] == event[1]
                step.run()
        # First event carries the phase tag -> a (light) drift step;
        # every 2nd event triggers an interval refresh; the boundary at
        # event 11 triggers a heavy drift step.
        assert kinds[0] == "drift"
        assert kinds.count("refresh") == 6
        heavy_drifts = [k for k in kinds if k == "drift"]
        assert len(heavy_drifts) == 2  # first phase tag + one boundary
        final = list(session.finish_steps())
        assert [s.kind for s in final] == ["flush", "final"]

    def test_finish_steps_idempotent(self, astro_catalog):
        session = session_for(astro_catalog)
        drain(session, drifting_stream((SDSS_PHASES[0],), seed=2))
        assert list(session.finish_steps()) == []


class TestRunStreamsEquivalence:
    """The acceptance pin: the scheduler shim is bit-identical to
    draining every tenant's stream in turn (``oracle.drain``, the
    per-tenant loop the thread-per-tenant service ran) on the SDSS and
    TPC-H drift streams."""

    def test_scheduler_matches_thread_loop(self, astro_catalog, dss_catalog):
        specs = [
            ("astro-1", "sdss", SDSS_PHASES, 4),
            ("astro-2", "sdss", SDSS_PHASES, 9),
            ("dss-1", "tpch", TPCH_PHASES, 6),
        ]
        catalogs = {"sdss": astro_catalog, "tpch": dss_catalog}

        def build():
            service = TuningService(shards=2)
            for key, catalog in catalogs.items():
                service.add_backplane(key, catalog)
            for name, key, __, ___ in specs:
                service.add_tenant(name, key, **options())
            return service

        def streams():
            return {
                name: drifting_stream(phases, seed=seed)
                for name, __, phases, seed in specs
            }

        drained = build()
        for name, stream in streams().items():
            drain(drained.tenant(name), stream)
        scheduled = build()
        scheduled.run_scheduled(streams())

        for name, __, ___, ____ in specs:
            assert outcome(scheduled.tenant(name)) == \
                outcome(drained.tenant(name)), name


class TestSchedulerFairness:
    def test_skewed_stream_does_not_starve(self, astro_catalog):
        """Streams of 20, 6 and 11 events share the scheduler equally:
        read back from the ``scheduler.step`` spans, at every dispatch
        the step counts of the tenants still to be dispatched differ by
        at most one, so the short streams interleave throughout instead
        of waiting for the long one to drain."""
        from repro import obs

        lengths = {"a": 20, "b": 6, "c": 11}
        obs.reset()
        try:
            scheduler = Scheduler(lookahead=2)
            sessions = {}
            for seed, (name, length) in enumerate(lengths.items(), 1):
                sessions[name] = session_for(
                    astro_catalog, name, recommend_every=4
                )
                scheduler.add(name, sessions[name], itertools.islice(
                    drifting_stream(SDSS_PHASES, seed=seed), length
                ))
            scheduler.run()
            spans = [span["tags"] for span in obs.tracer().export()
                     if span["name"] == "scheduler.step"]
        finally:
            obs.reset()
        assert {n: s.queries for n, s in sessions.items()} == lengths
        assert len(spans) == scheduler.steps  # the ring dropped nothing
        assert {"drift", "observe", "refresh", "flush", "final"} == \
            {tags["kind"] for tags in spans}
        last = {tags["tenant"]: i for i, tags in enumerate(spans)}
        counts = dict.fromkeys(lengths, 0)
        for i, tags in enumerate(spans):
            unfinished = [counts[n] for n, end in last.items() if end >= i]
            assert max(unfinished) - min(unfinished) <= 1, (i, counts)
            counts[tags["tenant"]] += 1

    def test_duplicate_task_rejected(self, astro_catalog):
        scheduler = Scheduler()
        scheduler.add("t", session_for(astro_catalog), [])
        with pytest.raises(DesignError):
            scheduler.add("t", session_for(astro_catalog), [])


class TestPausePointSnapshots:
    """Snapshots taken mid-ingest at pause points are consistent: the
    restored service emits the same subsequent recommendations as an
    uninterrupted run (with pending buffered events carried in the
    wire payload and re-queued on resume)."""

    OPTIONS = dict(recommend_every=15, window=20)

    @staticmethod
    def make_service():
        service = TuningService(shards=2)
        service.add_backplane("sdss", make_sdss(scale=0.02))
        return service

    @staticmethod
    def stream():
        return drifting_stream(default_phases(12), seed=5)

    @staticmethod
    def fingerprint(session):
        return (
            [
                (r.at_query, r.phase, r.trigger, r.indexes)
                for r in session.recommendations
            ],
            session.status()["configuration"],
            [
                (e.at_query, e.from_phase, e.to_phase)
                for e in session.drift_events
            ],
            [
                (e.epoch, e.queries, e.observed_cost, e.configuration)
                for e in session.report.epochs
            ],
        )

    def test_mid_ingest_snapshot_restores_identically(self):
        uninterrupted = self.make_service()
        uninterrupted.add_tenant("t0", "sdss", **self.OPTIONS)
        uninterrupted.run_scheduled({"t0": self.stream()})

        captured = []
        live = self.make_service()
        live.add_tenant("t0", "sdss", **self.OPTIONS)
        live.run_scheduled(
            {"t0": self.stream()},
            snapshot_interval=7,
            lookahead=5,
            on_snapshot=captured.append,
        )
        assert len(captured) >= 3
        # Pick a payload from the middle of the stream, and prefer one
        # whose scheduler buffers were non-empty — the interesting case.
        with_pending = [
            p for p in captured
            if p["scheduler"]["pending"].get("t0")
        ]
        assert with_pending, "lookahead never left events buffered"
        payload = with_pending[0]
        payload = wire.loads(wire.dumps(payload))  # full wire round trip

        resumed = self.make_service()
        restored = resumed.restore(payload)
        assert set(restored) == {"t0"}
        session = resumed.tenant("t0")
        ingested = payload["tenants"][0]["session"]["queries"]
        buffered = len(payload["scheduler"]["pending"]["t0"])
        assert session.queries == ingested
        assert resumed.stream_offset("t0") == ingested + buffered
        resumed.run_scheduled(
            {"t0": itertools.islice(self.stream(), ingested + buffered, None)}
        )
        assert self.fingerprint(session) == self.fingerprint(
            uninterrupted.tenant("t0")
        )

    def test_unknown_tenant_keeps_restored_events(self):
        """A run naming an unknown tenant beside a restored one is
        refused before any restored event is touched: they stay pending,
        so the next ``save_state()`` still carries them."""
        captured = []
        live = self.make_service()
        live.add_tenant("t0", "sdss", **self.OPTIONS)
        live.run_scheduled(
            {"t0": itertools.islice(self.stream(), 12)}, finish=False,
            snapshot_interval=7, lookahead=5, on_snapshot=captured.append,
        )
        resumed = self.make_service()
        resumed.restore(captured[0])
        offset = resumed.stream_offset("t0")
        pending = resumed.snapshot()["scheduler"]["pending"]
        assert pending["t0"] and offset > resumed.tenant("t0").queries
        with pytest.raises(DesignError, match="ghost"):
            resumed.run_scheduled({"t0": [], "ghost": []})
        assert resumed.stream_offset("t0") == offset
        assert resumed.snapshot()["scheduler"]["pending"] == pending

    def test_snapshot_pauses_at_event_boundaries(self):
        """Every periodic snapshot sees whole events only: a session
        mid-epoch is fine, a session mid-event never happens."""
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        seen = []

        def check(payload):
            session_payload = payload["tenants"][0]["session"]
            buffered = payload["scheduler"]["pending"].get("t0", ())
            # queries counts only fully ingested events; window and
            # epoch state can never disagree with it at a pause point.
            seen.append(
                (session_payload["queries"], len(buffered))
            )
            assert len(session_payload["window_queries"]) == min(
                session_payload["queries"], self.OPTIONS["window"]
            )

        service.run_scheduled(
            {"t0": self.stream()}, snapshot_interval=5, on_snapshot=check
        )
        assert seen and all(q > 0 for q, __ in seen)

    def test_direct_snapshot_mid_run_refused(self):
        """Only the scheduler's own pause-point hook may snapshot while
        a run is active; a direct call (e.g. a monitoring thread) would
        capture sessions mid-event, so it raises instead."""
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        caught = []

        class Prober(StepExecutor):
            def prepare(self, session, step):
                if not caught:
                    with pytest.raises(DesignError, match="pause point"):
                        service.snapshot()
                    caught.append(True)

        service.run_scheduled(
            {"t0": itertools.islice(self.stream(), 4)},
            executor=Prober(), finish=False,
        )
        assert caught
        service.snapshot()  # fine again once the run is over

    def test_run_exception_preserves_buffered_events(self):
        """A run that dies mid-stream leaves pulled-but-not-ingested
        events re-captured in the service's pending state, so a later
        snapshot still carries them."""
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)

        class Bomb(StepExecutor):
            def __init__(self):
                self.steps = 0

            def prepare(self, session, step):
                self.steps += 1
                if self.steps == 6:
                    raise RuntimeError("worker died")

        with pytest.raises(RuntimeError, match="worker died"):
            service.run_scheduled(
                {"t0": self.stream()}, executor=Bomb(), lookahead=5,
            )
        buffered = service.queue_depths()["t0"]
        assert buffered > 0
        payload = service.snapshot()
        assert len(payload["scheduler"]["pending"]["t0"]) == buffered
        assert service.stream_offset("t0") == \
            service.tenant("t0").queries + buffered

    def test_status_reports_snapshot_age_and_queues(self, tmp_path):
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        service.run_scheduled(
            {"t0": itertools.islice(self.stream(), 10)},
            finish=False,
            snapshot_interval=4,
            state_dir=str(tmp_path),
        )
        status = service.status()
        assert status["runtime"]["snapshots"] >= 2
        assert status["runtime"]["last_snapshot_age"] is not None
        assert status["runtime"]["queue_depths"] == {"t0": 0}
        assert "runtime:" in service.status_text()
        # The periodic writes landed in the state dir and are loadable.
        fresh = self.make_service()
        assert set(fresh.load_state(tmp_path)) == {"t0"}

    def test_metrics_and_status_keep_one_snapshot_account(self, tmp_path):
        """/metrics reads the service's snapshot count and age, as
        /status does: after the run the age gauge keeps growing, equal
        to /status's age, and save_state moves both counts."""
        registry = obs.reset()
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        service.run_scheduled(
            {"t0": itertools.islice(self.stream(), 10)},
            finish=False,
            snapshot_interval=4,
            state_dir=str(tmp_path),
        )

        def scrape():
            registry.collect()
            return (metric_value(registry,
                                 "repro_scheduler_snapshots_total"),
                    metric_value(registry,
                                 "repro_scheduler_snapshot_age_seconds"),
                    service.status()["runtime"])

        count, age, runtime = scrape()
        assert count == runtime["snapshots"] >= 2
        time.sleep(0.2)
        count, later, runtime = scrape()
        assert later >= age + 0.2
        assert later == pytest.approx(runtime["last_snapshot_age"], abs=0.05)
        service.save_state(str(tmp_path))
        saved, age, runtime = scrape()
        assert saved == runtime["snapshots"] == count + 1
        assert age < later


class TestProcessOffload:
    """The executor seam moves cache builds across processes; results
    stay bit-identical to inline execution."""

    def test_offloaded_run_matches_inline(self):
        catalog = make_sdss(scale=0.01)

        def run(executor):
            service = TuningService(shards=2)
            service.add_backplane("sdss", catalog)
            for name, seed in (("a", 4), ("b", 9)):
                service.add_tenant(
                    name, "sdss", colt_settings=COLT,
                    recommend_every=8, window=10,
                )
            service.run_scheduled(
                {
                    name: drifting_stream(SDSS_PHASES, seed=seed)
                    for name, seed in (("a", 4), ("b", 9))
                },
                executor=executor,
                lookahead=6,
            )
            return {n: outcome(service.tenant(n)) for n in ("a", "b")}

        inline = run(StepExecutor())
        with closing(ProcessStepExecutor(processes=2)) as offload:
            pooled = run(offload)
        assert pooled == inline

    def test_offload_prewarms_ahead_of_steps(self):
        """After an offloaded run, the evaluator's pool was fed by wire
        entries built in workers — the same statements the inline path
        builds locally."""
        catalog = make_sdss(scale=0.01)
        inline_service = TuningService(shards=1)
        inline_service.add_backplane("sdss", catalog)
        inline_service.add_tenant("t", "sdss", colt_settings=COLT)
        inline_service.run_scheduled(
            {"t": drifting_stream(SDSS_PHASES, seed=3)}
        )

        pooled_service = TuningService(shards=1)
        pooled_service.add_backplane("sdss", catalog)
        pooled_service.add_tenant("t", "sdss", colt_settings=COLT)
        with closing(ProcessStepExecutor(processes=2)) as executor:
            pooled_service.run_scheduled(
                {"t": drifting_stream(SDSS_PHASES, seed=3)},
                executor=executor, lookahead=6,
            )
        assert set(pooled_service.backplane("sdss").pool.keys()) == \
            set(inline_service.backplane("sdss").pool.keys())


    def test_twin_tenants_ship_each_signature_once(self):
        """Two tenants on one stream buffer the same statement rounds
        apart: the second request finds it resident or in flight, so
        the workers build exactly the distinct statements — and the
        scheduler thread builds none."""
        from repro import obs

        catalog = make_sdss(scale=0.01)
        service = TuningService(shards=2)
        service.add_backplane("sdss", catalog)
        for name in ("a", "twin"):
            service.add_tenant(name, "sdss", **options())
        obs.reset()
        try:
            with closing(ProcessStepExecutor(processes=2)) as executor:
                service.run_scheduled(
                    {name: drifting_stream(SDSS_PHASES, seed=4)
                     for name in ("a", "twin")},
                    executor=executor, lookahead=3,
                )
            shipped = sum(
                sample["value"] for sample in obs.metrics().snapshot()
                ["counters"]["repro_remote_tasks_total"]["samples"]
            )
            fallback = metric_value(obs.metrics(),
                "repro_remote_fallback_total", op="warm")
        finally:
            obs.reset()
        pool = service.backplane("sdss").pool
        assert outcome(service.tenant("a")) == outcome(service.tenant("twin"))
        assert shipped == len(pool.keys())
        assert pool.stats.misses == 0  # nothing was built inline
        assert fallback == 0

    def test_service_warm_up_through_an_executor_returns_warm(
            self, monkeypatch):
        """``refill`` only submits; the service's pre-warm must come
        back with every target resident, all of them built by the
        workers — the trailing inline pass finds nothing to build."""
        from repro.evaluation import evaluator as evaluator_module
        from repro.workloads import sdss_workload

        inline_builds = []
        real = evaluator_module.build_cache

        def spy(bq, catalog, settings):
            inline_builds.append(bq.sql)
            return real(bq, catalog, settings)

        monkeypatch.setattr(evaluator_module, "build_cache", spy)
        catalog = make_sdss(scale=0.01)
        workload = list(sdss_workload(n_queries=10, seed=3))
        service = TuningService(shards=2)
        plane = service.add_backplane("sdss", catalog)
        with closing(ProcessStepExecutor(processes=2)) as executor:
            assert service.warm_up("sdss", workload, executor=executor) == 0
            targets = plane.evaluator.warm_targets(workload)
            assert targets and all(
                bq.sql in plane.pool
                for bq, __, __ in targets
            )
        assert inline_builds == []
        # The inline executor's hooks do nothing: the plain path builds.
        cold = TuningService(shards=2)
        cold.add_backplane("sdss", catalog)
        assert cold.warm_up("sdss", workload, executor=StepExecutor()) > 0
        assert len(inline_builds) == len(targets)


class TestBackplaneClose:
    def test_use_after_close_raises_design_error(self):
        catalog = make_sdss(scale=0.01)
        evaluator = WorkloadEvaluator(catalog)
        backplane = ProcessPoolBackplane(evaluator, processes=2)
        backplane.warm_up(["SELECT ra FROM photoobj WHERE ra < 5"])
        backplane.close()
        assert backplane.closed
        with pytest.raises(DesignError, match="closed"):
            backplane.warm_up(["SELECT dec FROM photoobj WHERE dec < 1"])

    def test_close_is_idempotent(self):
        catalog = make_sdss(scale=0.01)
        backplane = ProcessPoolBackplane(
            WorkloadEvaluator(catalog), processes=2
        )
        backplane.close()
        backplane.close()

    def test_executor_close_closes_backplanes(self):
        catalog = make_sdss(scale=0.01)
        evaluator = WorkloadEvaluator(catalog)
        executor = ProcessStepExecutor(processes=2)
        executor.refill(evaluator, ["SELECT ra FROM photoobj WHERE ra < 5"])
        inner = executor._backplanes[id(evaluator)]
        executor.close()
        assert inner.closed
        assert executor._backplanes == {}
