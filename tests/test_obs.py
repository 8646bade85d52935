"""Tests for the telemetry backplane (ISSUE 7).

Covers the registry/tracer core, the Prometheus rendering, worker-delta
merging, and the observability satellites the issue pins:

* ``TuningService.status()`` / ``status_text()`` field-by-field;
* scheduler queue-depth reporting (``queue_depths()`` and the scrape
  mirror gauge agree with the task state);
* merged registry snapshots stay consistent under concurrent updates
  (fuzz: a snapshot must never tear a histogram's sum/count pair).
"""

import json
import threading
import urllib.request
from contextlib import closing

import pytest

from repro import obs
from repro.colt import ColtSettings
from repro.evaluation import wire
from repro.obs import MetricsRegistry, Tracer
from repro.obs.catalogue import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    REMOTE_FALLBACK,
    SPAN_WORKER_WARM_UP,
    Family,
)
from repro.obs.export import MetricsServer
from repro.obs.metrics import NULL_REGISTRY
from repro.runtime import Scheduler
from repro.service import TuningService
from repro.util import WireFormatError
from repro.workloads import DriftPhase, drifting_stream, sdss
from repro.workloads import sdss_catalog as make_sdss

from oracle import metric_value

SDSS_PHASES = (
    DriftPhase("positional", 6, ((sdss.template("cone_search"), 1.0),)),
    DriftPhase("photometric", 6, ((sdss.template("magnitude_cut"), 1.0),)),
)

COLT = ColtSettings(epoch_length=5, space_budget_pages=50_000)


def family(name, kind=COUNTER, *labelnames, help_text=""):
    """A family of a test's own, declared outside the catalogue."""
    return Family(name, kind, help_text, labelnames)


@pytest.fixture(scope="module")
def astro_catalog():
    return make_sdss(scale=0.01)


@pytest.fixture
def fresh_registry():
    """An empty process-wide registry/tracer for tests asserting exact
    global counts.  (Not autouse: the class-scoped service fixture below
    records into the registry once for several tests.)"""
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# Registry core.
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.family(family("c_total", help_text="a counter")).inc()
        reg.family(family("c_total")).inc(2)
        reg.family(family("g", GAUGE, help_text="a gauge")).set(7)
        reg.family(family("g", GAUGE)).dec(2)
        hist = reg.family(family("h_seconds", HISTOGRAM))
        hist.observe(0.001)
        hist.observe(0.001)
        assert metric_value(reg, "c_total") == 3
        assert metric_value(reg, "g") == 5
        snap = reg.snapshot()
        sample = snap["histograms"]["h_seconds"]["samples"][0]
        assert sample["count"] == 2
        assert sample["sum"] == pytest.approx(0.002)
        assert sum(sample["bucket_counts"]) == 2

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        fam = reg.family(family("x_total", COUNTER, "mode"))
        fam.labels(mode="a").inc()
        fam.labels(mode="b").inc(5)
        assert metric_value(reg, "x_total", mode="a") == 1
        assert metric_value(reg, "x_total", mode="b") == 5
        assert metric_value(reg, "x_total", mode="absent") == 0

    def test_a_family_is_created_once_and_checks_its_labels(self):
        reg = MetricsRegistry()
        spec = family("dup_total", COUNTER, "a")
        assert reg.family(spec) is reg.family(spec)
        with pytest.raises(ValueError):
            reg.family(spec).labels(b=1)
        with pytest.raises(ValueError):
            reg.family(spec).inc()  # labeled: no default child

    def test_reading_an_undeclared_name_is_zero(self):
        """The ledger still reads families earlier builds deleted."""
        reg = MetricsRegistry()
        assert metric_value(reg, "repro_sparse_cells_total") == 0
        assert "repro_sparse_cells_total" not in reg.snapshot()["counters"]

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.family(family("r_total", COUNTER, "code", help_text="requests")) \
            .labels(code=200).inc(3)
        reg.family(family("l_seconds", HISTOGRAM, help_text="latency")) \
            .observe(0.5)
        text = reg.render_prometheus()
        assert '# TYPE r_total counter' in text
        assert 'r_total{code="200"} 3' in text
        assert '# TYPE l_seconds histogram' in text
        # Cumulative buckets: every bound >= 0.5 reports the one
        # observation, and +Inf/_count/_sum close the family.
        assert 'l_seconds_bucket{le="+Inf"} 1' in text
        assert 'l_seconds_count 1' in text
        assert 'l_seconds_sum 0.5' in text

    def test_label_values_are_escaped(self):
        """Text format 0.0.4: a label value escapes backslash, double
        quote and line feed as ``\\\\``, ``\\"`` and ``\\n``."""
        reg = MetricsRegistry()
        reg.family(family("esc_total", COUNTER, "path")) \
            .labels(path='a"b\\c\nd').inc()
        lines = reg.render_prometheus().splitlines()
        assert r'esc_total{path="a\"b\\c\nd"} 1' in lines

    def test_collector_weakref_dies_with_owner(self):
        reg = MetricsRegistry()

        class Owner:
            def mirror(self, registry):
                registry.family(family("mirrored_total")).set(42)

        owner = Owner()
        reg.add_collector(owner.mirror)
        assert reg.snapshot()["counters"]["mirrored_total"]
        assert metric_value(reg, "mirrored_total") == 42
        del owner
        # The dead collector drops off; the last mirrored value stays.
        reg.snapshot()
        assert metric_value(reg, "mirrored_total") == 42

    def test_drain_deltas_ship_only_movement(self):
        reg = MetricsRegistry()
        reg.family(family("c_total", COUNTER, "k")).labels(k="x").inc(3)
        reg.family(family("h_seconds", HISTOGRAM)).observe(0.25)
        first = reg.drain_deltas()
        assert first["counters"][0]["samples"] == [[["x"], 3]]
        assert first["histograms"][0]["samples"][0][3] == 1
        # No movement since the drain: the next payload is empty.
        empty = reg.drain_deltas()
        assert empty["counters"] == [] and empty["histograms"] == []
        # Folding into a fresh registry reproduces the totals.
        target = MetricsRegistry()
        target.apply_deltas(first)
        assert metric_value(target, "c_total", k="x") == 3
        snap = target.snapshot()["histograms"]["h_seconds"]["samples"][0]
        assert snap["count"] == 1 and snap["sum"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Tracer.
# ----------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_tags(self):
        tr = Tracer()
        with tr.span("outer", who="me") as outer:
            with tr.span("inner") as inner:
                inner.set_tag("late", True)
                assert tr.current_context() == (inner.trace_id,
                                                inner.span_id)
        spans = tr.export()
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["trace_id"] == by_name["outer"]["trace_id"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["tags"] == {"late": True}
        assert by_name["outer"]["duration"] >= 0

    def test_remote_parent_stitches_across_drain(self):
        parent, worker = Tracer(), Tracer()
        with parent.span("dispatch") as dispatch:
            ctx = parent.current_context()
        with worker.span("work", remote_parent=ctx):
            pass
        parent.ingest(worker.drain())
        assert worker.export() == []  # drain pops
        spans = parent.export()
        work = [s for s in spans if s["name"] == "work"][0]
        assert work["trace_id"] == dispatch.trace_id
        assert work["parent_id"] == dispatch.span_id

    def test_error_recorded_and_buffer_bounded(self):
        tr = Tracer(limit=4)
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("nope")
        assert "RuntimeError: nope" in tr.export()[-1]["error"]
        for i in range(10):
            with tr.span("s%d" % i):
                pass
        assert len(tr.export()) == 4  # ring buffer, newest win

    def test_obs_wire_roundtrip(self):
        obs.reset()
        obs.metrics().family(REMOTE_FALLBACK).labels(op="warm").inc(2)
        with obs.tracer().span(SPAN_WORKER_WARM_UP):
            pass
        text = wire.dumps(wire.obs_to_wire(obs.drain_deltas()))
        obs.reset()
        obs.ingest_deltas(wire.loads(text))
        assert metric_value(obs.metrics(), REMOTE_FALLBACK.name,
                            op="warm") == 2
        assert obs.tracer().export()[-1]["name"] == SPAN_WORKER_WARM_UP

    def test_a_delta_naming_an_undeclared_family_is_refused(self):
        obs.reset()
        obs.metrics().family(family("shipped_total")).inc(2)
        text = wire.dumps(wire.obs_to_wire(obs.drain_deltas()))
        obs.reset()
        with pytest.raises(WireFormatError, match="not declared"):
            wire.loads(text)
        assert metric_value(obs.metrics(), "shipped_total") == 0


# ----------------------------------------------------------------------
# Disabled mode.
# ----------------------------------------------------------------------


class TestDisabled:
    def test_disabled_records_nothing_and_restores(self, fresh_registry):
        reg = obs.metrics()
        assert reg is not NULL_REGISTRY
        with obs.disabled():
            assert obs.metrics() is NULL_REGISTRY
            obs.metrics().family(REMOTE_FALLBACK).labels(op="x").inc()
            with obs.tracer().span("ghost") as span:
                span.set_tag("k", 1)  # must be a no-op, not an error
            assert obs.tracer().export() == []
            assert obs.metrics().render_prometheus() == ""
        assert obs.metrics() is reg
        assert metric_value(reg, REMOTE_FALLBACK.name, op="x") == 0


# ----------------------------------------------------------------------
# Batched evaluation: two pricing jobs, two modes, two spans.
# ----------------------------------------------------------------------


class TestEvaluateModes:
    def test_modes_and_spans_are_kernel_and_delta(self, astro_catalog,
                                                  fresh_registry):
        from repro.catalog import Index
        from repro.evaluation import WorkloadEvaluator
        from repro.whatif import Configuration

        workload = [
            ("SELECT ra FROM photoobj WHERE ra < 10", 1.0),
            ("UPDATE photoobj SET status = 3 WHERE rmag < 14", 0.5),
        ]
        parent = Configuration.of(Index("photoobj", ("ra",)))
        configs = [Configuration.empty(), parent]
        evaluator = WorkloadEvaluator(astro_catalog)
        evaluator.evaluate_many(workload, configs)
        evaluator.workload_costs(workload, configs)
        evaluator.evaluate_deltas(workload, parent, configs)
        # The usage batch is the serial walk: no batch telemetry.
        evaluator.workload_cost_with_usage_batch(workload, configs)

        snapshot = obs.metrics().snapshot()
        cells = len(workload) * len(configs)
        for family, per_call in (("repro_evaluate_batches_total", 1),
                                 ("repro_evaluate_cells_total", cells)):
            samples = snapshot["counters"][family]["samples"]
            assert {
                sample["labels"]["mode"]: sample["value"]
                for sample in samples
            } == {"kernel": 2 * per_call, "delta": per_call}
        seconds = snapshot["histograms"]["repro_evaluate_seconds"]["samples"]
        assert {sample["labels"]["mode"]: sample["count"]
                for sample in seconds} == {"kernel": 2, "delta": 1}

        names = [s["name"] for s in obs.tracer().export()
                 if s["name"].startswith("evaluate.")]
        assert sorted(names) == ["evaluate.batch"] * 2 + ["evaluate.deltas"]

    @pytest.mark.parametrize("seam, span", [
        ("evaluate_configurations", "evaluate.batch"),
        ("evaluate_deltas", "evaluate.deltas"),
    ])
    def test_cold_call_builds_inside_its_seams_span(
            self, astro_catalog, fresh_registry, seam, span):
        """Both batch seams time the same thing: a cold call's
        workload compilation — its ``pool.build`` spans — happens under
        the seam's own span and timer, not beside them."""
        from repro.evaluation import WorkloadEvaluator
        from repro.whatif import Configuration

        workload = [
            ("SELECT ra FROM photoobj WHERE ra < 10", 1.0),
            ("SELECT z FROM specobj WHERE z > 6.5", 1.0),
        ]
        configs = [Configuration.empty()]
        evaluator = WorkloadEvaluator(astro_catalog)
        if seam == "evaluate_deltas":
            evaluator.evaluate_deltas(workload, None, configs)
        else:
            getattr(evaluator, seam)(workload, configs)

        spans = obs.tracer().export()
        (seam_span,) = [s for s in spans if s["name"] == span]
        builds = [s for s in spans if s["name"] == "pool.build"]
        assert len(builds) == len(workload)
        assert {s["parent_id"] for s in builds} == {seam_span["span_id"]}


class TestRecommendMemoTelemetry:
    def test_hits_plus_misses_are_the_refreshes(self, astro_catalog,
                                                fresh_registry):
        """Twin tenants share a refresh's work through the backplane's
        recommendation memo; each refresh is still counted and timed as
        its tenant's own, hit or not."""
        service = TuningService(shards=2)
        service.add_backplane("sdss", astro_catalog)
        for name in ("one", "twin"):
            service.add_tenant(name, "sdss", colt_settings=COLT,
                               recommend_every=5, window=6)
        service.run_scheduled({
            name: drifting_stream(SDSS_PHASES, seed=2)
            for name in ("one", "twin")
        })
        refreshes = sum(
            len(service.tenant(name).recommendations)
            for name in ("one", "twin")
        )
        assert refreshes >= 6
        reg = obs.metrics()
        hits = metric_value(reg, "repro_recommend_memo_total", result="hit")
        misses = metric_value(reg, "repro_recommend_memo_total", result="miss")
        assert hits == misses == refreshes // 2
        evaluator = service.backplane("sdss").evaluator
        assert (evaluator.recommend_memo_hits,
                evaluator.recommend_memo_misses) == (hits, misses)
        snapshot = reg.snapshot()
        by_trigger = snapshot["counters"]["repro_tenant_refreshes_total"]
        assert sum(s["value"] for s in by_trigger["samples"]) == refreshes
        seconds = snapshot["histograms"]["repro_tenant_refresh_seconds"]
        assert [s["count"] for s in seconds["samples"]] == [refreshes]


# ----------------------------------------------------------------------
# Satellite: scheduler queue-depth reporting.
# ----------------------------------------------------------------------


class TestSchedulerQueueDepth:
    def _session(self, service, name):
        return service.add_tenant(
            name, "sdss", colt_settings=COLT, recommend_every=0,
        )

    def test_queue_depths_track_intake_and_scrape_mirror(
            self, astro_catalog, fresh_registry):
        from repro.runtime import StepExecutor

        service = TuningService()
        service.add_backplane("sdss", astro_catalog)
        seen = []

        def gauge():
            snap = obs.metrics().snapshot()
            return {
                s["labels"]["tenant"]: s["value"]
                for s in snap["gauges"]["repro_scheduler_queue_depth"]
                ["samples"]
            }

        def depths():
            return {name: tenant["queue_depth"] for name, tenant
                    in scheduler.stats()["tenants"].items()}

        class Probe(StepExecutor):
            """Mid-run, the scrape-time gauge mirrors the live buffers."""

            def prepare(self, session, step):
                seen.append((depths(), gauge()))

        scheduler = Scheduler(executor=Probe(), lookahead=3)
        for name, seed in (("a", 2), ("b", 3)):
            scheduler.add(name, self._session(service, name),
                          drifting_stream(SDSS_PHASES, seed=seed))
        assert depths() == {"a": 0, "b": 0}
        scheduler.run()
        assert seen and all(depths == scraped for depths, scraped in seen)
        assert any(sum(depths.values()) > 0 for depths, __ in seen)
        # Run drains the buffers; both surfaces drop to zero together.
        assert depths() == gauge() == {"a": 0, "b": 0}

    def test_steps_counter_matches_stats(self, astro_catalog,
                                         fresh_registry):
        service = TuningService()
        service.add_backplane("sdss", astro_catalog)
        scheduler = Scheduler()
        scheduler.add("t", self._session(service, "t"),
                      drifting_stream(SDSS_PHASES, seed=2))
        stats = scheduler.run()
        reg = obs.metrics()
        snap = reg.snapshot()
        steps = snap["counters"]["repro_scheduler_steps_total"]["samples"]
        assert sum(s["value"] for s in steps) == stats["steps"]
        assert metric_value(reg, "repro_scheduler_events_started") \
            == stats["events"]


# ----------------------------------------------------------------------
# The fleet's overlap is shown, not inferred (ISSUE 19).
# ----------------------------------------------------------------------


class TestFleetOverlapTelemetry:
    def test_collect_wait_is_inside_prepare_and_inflight_ends_at_zero(
            self, astro_catalog, fresh_registry):
        from repro.runtime import ProcessStepExecutor

        service = TuningService(shards=2)
        service.add_backplane("sdss", astro_catalog)
        for name in ("a", "b"):
            service.add_tenant(name, "sdss", colt_settings=COLT,
                               recommend_every=4)
        with closing(ProcessStepExecutor(processes=2)) as executor:
            service.run_scheduled(
                {name: drifting_stream(SDSS_PHASES, seed=seed)
                 for name, seed in (("a", 2), ("b", 5))},
                executor=executor, lookahead=3,
            )
            inflight_open = metric_value(obs.metrics(),
                                         "repro_remote_inflight_tasks")
        registry = obs.metrics()
        snap = registry.snapshot()
        (wait,) = snap["histograms"][
            "repro_remote_collect_wait_seconds"]["samples"]
        spans = obs.tracer().export()
        assert len(spans) < 4096  # the ring dropped nothing
        total = {
            name: sum(s["duration"] for s in spans if s["name"] == name)
            for name in ("executor.prepare", "executor.refill",
                         "backplane.warm_up")
        }
        count = {
            name: sum(1 for s in spans if s["name"] == name) for name in total
        }
        # Every park happens inside a backplane.warm_up span, which is
        # opened only by a prepare that has something to wait for:
        # refills submit and return, window prepares find it resident.
        assert 0 < wait["sum"] <= total["backplane.warm_up"] \
            <= total["executor.prepare"]
        assert 0 < count["backplane.warm_up"] <= wait["count"]
        assert count["backplane.warm_up"] < count["executor.prepare"]
        parents = {s["span_id"]: s["name"] for s in spans}
        assert {parents[s["parent_id"]] for s in spans
                if s["name"] == "backplane.warm_up"} == {"executor.prepare"}
        # The run consumed everything it submitted; close() zeroes the
        # gauge whatever was left.
        assert inflight_open == 0
        assert metric_value(registry, "repro_remote_inflight_tasks") == 0
        rendered = registry.render_prometheus()
        assert "repro_remote_inflight_tasks 0" in rendered
        assert "repro_remote_collect_wait_seconds_bucket" in rendered


# ----------------------------------------------------------------------
# Satellite: TuningService.status() / status_text() field by field.
# ----------------------------------------------------------------------


class TestServiceStatus:
    @pytest.fixture(scope="class")
    def served(self, astro_catalog):
        obs.reset()
        service = TuningService(shards=2)
        service.add_backplane("sdss", astro_catalog)
        for name in ("alpha", "beta"):
            service.add_tenant(name, "sdss", colt_settings=COLT,
                               recommend_every=0)
        streams = {
            "alpha": drifting_stream(SDSS_PHASES, seed=2),
            "beta": drifting_stream(SDSS_PHASES, seed=3),
        }
        status = service.run_scheduled(streams)
        return service, status

    def test_status_tenant_fields(self, served):
        service, status = served
        assert set(status["tenants"]) == {"alpha", "beta"}
        for name, tenant in status["tenants"].items():
            session = service.tenant(name)
            assert tenant["tenant"] == name
            assert tenant["queries"] == session.queries == 12
            assert tenant["phase"] == "photometric"
            assert tenant["phases_seen"] == ["positional", "photometric"]
            assert tenant["epochs"] == len(session.tuner.report.epochs)
            assert tenant["alerts"] == session.tuner.report.alerts
            assert tenant["adoptions"] == session.tuner.report.adoptions
            assert tenant["drift_events"] == len(session.drift_events)
            assert tenant["observed_cost"] == pytest.approx(
                session.tuner.report.observed_cost)
            assert tenant["build_cost"] == pytest.approx(
                session.tuner.report.build_cost)
            assert tenant["whatif_probes"] \
                == session.tuner.report.whatif_probes
            assert tenant["configuration"] == tuple(
                sorted(ix.name for ix in session.tuner.current.indexes))
            assert tenant["recommendations"] == len(session.recommendations)
            assert isinstance(tenant["pending_alert"], bool)
            assert tenant["finished"] is True

    def test_status_backplane_and_runtime_fields(self, served):
        service, status = served
        plane = status["backplanes"]["sdss"]
        pool = service.backplane("sdss").pool
        assert sorted(plane["tenants"]) == ["alpha", "beta"]
        assert plane["shards"] == 2
        assert plane["pool_size"] == len(pool)
        assert plane["kernels"] == pool.kernel_count
        stats = pool.stats
        assert plane["hits"] == stats.hits
        assert plane["misses"] == stats.misses
        assert plane["evictions"] == stats.evictions
        assert plane["optimizer_calls"] == stats.optimizer_calls
        runtime = status["runtime"]
        assert runtime["active"] is False
        assert runtime["queue_depths"] == {"alpha": 0, "beta": 0}
        assert runtime["snapshots"] == 0
        assert runtime["last_snapshot_age"] is None

    def test_status_merges_obs_snapshot(self, served):
        service, __ = served
        snap = service.status()["obs"]
        # The collector mirror keeps the scraped pool counters equal to
        # the PoolStats the backplane itself reports.
        stats = service.backplane("sdss").pool.stats
        hits = snap["counters"]["repro_pool_hits_total"]["samples"]
        assert hits == [
            {"labels": {"backplane": "sdss"}, "value": stats.hits}
        ]
        queries = snap["counters"]["repro_tenant_queries_total"]["samples"]
        assert {s["labels"]["tenant"]: s["value"] for s in queries} \
            == {"alpha": 12, "beta": 12}
        assert "repro_evaluate_seconds" in snap["histograms"]

    def test_status_text_renders_every_surface(self, served):
        service, status = served
        text = service.status_text()
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["tenant", "phase", "queries"]
        for name in ("alpha", "beta"):
            row = [l for l in lines if l.startswith(name)][0]
            tenant = status["tenants"][name]
            fields = row.split()
            assert fields[1] == tenant["phase"]
            assert int(fields[2]) == tenant["queries"]
            assert int(fields[3]) == tenant["epochs"]
            assert int(fields[4]) == tenant["drift_events"]
            assert fields[-1] == (",".join(tenant["configuration"])
                                  or "(none)")
        plane_row = [l for l in lines if l.startswith("backplane")][0]
        assert "tenants=2" in plane_row and "shards=2" in plane_row
        runtime_row = [l for l in lines if l.startswith("runtime:")][0]
        assert "idle" in runtime_row and "queued=0" in runtime_row

    def test_metrics_server_serves_status(self, served):
        service, __ = served
        server = MetricsServer(status_fn=service.status).start()
        try:
            def fetch(path):
                with urllib.request.urlopen(server.url + path, timeout=10) \
                        as response:
                    return response.read().decode("utf-8")

            scraped = fetch("/metrics")
            assert "repro_pool_hits_total" in scraped
            assert "repro_evaluate_seconds_bucket" in scraped
            status = json.loads(fetch("/status"))
            assert status["tenants"]["alpha"]["queries"] == 12
            trace = json.loads(fetch("/trace"))
            names = {s["name"] for s in trace["spans"]}
            # Scheduled runs dispatch steps (not ingest() calls): the
            # step spans and their evaluate children must be present.
            assert "scheduler.step" in names
            assert "evaluate.batch" in names
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Satellite: merged snapshots stay consistent under concurrent updates.
# ----------------------------------------------------------------------


class TestConcurrentSnapshots:
    def test_snapshot_never_tears_under_fuzz(self):
        reg = MetricsRegistry()
        n_threads, n_ops = 4, 1500
        counter = reg.family(family("fuzz_total", COUNTER, "t"))
        hist = reg.family(family("fuzz_seconds", HISTOGRAM, "t"))
        start = threading.Barrier(n_threads + 1)

        def hammer(tid):
            c = counter.labels(t=tid)
            h = hist.labels(t=tid)
            start.wait()
            for __ in range(n_ops):
                c.inc()
                h.observe(1.0)  # every observation adds exactly 1.0

        threads = [
            threading.Thread(target=hammer, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        start.wait()
        # Snapshot continuously while the writers run: each view must be
        # internally consistent even though it races the increments.
        for __ in range(200):
            snap = reg.snapshot()
            for sample in snap["histograms"].get(
                    "fuzz_seconds", {"samples": ()})["samples"]:
                # sum == count exactly (all observations are 1.0) and
                # the bucket counts account for every observation: a
                # torn read would break one of these.
                assert sample["sum"] == sample["count"]
                assert sum(sample["bucket_counts"]) == sample["count"]
        for t in threads:
            t.join()
        for tid in range(n_threads):
            assert metric_value(reg, "fuzz_total", t=tid) == n_ops
        final = reg.snapshot()["histograms"]["fuzz_seconds"]["samples"]
        assert sum(s["count"] for s in final) == n_threads * n_ops

    def test_concurrent_drains_merge_exactly(self):
        """Worker-style drain/apply under concurrency loses nothing:
        the merged registry ends at the exact total."""
        source, target = MetricsRegistry(), MetricsRegistry()
        n_ops = 2000
        done = threading.Event()

        def writer():
            c = source.family(family("moved_total"))
            for __ in range(n_ops):
                c.inc()
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        while not done.is_set():
            target.apply_deltas(source.drain_deltas())
        thread.join()
        target.apply_deltas(source.drain_deltas())
        assert metric_value(target, "moved_total") == n_ops
