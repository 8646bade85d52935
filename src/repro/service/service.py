"""The TuningService: many tenants, one costing backplane per catalog.

The paper pitches the designer as an *interactive, continuously running*
advisor; the seed could only tune one workload in one blocking call.
This module is the long-lived service layer over the same components:

* one :class:`Backplane` per (catalog, settings) pair — a
  :class:`~repro.evaluation.ShardedInumCachePool` plus one shared
  :class:`~repro.evaluation.WorkloadEvaluator` every tenant on that
  catalog prices through.  INUM caches, exact per-configuration
  services, and memos built for one tenant are hits for the next;
* per-tenant :class:`~repro.service.tenant.TenantSession` objects, each
  advancing on its own COLT epochs against the shared, incrementally
  maintained caches (the stale-synchronous idea: tenants never wait for
  a global barrier, they just read whatever derived state is current);
* **warm-up** (:meth:`warm_up`) pre-building per-query caches, inline
  or offloaded through an executor, with identical entries either way;
* **scheduled ingest** (:meth:`run_scheduled`): every tenant's stream
  is pulled and advanced as resumable steps on the cooperative
  :class:`~repro.runtime.Scheduler` — equal shares, pause-point
  snapshots (``--snapshot-interval`` in the CLI), and an executor seam
  that can offload INUM cache builds through the one fan-out backplane
  (:class:`~repro.net.FleetBackplane`: forked worker processes or a
  fleet of runner nodes) — with results pinned bit-identical to
  running each tenant's steps to exhaustion in turn;
* a mergeable **status surface** (:meth:`status` /
  :meth:`status_text`): per-tenant session snapshots, per-backplane
  pool statistics, and runtime state (queue depths, snapshot age),
  cheap enough to poll.
"""

import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs
from repro.obs.catalogue import (
    POOL_ENTRIES, POOL_EVICTIONS, POOL_HITS, POOL_KERNELS, POOL_MISSES,
    POOL_OPTIMIZER_CALLS, SCHEDULER_SNAPSHOT_AGE, SCHEDULER_SNAPSHOTS,
    TENANT_QUERIES)
from repro.evaluation import ShardedInumCachePool, WorkloadEvaluator, wire
from repro.runtime import Scheduler, Step, StepExecutor
from repro.service.tenant import TenantSession
from repro.util import DesignError, WireFormatError

STATE_FILENAME = "service.json"


@dataclass
class Backplane:
    """One catalog's shared costing substrate inside the service."""

    key: str
    catalog: object
    settings: object
    pool: ShardedInumCachePool
    evaluator: WorkloadEvaluator
    tenants: list = field(default_factory=list, init=False)

    def warm_up(self, workload):
        """Pre-build INUM caches for *workload*; returns the optimizer
        calls spent."""
        return self.evaluator.warm_up(workload)

    def status(self):
        stats = self.pool.stats
        snapshot = stats.as_dict()
        snapshot.update(
            tenants=list(self.tenants),
            pool_size=len(self.pool),
            shards=self.pool.n_shards,
            hit_rate=stats.hit_rate,
            shard_stats=self.pool.shard_stats(),
            kernels=self.pool.kernel_count,
        )
        return snapshot


class TuningService:
    """Hosts many concurrent tenant sessions over shared backplanes.

    ``shards`` and ``pool_capacity`` size every backplane's cache pool
    (``shards=1`` degenerates to the flat single-lock pool).

    Typical use::

        service = TuningService(shards=4)
        service.add_backplane("sdss", sdss_catalog(scale=0.1))
        service.add_tenant("astro-1", "sdss", recommend_every=50)
        service.warm_up("sdss", first_phase_queries)
        service.run_scheduled({"astro-1": drifting_stream(...)})
        print(service.status_text())
    """

    def __init__(self, shards=4, pool_capacity=None):
        self.shards = shards
        self.pool_capacity = pool_capacity
        self._backplanes = OrderedDict()
        self._tenants = OrderedDict()
        self._lock = threading.RLock()  # guards the two registries
        self._runtime = None  # the active Scheduler during run_scheduled
        self._pause_point = False  # inside the scheduler's snapshot hook
        self._pending = {}  # tenant -> restored not-yet-ingested events
        self._snapshots = 0  # pause points and save_state: the one count
        self._last_snapshot_time = None
        # Scrape-time mirror of pool statistics, tenant counters and
        # snapshots: the registry's counters match PoolStats to the unit
        # because they are *set from* PoolStats at collect time, never
        # counted separately.  Held weakly; dies with the service.
        obs.metrics().add_collector(self._collect_obs)

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def add_backplane(self, key, catalog, settings=None):
        """Register a catalog under *key*; tenants join it by key."""
        with self._lock:
            if key in self._backplanes:
                raise DesignError("backplane %r already registered" % (key,))
            pool = ShardedInumCachePool(
                shards=self.shards, capacity=self.pool_capacity
            )
            evaluator = WorkloadEvaluator(catalog, settings, pool=pool)
            backplane = Backplane(
                key=key,
                catalog=catalog,
                settings=evaluator.settings,
                pool=pool,
                evaluator=evaluator,
            )
            self._backplanes[key] = backplane
            return backplane

    def backplane(self, key):
        try:
            return self._backplanes[key]
        except KeyError:
            raise DesignError(
                "unknown backplane %r (registered: %s)"
                % (key, ", ".join(self._backplanes) or "none")
            ) from None

    def add_tenant(self, name, backplane, **session_options):
        """Create a :class:`TenantSession` named *name* on *backplane*
        (a key previously passed to :meth:`add_backplane`).  Extra
        keyword options go to the session constructor."""
        with self._lock:
            if name in self._tenants:
                raise DesignError("tenant %r already registered" % (name,))
            plane = self.backplane(backplane)
            session = TenantSession(name, plane.evaluator, **session_options)
            self._tenants[name] = session
            plane.tenants.append(name)
            return session

    def tenant(self, name):
        try:
            return self._tenants[name]
        except KeyError:
            raise DesignError(
                "unknown tenant %r (registered: %s)"
                % (name, ", ".join(self._tenants) or "none")
            ) from None

    # ------------------------------------------------------------------
    # Warm-up and ingest.
    # ------------------------------------------------------------------

    def warm_up(self, backplane, workload, executor=None):
        """Pre-build *backplane*'s caches for *workload*.

        With *executor* (a :class:`~repro.runtime.ProcessStepExecutor`
        or :class:`~repro.runtime.RemoteStepExecutor`) the builds are
        offloaded — across worker processes or the runner fleet — as a
        heavy step about to price *workload* (``prepare`` returns with
        every entry resident; ``refill`` would only submit), the
        entries bit-identical either way.  The trailing inline pass is
        a residency check that also covers anything the offload could
        not ship (and returns the optimizer calls it spent, like the
        plain path)."""
        plane = self.backplane(backplane)
        if executor is not None:
            executor.prepare(plane, Step(
                "warm", run=None, prewarm=tuple(workload),
            ))
        return plane.warm_up(workload)

    def run_scheduled(self, streams, executor=None, finish=True,
                      lookahead=None, snapshot_interval=0, state_dir=None,
                      on_snapshot=None):
        """Drive tenant streams on the cooperative scheduler.

        Tenants advance as resumable steps, interleaved from one
        thread, with per-tenant results pinned bit-identical to
        draining each stream in turn.

        ``executor`` is the heavy-step seam — ``None`` means inline
        (every build happens in the step that prices it); a
        :class:`~repro.runtime.ProcessStepExecutor` offloads INUM cache
        builds to worker processes, a
        :class:`~repro.runtime.RemoteStepExecutor` fans them across a
        runner fleet (both bit-identical in results).  An executor
        created here is closed here; a caller-provided one is left open
        for reuse.

        ``lookahead`` is the per-tenant prewarm read-ahead.  Every
        ``snapshot_interval`` ingested events the scheduler pauses at a
        consistent event boundary and takes :meth:`snapshot` — written
        to ``state_dir`` when given, and passed to ``on_snapshot`` when
        given.  Events restored with a snapshot's scheduler state are
        re-queued ahead of each tenant's stream automatically.

        If the run raises, events still buffered are re-captured into
        the service's pending state so a later :meth:`snapshot` keeps
        them; this is best-effort — an event whose steps were mid-flight
        when the error hit cannot be recovered, so hosts wanting crash
        consistency should restart from the last ``snapshot_interval``
        write rather than the post-error in-memory state.

        Returns the final status snapshot.
        """
        # Resolve every name before touching the restored buffers: an
        # unknown tenant must not cost a known one its pending events.
        sessions = {name: self.tenant(name) for name in streams}
        owned = executor is None
        executor = executor if executor is not None else StepExecutor()
        hook = None
        if snapshot_interval:
            hook = self._snapshot_hook(state_dir, on_snapshot)
        scheduler = Scheduler(
            executor=executor,
            lookahead=lookahead,
            snapshot_interval=snapshot_interval,
            on_snapshot=hook,
        )
        for name, stream in streams.items():
            restored = self._pending.pop(name, None)
            if restored:
                stream = itertools.chain(restored, stream)
            scheduler.add(name, sessions[name], stream, finish=finish)
        self._runtime = scheduler
        try:
            scheduler.run()
        finally:
            # Re-capture any events still buffered (a run that raised
            # mid-stream leaves them behind): they have left their
            # stream, so no replay re-derives them, and losing them here
            # would make a later save_state() silently incomplete.
            for name, events in scheduler.pending_events().items():
                if events:
                    self._pending[name] = list(events)
            self._runtime = None
            if owned:
                executor.close()
        return self.status()

    def _snapshot_hook(self, state_dir, on_snapshot):
        def hook(scheduler):
            self._pause_point = True
            try:
                payload = self.snapshot()
            finally:
                self._pause_point = False
            if state_dir is not None:
                self._write_state(state_dir, payload)
            self._snapshots += 1
            self._last_snapshot_time = time.monotonic()
            if on_snapshot is not None:
                on_snapshot(payload)
        return hook

    def stream_offset(self, name):
        """How many events of *name*'s original stream are accounted for
        — ingested by the session plus restored-but-pending in the
        scheduler state.  A host replaying a deterministic stream after
        :meth:`restore` resumes it from this offset."""
        return self.tenant(name).queries + len(self._pending.get(name, ()))

    # ------------------------------------------------------------------
    # Snapshot / restore (wire format).
    # ------------------------------------------------------------------

    def snapshot(self):
        """The whole service's tenant state as one wire-format payload.

        Catalogs are *not* embedded: backplanes are re-registered by the
        host on restart (they carry the heavyweight live objects), and
        each tenant's snapshot records which backplane key it belongs
        to.  Pool contents are rebuilt on demand — they are a cache,
        not state — and so are the plan terms the evaluators remember
        per statement: a snapshot carries no entries to seed them from,
        so a restored service plans each statement once more, with the
        same results.

        When a scheduler run is active the snapshot also carries the
        scheduler's per-tenant pending buffers (events pulled from the
        stream but not yet ingested) — taken at a pause point, this
        makes a mid-ingest snapshot complete: sessions reflect exactly
        the ingested prefix, and the buffered events ride along so
        nothing is lost even when the stream cannot be replayed.

        During an active run, only the scheduler itself may snapshot
        (via ``run_scheduled(snapshot_interval=…)``), because it first
        drains in-flight events to their boundaries; a direct call from
        another thread would capture sessions mid-event and race the
        live buffers, so it is refused loudly."""
        if self._runtime is not None and not self._pause_point:
            raise DesignError(
                "snapshot() during an active scheduler run is only "
                "consistent at a pause point; use "
                "run_scheduled(snapshot_interval=..., state_dir=...) "
                "for periodic mid-ingest snapshots"
            )
        with self._lock:
            tenant_keys = {
                name: key
                for key, plane in self._backplanes.items()
                for name in plane.tenants
            }
            pending = dict(self._pending)
            if self._runtime is not None:
                for name, events in self._runtime.pending_events().items():
                    if events:
                        pending[name] = events
            return {
                "kind": wire.KIND_SERVICE,
                "tenants": [
                    {
                        "backplane": tenant_keys[name],
                        "session": session.snapshot(),
                    }
                    for name, session in self._tenants.items()
                ],
                "scheduler": {
                    "pending": {
                        name: [wire.event_to_wire(e) for e in events]
                        for name, events in pending.items()
                        if events
                    },
                },
            }

    def restore(self, payload):
        """Rebuild every tenant session from a :meth:`snapshot` payload.

        The host must have re-registered (at least) the backplanes the
        snapshot's tenants reference, over equivalent catalogs; restored
        tenants then continue their streams exactly where the snapshot
        left them.  Returns the restored sessions by name.  A payload
        that does not decode raises a :class:`~repro.util.ReproError`
        and changes nothing."""
        wire.conform(payload, wire.SHAPES[wire.KIND_SERVICE],
                     "service snapshot")
        with self._lock:
            # All-or-nothing: validate names/backplanes and materialize
            # every session and pending event *before* registering any,
            # so a snapshot with a missing backplane or one malformed
            # session payload fails cleanly and the retry — after the
            # operator fixes it — starts from scratch instead of
            # tripping over a half-restored service.
            planes = {}
            for entry in payload["tenants"]:
                plane = self.backplane(entry["backplane"])
                name = entry["session"]["name"]
                if name in self._tenants or name in planes:
                    raise DesignError(
                        "tenant %r already registered" % (name,)
                    )
                planes[name] = plane
            pending = {}
            for name, events in payload["scheduler"]["pending"].items():
                if name not in planes:
                    raise WireFormatError(
                        "pending events for %r, a tenant the snapshot "
                        "does not restore" % (name,)
                    )
                pending[name] = [
                    wire.event_from_wire(e, planes[name].catalog)
                    for e in events
                ]
            restored = {
                name: TenantSession.from_snapshot(
                    entry["session"], planes[name].evaluator
                )
                for name, entry in zip(planes, payload["tenants"])
            }
            for name, session in restored.items():
                self._tenants[name] = session
                planes[name].tenants.append(name)
            self._pending.update(pending)
            return restored

    def save_state(self, state_dir):
        """Write the service snapshot to ``<state_dir>/service.json``
        (atomic rename, so a crash mid-write never corrupts the last
        good snapshot).  Returns the path written."""
        path = self._write_state(state_dir, self.snapshot())
        self._snapshots += 1
        self._last_snapshot_time = time.monotonic()
        return path

    def _write_state(self, state_dir, payload):
        # The new bytes are on disk before the rename publishes them, and
        # the rename is on disk before the write is reported done.
        os.makedirs(state_dir, exist_ok=True)
        path = os.path.join(state_dir, STATE_FILENAME)
        scratch = path + ".tmp"
        with open(scratch, "w") as f:
            f.write(wire.dumps(payload, indent=2))
            f.flush()
            os.fsync(f.fileno())
        os.replace(scratch, path)
        directory = os.open(state_dir, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        return path

    def load_state(self, state_dir):
        """Restore tenants from ``<state_dir>/service.json`` if present;
        returns the restored sessions by name (empty dict when the
        directory holds no snapshot — a cold start)."""
        path = os.path.join(state_dir, STATE_FILENAME)
        if not os.path.exists(path):
            return {}
        with open(path) as f:
            payload = wire.loads(f.read())
        return self.restore(payload)

    # ------------------------------------------------------------------
    # Monitoring.
    # ------------------------------------------------------------------

    def queue_depths(self):
        """Buffered-but-not-ingested events per tenant: live scheduler
        buffers during a run, restored pending buffers between runs."""
        if self._runtime is not None:
            return self._runtime.queue_depths()
        return {name: len(self._pending.get(name, ()))
                for name in self._tenants}

    def _collect_obs(self, registry):
        """Scrape-time mirror of pool, tenant and snapshot accounting.

        Counter families are *set* from the same lock-exact
        :class:`~repro.evaluation.pool.PoolStats` snapshots
        :meth:`status` reports, so a scrape and a status call taken at
        the same quiet instant agree to the unit — and the costing hot
        path carries zero extra bookkeeping."""
        with self._lock:
            planes = list(self._backplanes.items())
            sessions = list(self._tenants.items())
        hits = registry.family(POOL_HITS)
        misses = registry.family(POOL_MISSES)
        evictions = registry.family(POOL_EVICTIONS)
        builds = registry.family(POOL_OPTIMIZER_CALLS)
        entries = registry.family(POOL_ENTRIES)
        kernels = registry.family(POOL_KERNELS)
        for key, plane in planes:
            stats = plane.pool.stats
            hits.labels(backplane=key).set(stats.hits)
            misses.labels(backplane=key).set(stats.misses)
            evictions.labels(backplane=key).set(stats.evictions)
            builds.labels(backplane=key).set(stats.optimizer_calls)
            entries.labels(backplane=key).set(len(plane.pool))
            kernels.labels(backplane=key).set(plane.pool.kernel_count)
        queries = registry.family(TENANT_QUERIES)
        for name, session in sessions:
            queries.labels(tenant=name).set(session.queries)
        if self._last_snapshot_time is not None:
            registry.family(SCHEDULER_SNAPSHOTS).set(self._snapshots)
            registry.family(SCHEDULER_SNAPSHOT_AGE).set(
                time.monotonic() - self._last_snapshot_time)

    def status(self):
        """Mergeable point-in-time snapshot of every tenant and pool."""
        # Monotonic difference: snapshot age must not jump when the
        # wall clock is adjusted (NTP slew, DST) under a long-lived
        # service.
        age = None
        if self._last_snapshot_time is not None:
            age = time.monotonic() - self._last_snapshot_time
        return {
            "tenants": {
                name: session.status()
                for name, session in self._tenants.items()
            },
            "backplanes": {
                key: plane.status()
                for key, plane in self._backplanes.items()
            },
            "runtime": {
                "active": self._runtime is not None,
                "queue_depths": self.queue_depths(),
                "snapshots": self._snapshots,
                "last_snapshot_age": age,
            },
            # The merged telemetry registry (collectors run first, so
            # pool/scheduler mirrors are current): one JSON-safe view
            # of every counter, gauge, and histogram.
            "obs": obs.metrics().snapshot(),
        }

    def status_text(self):
        """The status snapshot as the terminal panel ``serve`` prints."""
        snapshot = self.status()
        depths = snapshot["runtime"]["queue_depths"]
        lines = [
            "%-12s %-10s %8s %7s %7s %6s %6s %6s %6s  %s"
            % ("tenant", "phase", "queries", "epochs", "drifts",
               "alerts", "adopt", "recs", "queue", "configuration")
        ]
        for name, t in snapshot["tenants"].items():
            lines.append(
                "%-12s %-10s %8d %7d %7d %6d %6d %6d %6d  %s"
                % (
                    name,
                    t["phase"] or "-",
                    t["queries"],
                    t["epochs"],
                    t["drift_events"],
                    t["alerts"],
                    t["adoptions"],
                    t["recommendations"],
                    depths.get(name, 0),
                    ",".join(t["configuration"]) or "(none)",
                )
            )
        for key, plane in snapshot["backplanes"].items():
            lines.append(
                "backplane %-8s tenants=%d shards=%d entries=%d "
                "kernels=%d hits=%d misses=%d evictions=%d builds=%d "
                "hit_rate=%.2f"
                % (
                    key,
                    len(plane["tenants"]),
                    plane["shards"],
                    plane["pool_size"],
                    plane["kernels"],
                    plane["hits"],
                    plane["misses"],
                    plane["evictions"],
                    plane["optimizer_calls"],
                    plane["hit_rate"],
                )
            )
        runtime = snapshot["runtime"]
        age = runtime["last_snapshot_age"]
        lines.append(
            "runtime: %s snapshots=%d last_snapshot_age=%s queued=%d"
            % (
                "scheduling" if runtime["active"] else "idle",
                runtime["snapshots"],
                "%.1fs" % age if age is not None else "-",
                sum(runtime["queue_depths"].values()),
            )
        )
        return "\n".join(lines)
