"""One tenant's continuously tuned session inside the TuningService.

A tenant is a stream of query events over one catalog.  The session
wraps the paper's Scenario-3 machinery — a COLT epoch loop observing
every query — and adds what a long-lived service needs on top:

* **streaming ingest** of ``(phase, sql)`` events (plain SQL works too),
* **drift detection at phase boundaries**: when the event's phase tag
  changes, the session records a drift event, restores COLT's full
  probing budget (:meth:`~repro.colt.ColtTuner.notify_workload_shift`),
  and reviews the design against the window that just went stale,
* **periodic** :meth:`~repro.designer.facade.Designer.recommend`
  **refreshes** over a sliding window of recent queries — the "full
  advisor" pass COLT's single-column candidates cannot replace,
* a **status snapshot** for the service's monitoring surface.

Tenants advance on their own epochs; everything expensive (INUM cache
builds, exact optimizer plans) flows through the shared backplane
evaluator, so work one tenant pays for is a cache hit for the next.
A session is advanced as resumable steps (:meth:`ingest_steps`,
:meth:`finish_steps`) by the cooperative
:class:`~repro.runtime.Scheduler`, which runs every session sharing an
evaluator from its one thread.
"""

import time
from collections import deque
from functools import partial

from repro import obs
from repro.obs.catalogue import (
    SPAN_TENANT_REFRESH, TENANT_DRIFT, TENANT_EVENTS, TENANT_REFRESHES,
    TENANT_REFRESH_SECONDS)
from repro.colt.tuner import (
    ColtSettings, DriftEvent, RecommendationRecord, TenantState)
from repro.designer.facade import Designer
from repro.runtime.steps import Step
from repro.sql.binder import bind_statement
from repro.util import DesignError

# The refresh policy every tenant runs: a design review at every phase
# boundary, index-only greedy selection within a quarter of the
# catalog's pages.
BUDGET_FRAC = 0.25
SOLVER = "greedy"
PARTITIONS = False


def colt_budget_pages(catalog):
    """COLT's space budget when none is given: half the catalog's
    pages, twice a refresh's."""
    return int(sum(t.pages for t in catalog.tables) * 0.5)


class TenantSession:
    """Continuous tuning of one tenant's stream over a shared backplane.

    ``evaluator`` is typically a backplane-shared
    :class:`~repro.evaluation.WorkloadEvaluator`; a private one works
    identically (that equivalence is pinned in the test suite — shared
    caches only dedupe deterministic work, they never change results).

    ``recommend_every`` triggers a full-advisor refresh every N ingested
    queries (0 disables interval refreshes); one also runs at every
    phase boundary, and the closing steps end with one.  A
    refresh prices the last ``window`` queries with the ``SOLVER``
    index advisor within ``BUDGET_FRAC`` of the catalog's total pages.
    """

    partitions = PARTITIONS  # read by the perf ledger's online workloads

    def __init__(self, name, evaluator, colt_settings=None,
                 recommend_every=0, window=50):
        if window < 1:
            raise DesignError("a refresh window needs at least one query, "
                              "got %r" % (window,))
        self.name = name
        self.catalog = catalog = evaluator.catalog
        self.evaluator = evaluator
        self.designer = Designer(catalog, evaluator)
        if colt_settings is None:
            colt_settings = ColtSettings(
                space_budget_pages=colt_budget_pages(catalog))
        self.tuner = self.designer.continuous_tuner(colt_settings)
        self.recommend_every = recommend_every
        self.window = deque(maxlen=window)
        self.budget_pages = int(
            sum(t.pages for t in catalog.tables) * BUDGET_FRAC
        )
        self.queries = 0
        self.drift_events = []
        self.recommendations = []
        self.last_recommendation = None  # full FullRecommendation object
        self._phases_seen = []
        self._finished = False

    @property
    def _phase(self):
        """The phase of the last tagged event (``None`` before one)."""
        return self._phases_seen[-1] if self._phases_seen else None

    # ------------------------------------------------------------------
    # Streaming ingest, decomposed into resumable steps.
    # ------------------------------------------------------------------

    def ingest_steps(self, event):
        """One event's ingest as a lazy sequence of resumable
        :class:`~repro.runtime.Step`\\ s, with an explicit pause point
        between steps.

        Steps for a ``(phase, sql)`` event, in order:

        1. ``drift`` (phase boundary only): record the drift event,
           restore COLT's probing budget, review the stale window —
           heavy when a drift refresh will run;
        2. ``observe``: count the query, slide the window, feed COLT —
           heavy because probing (and a closing epoch) builds the
           query's INUM cache;
        3. ``refresh`` (interval due only): the full-advisor pass over
           the window.

        Each condition is evaluated when the *previous* step has run
        (generators advance lazily), so the scheduler may run other
        sessions' steps between two of them and the event still ingests
        as if its steps ran back to back.
        """
        if isinstance(event, tuple):
            phase, sql = event
        else:
            phase, sql = None, event
        if phase is not None and phase != self._phase:
            yield Step(
                "drift",
                run=partial(self._drift_step, phase),
                prewarm=tuple(self.window) if self._phase is not None else (),
            )
        prewarm = (sql,)
        if self.tuner.will_end_epoch:
            # The closing epoch re-prices every query it observed.
            prewarm += self.tuner.pending_queries
        yield Step(
            "observe",
            run=partial(self._observe_step, sql),
            prewarm=prewarm,
        )
        if self.recommend_every and self.queries % self.recommend_every == 0:
            yield Step(
                "refresh",
                run=partial(self._refresh, "interval"),
                prewarm=tuple(self.window),
            )

    def _drift_step(self, phase):
        previous = self._phase
        self._phases_seen.append(phase)
        if previous is not None:
            obs.metrics().family(TENANT_DRIFT).labels(
                tenant=self.name).inc()
            self.drift_events.append(
                DriftEvent(
                    at_query=self.queries,
                    from_phase=previous,
                    to_phase=phase,
                )
            )
            # The host *knows* the mix shifted; skip COLT's discovery
            # lag and review the design the old phase tuned for.
            self.tuner.notify_workload_shift()
            if self.window:
                self._refresh("drift")

    def _observe_step(self, sql):
        self.queries += 1
        self.window.append(sql)
        # Counts exactly what ``queries`` counts — the scrape-time
        # mirror in the service sets repro_tenant_queries_total from
        # the attribute, this one moves with the event itself.
        obs.metrics().family(TENANT_EVENTS).labels(
            tenant=self.name).inc()
        self.tuner.observe(sql)

    def finish_steps(self):
        """The closing steps — flush the trailing COLT epoch, run the
        final design review — as resumable steps.  Empty when already
        finished."""
        if self._finished:
            return
        yield Step(
            "flush",
            run=self.tuner.flush,
            prewarm=self.tuner.pending_queries,
        )
        if self.window:
            yield Step(
                "final",
                run=partial(self._refresh, "final"),
                prewarm=tuple(self.window),
            )
        self._finished = True

    # ------------------------------------------------------------------
    # Design refreshes.
    # ------------------------------------------------------------------

    def _refresh(self, trigger):
        with obs.tracer().span(SPAN_TENANT_REFRESH, tenant=self.name,
                               trigger=trigger):
            t0 = time.perf_counter()
            rec = self.designer.recommend(
                list(self.window),
                storage_budget_pages=self.budget_pages,
                solver=SOLVER,
                partitions=PARTITIONS,
                schedule=False,
            )
            elapsed = time.perf_counter() - t0
        registry = obs.metrics()
        registry.family(TENANT_REFRESHES).labels(
            trigger=trigger).inc()
        registry.family(TENANT_REFRESH_SECONDS).observe(elapsed)
        self.last_recommendation = rec
        self.recommendations.append(
            RecommendationRecord(
                at_query=self.queries,
                phase=self._phase,
                trigger=trigger,
                indexes=tuple(
                    sorted(
                        ix.name for ix in rec.index_recommendation.indexes
                    )
                ),
                improvement_pct=rec.improvement_pct,
            )
        )
        return rec

    # ------------------------------------------------------------------
    # Snapshot / restore (wire format).
    # ------------------------------------------------------------------

    def snapshot(self):
        """The session's full state as a
        :class:`~repro.colt.tuner.TenantState` — a copy, as the tuner's
        is: the construction knobs, the window, the phases seen, drift
        events, recommendation records and the tuner's state, so
        :meth:`from_snapshot` over the same catalog and evaluator
        continues the stream exactly where it stopped.
        ``last_recommendation`` (a live object graph) is summarized by
        its record."""
        return TenantState(
            name=self.name,
            colt_settings=self.tuner.settings,
            recommend_every=self.recommend_every,
            window=self.window.maxlen,
            queries=self.queries,
            phases_seen=tuple(self._phases_seen),
            window_queries=tuple(self.window),
            finished=self._finished,
            drift_events=tuple(self.drift_events),
            recommendations=tuple(self.recommendations),
            tuner=self.tuner.snapshot_state(),
        )

    @classmethod
    def from_snapshot(cls, state, evaluator):
        """Rebuild a session from a :meth:`snapshot` record over the
        host-provided *evaluator* and its catalog (state is portable, the
        costing substrate is re-provided — exactly like the INUM cache
        entries themselves).  A state the session could not run on
        raises a :class:`~repro.util.ReproError`."""
        for sql in state.window_queries:
            # Checked now: every refresh re-prices them.
            bind_statement(sql, evaluator.catalog)
        session = cls(
            state.name,
            evaluator,
            colt_settings=state.colt_settings,
            recommend_every=state.recommend_every,
            window=state.window,
        )
        session.queries = state.queries
        session._phases_seen = list(state.phases_seen)
        session.window.extend(state.window_queries)
        session._finished = state.finished
        session.drift_events = list(state.drift_events)
        session.recommendations = list(state.recommendations)
        session.tuner.restore_state(state.tuner)
        return session

    # ------------------------------------------------------------------
    # Monitoring.
    # ------------------------------------------------------------------

    @property
    def report(self):
        """The COLT per-epoch report (Scenario 3's panel)."""
        return self.tuner.report

    def status(self):
        """A point-in-time metrics snapshot (plain data, JSON-friendly)."""
        report = self.tuner.report
        last = self.recommendations[-1] if self.recommendations else None
        return {
            "tenant": self.name,
            "queries": self.queries,
            "phase": self._phase,
            "phases_seen": list(self._phases_seen),
            "epochs": len(report.epochs),
            "alerts": report.alerts,
            "adoptions": report.adoptions,
            "drift_events": len(self.drift_events),
            "observed_cost": report.observed_cost,
            "build_cost": report.build_cost,
            "whatif_probes": report.whatif_probes,
            "configuration": tuple(
                sorted(ix.name for ix in self.tuner.current.indexes)
            ),
            "pending_alert": self.tuner.pending_alert is not None,
            "recommendations": len(self.recommendations),
            "last_recommendation": last.indexes if last else (),
            "finished": self._finished,
        }
