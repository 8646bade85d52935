"""The cooperative tenant scheduler: a fair run-queue of pulled streams.

The service's PR-2 ingest model was one blocking ``drain()`` thread per
tenant: opaque loops the host could neither pace, nor snapshot
mid-stream, nor offload.  The scheduler replaces those loops with an
explicit run-queue of :class:`~repro.runtime.steps.TenantTask` state
machines, advanced one :class:`~repro.runtime.steps.Step` at a time
from a single thread — the stale-synchronous shape: every worker-heavy
effect (cache builds) flows through the shared backplane as portable
derived state, while the scheduler keeps the per-tenant control state
small, explicit, and pausable.

* **Fairness** — equal shares: the unfinished task that has run the
  fewest steps runs next (registration order breaks ties).  Pause-point
  drains aside, the unfinished tenants' step counts never differ by
  more than one: a tenant with a 10x longer stream cannot starve its
  neighbors.
* **Executor seam** — refill batches and heavy steps are announced to
  the executor (see :mod:`repro.runtime.executor`) before running, so
  optimizer-heavy cache builds can move to worker processes
  (:class:`~repro.runtime.ProcessStepExecutor`) or across a runner
  fleet (:class:`~repro.runtime.RemoteStepExecutor`) while every step
  still runs inline, bit-identical to running each tenant's steps to
  exhaustion, one tenant after another.  ``refill`` hands each buffered
  event over and returns; ``prepare`` waits only for what the step
  about to run prices — a run-ahead bounded by ``lookahead``, not a
  barrier per refill, and dispatch order never depends on it.
* **Pause-point snapshots** — every ``snapshot_interval`` ingested
  events the scheduler drains in-flight events to their boundaries
  (buffered events untouched) and invokes ``on_snapshot``; the service
  wires this to :meth:`TuningService.snapshot`, which is what lets
  ``serve --snapshot-interval`` persist consistent state without
  stopping ingest.
"""

import time
from collections import OrderedDict

from repro import obs
from repro.obs.catalogue import (
    SCHEDULER_EVENTS_STARTED, SCHEDULER_QUEUE_DEPTH, SCHEDULER_STEPS,
    SCHEDULER_STEP_SECONDS, SPAN_SCHEDULER_STEP)
from repro.runtime.executor import StepExecutor
from repro.runtime.steps import TenantTask, event_sql
from repro.util import DesignError

__all__ = ["Scheduler"]

DEFAULT_LOOKAHEAD = 4


class Scheduler:
    """Drive many tenant tasks to completion, one step at a time.

    ``lookahead`` is how many events per tenant the refill phase
    buffers ahead of ingest — how far an executor's builds may run
    ahead of the step pricing them.  Every dispatch is recorded as a
    ``scheduler.step`` span tagged with its tenant and step kind.
    """

    def __init__(self, executor=None, lookahead=None, snapshot_interval=0,
                 on_snapshot=None):
        if snapshot_interval < 0:
            raise DesignError(
                "snapshot_interval must be >= 0, got %r"
                % (snapshot_interval,)
            )
        self.executor = executor if executor is not None else StepExecutor()
        self.lookahead = (
            lookahead if lookahead is not None else DEFAULT_LOOKAHEAD
        )
        self.snapshot_interval = snapshot_interval
        self.on_snapshot = on_snapshot
        self.steps = 0
        self._tasks = OrderedDict()
        self._snapshot_mark = 0
        # Scrape-time mirror of the run-queue shape (queue depths,
        # events started).  Held weakly by the registry: a retired
        # scheduler drops off the collector list with its last ref.
        obs.metrics().add_collector(self._collect_obs)

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def add(self, name, session, stream, finish=True):
        """Register *session* under *name*, fed by pulling *stream*."""
        if name in self._tasks:
            raise DesignError("task %r already scheduled" % (name,))
        task = TenantTask(
            name, session, stream, finish=finish, order=len(self._tasks),
        )
        self._tasks[name] = task
        return task

    @property
    def tasks(self):
        return list(self._tasks.values())

    def queue_depths(self):
        """Buffered-but-not-ingested event count per tenant."""
        return {name: task.queue_depth for name, task in self._tasks.items()}

    def pending_events(self):
        """The buffered events themselves, per tenant — what a snapshot
        must carry: they have already left their stream, so no replay
        from the stream offset re-derives them."""
        return {
            name: list(task.pending) for name, task in self._tasks.items()
        }

    @property
    def events_started(self):
        return sum(task.events_started for task in self._tasks.values())

    # ------------------------------------------------------------------
    # The run loop.
    # ------------------------------------------------------------------

    def _refill(self):
        """Pull each task's buffer up to ``lookahead`` and hand every
        newly buffered batch to the executor, grouped by evaluator, so
        one submission covers all tenants sharing a backplane."""
        batches = OrderedDict()  # id(evaluator) -> (evaluator, [sql])
        for task in self._tasks.values():
            if task.done:
                continue
            pulled = task.refill(self.lookahead)
            if not pulled:
                continue
            evaluator = task.session.evaluator
            entry = batches.get(id(evaluator))
            if entry is None:
                entry = (evaluator, [])
                batches[id(evaluator)] = entry
            entry[1].extend(event_sql(event) for event in pulled)
        for evaluator, statements in batches.values():
            self.executor.refill(evaluator, statements)

    def _dispatch(self, task):
        with obs.tracer().span(SPAN_SCHEDULER_STEP,
                               tenant=task.name) as span:
            t0 = time.perf_counter()
            step = task.run_step(self.executor)
            elapsed = time.perf_counter() - t0
            # The step kind is known only after the task state machine
            # advances; tag it in before the span closes.
            span.set_tag("kind", step.kind)
        registry = obs.metrics()
        registry.family(SCHEDULER_STEPS).labels(kind=step.kind).inc()
        registry.family(SCHEDULER_STEP_SECONDS).labels(
            kind=step.kind).observe(elapsed)
        self.steps += 1
        return step

    def drain_to_boundaries(self):
        """Finish every in-flight event (without starting new ones) so
        all tasks sit at an event boundary — the consistent pause
        point.  Buffered events stay buffered."""
        for task in self._tasks.values():
            while not task.done and not task.at_event_boundary:
                if task.next_step(start_new=False) is None:
                    break
                self._dispatch(task)

    def snapshot_now(self):
        """Drain to boundaries and invoke the snapshot callback."""
        self.drain_to_boundaries()
        self._snapshot_mark = self.events_started
        if self.on_snapshot is not None:
            self.on_snapshot(self)

    def run(self):
        """Dispatch until every task is done.  Returns run stats."""
        while True:
            self._refill()
            unfinished = [t for t in self._tasks.values() if not t.done]
            if not unfinished:
                break
            task = min(unfinished, key=lambda t: (t.steps_run, t.order))
            if task.next_step() is None:
                continue  # retired (done); re-plan
            self._dispatch(task)
            if (
                self.snapshot_interval
                and self.events_started - self._snapshot_mark
                >= self.snapshot_interval
            ):
                self.snapshot_now()
        return self.stats()

    def _collect_obs(self, registry):
        """Scrape-time mirror: per-tenant queue depth plus run-queue
        totals as gauges — exact for the instant of the scrape, zero
        cost on the dispatch path."""
        depth = registry.family(SCHEDULER_QUEUE_DEPTH)
        for name, task in self._tasks.items():
            depth.labels(tenant=name).set(task.queue_depth)
        registry.family(SCHEDULER_EVENTS_STARTED).set(
            self.events_started)

    def stats(self):
        return {
            "steps": self.steps,
            "events": self.events_started,
            "tenants": {
                name: {
                    "steps": task.steps_run,
                    "events": task.events_started,
                    "queue_depth": task.queue_depth,
                    "done": task.done,
                }
                for name, task in self._tasks.items()
            },
        }
