"""Resumable tenant steps: the unit of work the scheduler dispatches.

A :class:`Step` is one small, non-reentrant piece of a tenant session's
ingest/epoch/refresh machinery — produced by
:meth:`~repro.service.tenant.TenantSession.ingest_steps` and
:meth:`~repro.service.tenant.TenantSession.finish_steps` — together
with the metadata the scheduler needs to place it: the SQL statements
whose optimizer-heavy INUM cache builds the step may issue
(``prewarm``; empty for a light step), so a process-offload executor
can warm the shared pool *before* the step runs inline.

A :class:`TenantTask` wraps one session plus its event stream and
exposes the session as an explicit state machine: pull an event, run
its steps one at a time, finish.  Between any two steps the task is
suspended — that gap is the scheduler's dispatch point, and the gap
between two *events* (``at_event_boundary``) is the consistent pause
point where a snapshot of the session can be taken mid-stream.
"""

from collections import deque
from dataclasses import dataclass

from repro.util import DesignError

__all__ = ["Step", "TenantTask", "event_sql"]


def event_sql(event):
    """The SQL text of a stream event (``(phase, sql)`` or plain SQL)."""
    return event[1] if isinstance(event, tuple) else event


@dataclass(frozen=True)
class Step:
    """One resumable unit of tenant work.

    ``run`` performs the step (bound to the owning session); ``prewarm``
    lists the SQL whose INUM caches the step will price — empty when it
    issues no optimizer-heavy cache build — so an executor can build
    them out-of-process first (results-neutral: caches are pure
    functions of the bound query, catalog, and settings).
    """

    kind: str  # "drift" | "observe" | "refresh" | "flush" | "final"
    run: object  # zero-argument callable
    prewarm: tuple = ()


class TenantTask:
    """One tenant session driven step-by-step by the scheduler.

    ``stream`` is the tenant's event iterable; the scheduler refills the
    task's buffer (``pending``) ahead of ingest, which is what gives the
    offload executor whole batches of upcoming statements to warm
    across worker processes.  The task itself is not thread-safe; the
    cooperative scheduler drives every task from one thread.
    """

    def __init__(self, name, session, stream, finish, order):
        self.name = name
        self.session = session
        self.finish = finish
        self.order = order  # registration index, the fairness tie-break
        self.pending = deque()  # pulled events, not yet ingested
        self.done = False
        self.steps_run = 0
        self.events_started = 0
        self._stream = iter(stream)
        self._source_done = False  # the stream is exhausted
        self._gen = None  # active step generator (one event, or finish)
        self._next = None  # staged step, not yet run
        self._finishing = False

    # ------------------------------------------------------------------
    # Event intake.
    # ------------------------------------------------------------------

    @property
    def queue_depth(self):
        """Events buffered but not yet ingested."""
        return len(self.pending)

    def refill(self, lookahead):
        """Pull events from the stream until ``lookahead`` are buffered;
        returns the newly pulled events so the executor can prewarm
        their caches as one batch."""
        pulled = []
        while not self._source_done and len(self.pending) < lookahead:
            try:
                event = next(self._stream)
            except StopIteration:
                self._source_done = True
                break
            self.pending.append(event)
            pulled.append(event)
        return pulled

    # ------------------------------------------------------------------
    # Step dispatch.
    # ------------------------------------------------------------------

    @property
    def at_event_boundary(self):
        """True between events: no step generator is mid-flight, so the
        session's snapshot is consistent (every ingested event is fully
        ingested, every buffered event untouched)."""
        return self._gen is None and self._next is None

    def next_step(self, start_new=True):
        """Stage and return the task's next step, or ``None``.

        ``start_new=False`` never begins a new event — it only advances
        an in-flight one — which is how the scheduler drains every task
        to an event boundary before snapshotting.  ``None`` with
        ``done`` unset means the task sits at such a boundary."""
        if self.done:
            return None
        if self._next is not None:
            return self._next
        while True:
            if self._gen is not None:
                step = next(self._gen, None)
                if step is not None:
                    self._next = step
                    return step
                self._gen = None
                if self._finishing:
                    self.done = True
                    return None
                continue
            if not start_new:
                return None
            if self.pending:
                event = self.pending.popleft()
                self.events_started += 1
                self._gen = self.session.ingest_steps(event)
                continue
            if not self._source_done:
                self.refill(1)
                continue  # pulled one, or the stream just ended
            if self.finish and not self._finishing:
                self._finishing = True
                self._gen = self.session.finish_steps()
                continue
            self.done = True
            return None

    def run_step(self, executor):
        """Run the staged step inline (after giving *executor* its
        prewarm shot) and count it — the count is the fairness key."""
        step = self._next
        if step is None:
            raise DesignError(
                "no step staged for tenant task %r" % (self.name,)
            )
        self._next = None
        executor.prepare(self.session, step)
        step.run()
        self.steps_run += 1
        return step
