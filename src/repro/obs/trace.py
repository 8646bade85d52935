"""Span tracing: where a tenant's ingest latency actually goes.

A :class:`Span` is one timed region with a name, key/value tags, and a
parent — pool ``get_or_build`` builds, kernel compiles,
``evaluate_many`` sweeps, scheduler step dispatches, tenant
ingest/refresh passes, BIP solves.  The :class:`Tracer` propagates the
current span through a :mod:`contextvars` variable, so nesting falls
out of lexical ``with`` structure (and never leaks across threads —
each thread roots its own trace unless a parent context is passed
explicitly).

Cross-process stitching: a parent-side caller captures
:meth:`Tracer.current_context` and ships it with the task; the worker
opens its spans with ``remote_parent=ctx`` so they join the parent's
trace, then :meth:`Tracer.drain` hands the finished spans (plain
dicts) back over the wire and :meth:`Tracer.ingest` appends them to the
parent's buffer.  Finished spans live in a bounded ring buffer — the
``/trace`` endpoint exports a recent window, not an unbounded log.
"""

import contextvars
import itertools
import os
import threading
import time
from collections import deque

__all__ = ["Span", "Tracer"]

_DEFAULT_LIMIT = 4096


class Span:
    """One in-flight timed region, usable directly as a context manager.
    ``set_tag`` attaches metadata while the region runs; timing and
    recording happen on ``with`` exit.  The wall-clock start is derived
    from the tracer's cached (wall, perf_counter) base rather than a
    second clock read — opening a span is a single timer call."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "tags",
                 "_tracer", "_token", "_t0", "duration", "error")

    def __init__(self, tracer, name, trace_id, span_id, parent_id, tags):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.tags = tags
        self._tracer = tracer
        self._token = None
        self._t0 = time.perf_counter()
        self.duration = None
        self.error = None

    @property
    def start_wall(self):
        tracer = self._tracer
        return tracer._wall_base + (self._t0 - tracer._perf_base)

    def set_tag(self, key, value):
        self.tags[key] = value

    def __enter__(self):
        self._token = self._tracer._current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.error = "%s: %s" % (exc_type.__name__, exc)
        tracer = self._tracer
        tracer._current.reset(self._token)
        tracer._record(self)
        return False

    def to_dict(self):
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start_wall,
            "duration": self.duration,
            "tags": dict(self.tags),
            "error": self.error,
            "pid": os.getpid(),
        }


class Tracer:
    """Context-propagated spans over a bounded finished-span buffer."""

    def __init__(self, limit=_DEFAULT_LIMIT):
        self._current = contextvars.ContextVar("current_span", default=None)
        self._lock = threading.Lock()  # leaf lock, like the registry's
        self._finished = deque(maxlen=limit)
        self._ids = itertools.count(1)
        self._seed = "%x" % os.getpid()
        self._wall_base = time.time()
        self._perf_base = time.perf_counter()
        self.spans_recorded = 0

    def _next_id(self):
        return "%s-%x" % (self._seed, next(self._ids))

    def span(self, name, remote_parent=None, **tags):
        """Open a span (context manager yielding the :class:`Span`).

        ``remote_parent`` is a ``(trace_id, span_id)`` pair from
        :meth:`current_context` on another process; it wins over the
        thread-local parent, which is how worker-side spans stitch into
        the dispatching trace."""
        parent = self._current.get()
        if remote_parent is not None:
            trace_id, parent_id = remote_parent
        elif parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self._next_id(), None
        return Span(self, name, trace_id, self._next_id(), parent_id,
                    tags)

    def current_context(self):
        """``(trace_id, span_id)`` of the active span, or ``None`` —
        what a dispatcher ships to a worker process."""
        span = self._current.get()
        if span is None:
            return None
        return (span.trace_id, span.span_id)

    def _record(self, span):
        # Hot path: append the Span itself; serialization is deferred to
        # export/drain, where finished spans are safe to read unlocked.
        with self._lock:
            self.spans_recorded += 1
            self._finished.append(span)

    @staticmethod
    def _as_dicts(spans):
        return [s.to_dict() if isinstance(s, Span) else s for s in spans]

    def export(self, limit=None):
        """The most recent finished spans (dicts), oldest first."""
        with self._lock:
            spans = list(self._finished)
        return self._as_dicts(spans[-limit:] if limit else spans)

    def drain(self):
        """Pop every finished span — the worker-side delta shipment."""
        with self._lock:
            spans = list(self._finished)
            self._finished.clear()
        return self._as_dicts(spans)

    def ingest(self, spans):
        """Append foreign finished spans (dicts from another process's
        :meth:`drain`) to this buffer."""
        with self._lock:
            self._finished.extend(spans)
