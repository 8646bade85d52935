"""The client half of the costing fleet: connections and the backplane.

:class:`RunnerConnection` owns one socket to one runner — obtain a
connected socket (:meth:`RunnerConnection._dial`), handshake
(wire-version negotiation both ways), one-time catalog shipment, then
one task/result round trip at a time with a per-request timeout.

:class:`FleetBackplane` is the fleet's one fan-out implementation, in
two halves so the builds overlap the caller's own work: ``submit`` ships
one ``warm`` task per statement the parent pool lacks, *the fleet is
not already building* and the parent evaluator cannot decode from plan
terms it remembers (an evicted statement is never re-requested), and
returns; ``collect`` installs every wire entry that has come back —
recording its plan terms with the evaluator — and blocks only while one
its caller named is still in flight; ``warm_up`` is
``collect(submit(workload))`` (a cold grid is ``warm_up`` followed by
the in-process kernel).  Its two faces
differ only in how a connection obtains its socket:
:class:`RemoteBackplane` dials runner nodes on other machines, and
:class:`~repro.evaluation.process.ProcessPoolBackplane` forks children
that serve the runner's loop on one end of a ``socket.socketpair()``.

Tasks wait in one shared deque drained by one persistent daemon thread
per node (started by the first ``submit``, idle on a condition, joined
by ``close()``), so a fast node takes more tasks.  A drainer only
*transports*; installing (``wire.loads(text, catalog, pool=, key=)``),
the runners' telemetry and the task accounting happen inside
``collect`` on the caller's thread, so the pool is mutated by one
thread and a process backplane built later forks beside drainers that
hold nothing its children use.  ``close()`` abandons whatever is
queued, in flight or not yet installed.  Failure handling is layered:

1. a failed request is retried against the *same* node — reconnect
   (fresh handshake + catalog; its cache rebuilds deterministically) with
   capped exponential backoff that ``close()`` interrupts;
2. a node whose retries are exhausted (or that ``close()`` finds still
   failing) is declared dead for the rest of the backplane's life; the
   task it held goes back to the front of the deque for the survivors;
3. with no nodes left, ``collect`` builds the remainder *locally*
   through the same task seam (:func:`~repro.net.runner.perform_warm`)
   the runners use, so a fully degraded run still produces exactly the
   single-node answer.

Duplicate work across those layers is harmless: entry builds are pure
functions of (SQL, catalog, settings) and installation is idempotent,
so a task that actually completed on a node that *appeared* dead (e.g.
a timeout on the reply) merely rebuilds an identical entry elsewhere.
The per-node task / retry / death counters and the fallback counter
show the fleet's shape and health at a scrape of ``/metrics``.
"""

import socket
import threading
import time
from collections import deque

from repro import obs
from repro.obs.catalogue import (
    REMOTE_COLLECT_WAIT, REMOTE_FALLBACK, REMOTE_INFLIGHT, REMOTE_NODE_DEATHS,
    REMOTE_RETRIES, REMOTE_TASKS, SPAN_BACKPLANE_WARM_UP)
from repro.catalog.serialize import catalog_to_dict
from repro.evaluation import wire
from repro.net.frames import hang_up, recv_frame, send_frame
from repro.net.runner import parse_listen_address, perform_warm
from repro.util import DesignError, TransportError, WireFormatError

__all__ = ["FleetBackplane", "RemoteBackplane", "RunnerConnection"]

# A failed request's n-th retry waits BACKOFF * 2**n seconds, capped at
# BACKOFF_CAP, on the close signal (``close()`` ends the wait at once).
BACKOFF = 0.05
BACKOFF_CAP = 1.0


def _answer(frame, kind=None):
    """A runner's reply, checked against the *kind* shape if given.  An
    error frame is raised as the right client exception instead:
    format/version failures are fatal (:class:`WireFormatError`),
    everything else is a retryable :class:`TransportError`."""
    wire.conform(frame, {"kind": str}, "runner reply")
    if frame["kind"] == wire.KIND_ERROR:
        wire.conform(frame, wire.SHAPES[wire.KIND_ERROR], "error frame")
        message = "runner error: %s" % (frame["error"],)
        if frame["wire_error"]:
            raise WireFormatError(message)
        raise TransportError(message)
    if kind is not None:
        wire.conform(frame, wire.SHAPES[kind], "%s frame" % (kind,))
    return frame


def catalog_frame_for(evaluator):
    """The ``KIND_CATALOG`` payload shipped right after the hello
    exchange — built once per backplane and shared by every connection,
    so N nodes cost one serialization.  The pool capacity mirrors the
    parent pool's bound, so a memory-capped host stays capped in its
    long-lived workers too."""
    return {
        "kind": wire.KIND_CATALOG,
        "catalog": catalog_to_dict(evaluator.catalog),
        "settings": (wire.record_to_wire(evaluator.settings)
                     if evaluator.settings is not None else None),
        "pool_capacity": getattr(evaluator.pool, "capacity", None),
    }


class RunnerConnection:
    """One runner: handshake, catalog shipment, request loop.

    ``address`` names the node (``host:port`` here; it is also the
    ``node`` label of the fleet's metrics).  ``timeout`` bounds every
    socket operation (connect, send, receive), turning a hung node into
    a retryable :class:`TransportError` instead of a stuck backplane."""

    def __init__(self, address, catalog_frame, timeout=30.0):
        self.address = str(address)
        self.timeout = timeout
        self._catalog_frame = catalog_frame
        self._sock = None

    def _dial(self):
        """A freshly connected socket to the runner — the one thing a
        kind of runner decides for itself."""
        try:
            return socket.create_connection(
                parse_listen_address(self.address), timeout=self.timeout
            )
        except OSError as exc:
            raise TransportError(
                "cannot reach runner %s: %s" % (self.address, exc)
            ) from exc

    def connect(self):
        """Dial, exchange hellos (version negotiation), ship the
        catalog, and wait for its acknowledgement."""
        sock = self._sock = self._dial()
        try:
            sock.settimeout(self.timeout)
            send_frame(sock, {"kind": wire.KIND_HELLO, "role": "client"})
            _answer(recv_frame(sock), wire.KIND_HELLO)
            send_frame(sock, self._catalog_frame)
            _answer(recv_frame(sock), wire.KIND_RESULT)
        except BaseException:
            self.close()
            raise
        return self

    def request(self, frame):
        """One synchronous round trip: send a task frame, return the
        result frame, unchecked (:meth:`FleetBackplane._install` checks
        it).  Any transport failure leaves the connection closed (the
        retry layer reconnects); an error frame is raised as its proper
        exception."""
        if self._sock is None:
            self.connect()
        sock = self._sock
        try:
            send_frame(sock, frame)
            reply = recv_frame(sock)
        except (TransportError, OSError):  # a timeout is an OSError
            self.close()
            raise
        return _answer(reply)

    def close(self):
        sock, self._sock = self._sock, None
        if sock is not None:
            hang_up(sock)


class FleetBackplane:
    """Fan INUM cache builds across runners; degrade gracefully to
    local execution.

    ``evaluator`` is the parent-side
    :class:`~repro.evaluation.WorkloadEvaluator` whose pool receives the
    shipped entries; ``connections`` is one :class:`RunnerConnection`
    per node (none at all means "no workers, build inline").
    ``retries`` bounds per-node reconnect attempts per request, with
    exponential backoff from ``BACKOFF`` capped at ``BACKOFF_CAP``
    seconds.  Results are pinned bit-identical to the in-process path,
    whatever subset of the fleet survives.  :meth:`submit`,
    :meth:`collect` and :meth:`warm_up` belong to one thread (the
    scheduler's); use the context-manager form (or :meth:`close`) to
    release the nodes."""

    def __init__(self, evaluator, connections, retries=3):
        self.evaluator = evaluator
        self.retries = max(0, int(retries))
        self._connections = list(connections)
        self._closing = threading.Event()  # set by close(); ends a backoff
        self._inflight = set()  # submitted, not yet taken for install
        # Shared with the drainers, guarded by _cond.
        self._cond = threading.Condition()
        self._queue = deque()  # (sql, task frame) no node has claimed
        self._replies = deque()  # (sql, connection, result frame)
        self._dead = set()  # addresses declared dead for good
        self._fatal = None  # a drainer's non-transport failure
        self._drainers = []
        self._declare_metrics()

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------

    def _declare_metrics(self):
        """Declare the fleet's metric families and pre-create each
        node's children, so a scrape shows every node at zero before
        the first task (and a dashboard sees the fleet's shape)."""
        registry = obs.metrics()
        self._m_tasks = registry.family(REMOTE_TASKS)
        self._m_retries = registry.family(REMOTE_RETRIES)
        self._m_deaths = registry.family(REMOTE_NODE_DEATHS)
        self._m_fallback = registry.family(REMOTE_FALLBACK)
        self._m_inflight = registry.family(REMOTE_INFLIGHT)
        self._m_wait = registry.family(REMOTE_COLLECT_WAIT)
        for conn in self._connections:
            node = conn.address
            self._m_tasks.labels(node=node, op="warm")
            self._m_retries.labels(node=node)
            self._m_deaths.labels(node=node)
        self._m_fallback.labels(op="warm")
        self._m_inflight.labels()
        self._m_wait.labels()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def _check_open(self):
        if self.closed:
            raise DesignError(
                "%s is closed (its runners have been released); create "
                "a new backplane to fan out more work"
                % (type(self).__name__,)
            )

    @property
    def closed(self):
        return self._closing.is_set()

    @property
    def live_nodes(self):
        """Addresses not yet declared dead."""
        return [
            conn.address for conn in self._connections
            if conn.address not in self._dead
        ]

    def close(self):
        """Abandon what is in flight, tear down every connection, join
        the drainers and retire the backplane.

        Idempotent; later use raises :class:`DesignError`.  Closing is
        client-side only — a runner node keeps serving other clients
        (each connection's cache dies with its socket)."""
        with self._cond:
            self._closing.set()
            self._queue.clear()
            self._replies.clear()
            self._cond.notify_all()  # idle drainers
        self._m_inflight.dec(len(self._inflight))
        self._inflight.clear()
        for conn in self._connections:
            conn.close()  # wakes a drainer blocked in recv
        while self._drainers:
            self._drainers.pop().join()

    # ------------------------------------------------------------------
    # Transport: retry, death, the per-node drainers.
    # ------------------------------------------------------------------

    def _with_retry(self, conn, operation):
        """Run *operation* against one node with reconnect-and-retry.
        Raises :class:`TransportError` once retries are exhausted or
        ``close()`` finds the node still failing (the caller declares
        it dead) — the backoff waits on the close signal, so ``close()``
        never waits one out; :class:`WireFormatError` — an incompatible
        peer — propagates immediately, never retried."""
        attempt = 0
        while True:
            try:
                return operation()
            except (TransportError, OSError) as exc:
                conn.close()
                self._check_open()  # close() hanging up is no failure
                delay = min(BACKOFF_CAP, BACKOFF * (2 ** attempt))
                if attempt >= self.retries or self._closing.wait(delay):
                    raise TransportError(
                        "runner %s failed after %d retries: %s"
                        % (conn.address, attempt, exc)
                    ) from exc
                self._m_retries.labels(node=conn.address).inc()
                attempt += 1

    def _drain(self, conn):
        """One node's drainer, alive from the first :meth:`submit` to
        :meth:`close`: claim a task, round-trip it, hand the reply to
        :meth:`collect` — transport only.  A node whose retries are
        exhausted is declared dead and its claimed task goes back to
        the *front* of the deque for the survivors."""
        claimed = None
        try:
            # Connect before claiming any work: a dead node is detected
            # (and counted) even when a faster sibling drains the whole
            # queue, and never claims a task it cannot serve.
            self._with_retry(conn, conn.connect)
            while True:
                with self._cond:
                    self._cond.wait_for(lambda: self._queue or self.closed)
                    if self.closed:
                        return
                    claimed = self._queue.popleft()
                reply = self._with_retry(
                    conn, lambda: conn.request(claimed[1])
                )
                with self._cond:
                    self._replies.append((claimed[0], conn, reply))
                    claimed = None
                    self._cond.notify_all()
        except DesignError:
            pass  # a failure observed after close() is shutdown
        except Exception as exc:
            with self._cond:
                if claimed is not None:
                    self._queue.appendleft(claimed)
                if isinstance(exc, TransportError):  # retries exhausted
                    self._dead.add(conn.address)
                    self._m_deaths.labels(node=conn.address).inc()
                else:  # incompatible peer: fatal, collect() re-raises it
                    self._fatal = exc
                self._cond.notify_all()
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Warm-up: the fleet's one operation, in two halves.
    # ------------------------------------------------------------------

    def submit(self, workload):
        """Ship one ``warm`` task per statement of *workload* that is
        neither resident in the parent pool, nor already in flight, nor
        decodable from plan terms the evaluator remembers (an evicted
        statement: its next ``cache_for`` costs no optimizer call, so
        there is nothing to ship or wait for), and return without
        waiting: the bound texts a :meth:`collect` must see installed
        before the workload can be priced.  The targets are the
        evaluator's :meth:`~WorkloadEvaluator.warm_targets`, shared
        with the in-process warm-up so the two cannot drift."""
        self._check_open()
        evaluator = self.evaluator
        ctx = obs.tracer().current_context()
        wanted, tasks = [], []
        for bq, source, locate in evaluator.warm_targets(workload):
            if bq.sql in evaluator.pool or evaluator.knows_terms(bq):
                continue
            wanted.append(bq.sql)
            if bq.sql in self._inflight:
                continue  # a twin tenant's request: one task, not two
            self._inflight.add(bq.sql)
            tasks.append((bq.sql, {
                "kind": wire.KIND_TASK, "op": "warm", "sql": source,
                "locate": locate, "ctx": list(ctx) if ctx else None,
            }))
        if tasks:
            self._m_inflight.inc(len(tasks))
            with self._cond:
                self._queue.extend(tasks)
                self._cond.notify_all()
            # First submit only — not the constructor, so every fork of
            # a process backplane's constructor is behind its drainers.
            for conn in self._connections[len(self._drainers):]:
                self._drainers.append(threading.Thread(
                    target=self._drain, args=(conn,),
                    name="repro-remote-%s" % conn.address, daemon=True,
                ))
                self._drainers[-1].start()
        return wanted

    def _install(self, park=False):
        """Install every reply that has come back — asked for or not —
        on the calling thread; with no node left, build what is still
        queued through the task seam the runners use.  ``park`` first
        blocks until there is something to install."""
        evaluator = self.evaluator
        with self._cond:
            if park:
                started = time.perf_counter()
                self._cond.wait_for(
                    lambda: self._replies or self._fatal is not None
                    or not self.live_nodes or self.closed
                )
                self._m_wait.observe(time.perf_counter() - started)
                self._check_open()
            if self._fatal is not None:
                raise self._fatal
            replies, self._replies = self._replies, deque()
            leftovers = ()
            if not self.live_nodes:  # no node left: the caller builds
                leftovers, self._queue = self._queue, deque()
        self._inflight.difference_update(item[0] for item in replies)
        self._inflight.difference_update(item[0] for item in leftovers)
        self._m_inflight.dec(len(replies) + len(leftovers))
        for key, conn, reply in replies:
            _answer(reply, wire.KIND_RESULT)
            delta = reply["obs"] and wire.obs_from_wire(reply["obs"])
            # pool= installs the entry; key= refuses an entry of another
            # statement than the task's.
            __, cache = wire.loads(reply["entry"], evaluator.catalog,
                                   pool=evaluator.pool, key=key)
            evaluator.remember_terms(cache)
            if delta:
                obs.ingest_deltas(delta)
            self._m_tasks.labels(node=conn.address, op="warm").inc()
        for __, task in leftovers:
            if self._connections:  # no workers by design is no fallback
                self._m_fallback.labels(op="warm").inc()
            perform_warm(evaluator, task["sql"], task["locate"], task["ctx"])

    def collect(self, texts):
        """Install what the fleet has built and block only while one of
        *texts* (a :meth:`submit` result) is still in flight.
        Returns the optimizer calls the installed entries cost, like
        :meth:`WorkloadEvaluator.warm_up`; entries are bit-identical
        whichever node (or the local fallback) built them; a drainer's
        fatal :class:`WireFormatError` is re-raised here."""
        self._check_open()
        before = self.evaluator.precompute_calls
        self._install()
        waiting = self._inflight.intersection(texts)
        if waiting:
            with obs.tracer().span(SPAN_BACKPLANE_WARM_UP,
                                   targets=len(waiting),
                                   nodes=len(self.live_nodes)):
                while waiting & self._inflight:
                    self._install(park=True)
        return self.evaluator.precompute_calls - before

    def warm_up(self, workload):
        """Pre-build the workload's caches across the fleet and install
        the shipped entries into the parent pool: :meth:`submit`, then
        :meth:`collect` what it returned."""
        return self.collect(self.submit(workload))


class RemoteBackplane(FleetBackplane):
    """The fleet over sockets: ``runners`` is a list of ``host:port``
    addresses of runner nodes (``python -m repro runner``).

    ``timeout`` bounds every socket operation; ``retries`` shapes the
    per-request failure handling of :class:`FleetBackplane`."""

    def __init__(self, evaluator, runners, timeout=30.0, retries=3):
        if not runners:
            raise DesignError("RemoteBackplane needs at least one runner")
        if not timeout > 0:
            raise DesignError("runner timeout must be positive, got %r"
                              % (timeout,))
        frame = catalog_frame_for(evaluator)
        super().__init__(
            evaluator,
            [RunnerConnection(address, frame, timeout=timeout)
             for address in runners],
            retries=retries,
        )

    # Ledger row ``repro.net.client:RemoteBackplane.warm_up``:
    # ``benchmarks/e2e/layers.py`` resolves boundaries by
    # ``vars(owner)[leaf]``, so the one shared function is bound on this
    # class too until ROADMAP item 1(c) retires the per-class rows.
    warm_up = FleetBackplane.warm_up
