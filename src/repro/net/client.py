"""The client half of the costing fleet: connections and the backplane.

:class:`RunnerConnection` owns one socket to one runner — obtain a
connected socket (:meth:`RunnerConnection._dial`), handshake
(wire-version negotiation both ways), one-time catalog shipment, then a
synchronous task/result request loop with a per-request timeout.

:class:`FleetBackplane` is the fleet's one fan-out implementation:
``warm_up`` ships one ``warm`` task per statement the parent pool lacks
and installs the wire entries that come back (a cold grid is
``warm_up`` followed by the in-process kernel).  Its two faces differ
only in how a connection obtains its socket: :class:`RemoteBackplane`
dials runner nodes on other machines, and
:class:`~repro.evaluation.process.ProcessPoolBackplane` forks children
that serve the runner's loop on one end of a ``socket.socketpair()``.

Scheduling is a shared work deque drained by one thread per live node
(the caller's among them), so a fast node takes more tasks and a dead
node's in-flight task is re-queued for the survivors.  Failure handling
is layered:

1. a failed request is retried against the *same* node — reconnect
   (fresh handshake + catalog; leases rebuild deterministically) with
   capped exponential backoff;
2. a node whose retries are exhausted is declared dead for the rest of
   the backplane's life; its queued and in-flight work drains to the
   surviving nodes;
3. with no nodes left, the remainder runs *locally* through the same
   task seam (:func:`~repro.net.runner.perform_warm`) the runners use,
   so a fully degraded run still produces exactly the single-node
   answer.

Duplicate work across those layers is harmless: entry builds are pure
functions of (SQL, catalog, settings) and installation is idempotent,
so a task that actually completed on a node that *appeared* dead (e.g.
a timeout on the reply) merely rebuilds an identical entry elsewhere.

Every ``warm_up`` advances the backplane's **epoch**, which task frames
carry to the runners: a lease entry older than the configured staleness
budget is force-refreshed runner-side before it may serve, and
``staleness=0`` pins exact-replay mode (nothing built in an earlier
epoch is ever reused).  The runners' cache-age accounting comes back on
every result frame and lands in a per-node gauge
(``repro_remote_cache_age_epochs``) next to the retry / death /
fallback counters, so a scrape of ``/metrics`` shows the fleet's
staleness and health at a glance.
"""

import socket
import threading
import time
from collections import deque
from dataclasses import asdict

from repro import obs
from repro.catalog.serialize import catalog_to_dict
from repro.evaluation import wire
from repro.net.frames import hang_up, recv_frame, send_frame
from repro.net.runner import parse_listen_address, perform_warm
from repro.util import DesignError, TransportError, WireFormatError

__all__ = ["FleetBackplane", "RemoteBackplane", "RunnerConnection"]


def _raise_error_frame(frame):
    """Re-raise a runner's error frame as the right client exception:
    format/version failures are fatal (:class:`WireFormatError`),
    everything else is a retryable :class:`TransportError`."""
    message = "runner error: %s" % (frame.get("error"),)
    if frame.get("wire_error"):
        raise WireFormatError(message)
    raise TransportError(message)


def catalog_frame_for(evaluator, staleness=0):
    """The ``KIND_CATALOG`` payload shipped right after the hello
    exchange — built once per backplane and shared by every connection,
    so N nodes cost one serialization.  The pool capacity mirrors the
    parent pool's bound, so a memory-capped host stays capped in its
    long-lived workers too."""
    return {
        "kind": wire.KIND_CATALOG,
        "catalog": catalog_to_dict(evaluator.catalog),
        "settings": (
            asdict(evaluator.settings)
            if evaluator.settings is not None else None
        ),
        "pool_capacity": getattr(evaluator.pool, "capacity", None),
        "staleness": staleness,
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

    @property
    def connected(self):
        return self._sock is not None

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
        catalog, and wait for the lease acknowledgement."""
        sock = self._sock = self._dial()
        try:
            sock.settimeout(self.timeout)
            send_frame(sock, {"kind": wire.KIND_HELLO, "role": "client"})
            reply = recv_frame(sock)
            if reply.get("kind") == wire.KIND_ERROR:
                _raise_error_frame(reply)
            if reply.get("kind") != wire.KIND_HELLO:
                raise WireFormatError(
                    "runner %s answered the handshake with %r"
                    % (self.address, reply.get("kind"))
                )
            send_frame(sock, self._catalog_frame)
            ack = recv_frame(sock)
            if ack.get("kind") == wire.KIND_ERROR:
                _raise_error_frame(ack)
        except BaseException:
            self.close()
            raise
        return self

    def request(self, frame):
        """One synchronous round trip: send a task frame, return the
        result payload.  Any transport failure leaves the connection
        closed (the retry layer reconnects); an error frame is raised
        as its proper exception."""
        if self._sock is None:
            self.connect()
        sock = self._sock
        try:
            send_frame(sock, frame)
            reply = recv_frame(sock)
        except (TransportError, OSError):  # a timeout is an OSError
            self.close()
            raise
        if reply.get("kind") == wire.KIND_ERROR:
            _raise_error_frame(reply)
        return reply

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
    exponential backoff from ``backoff`` capped at ``backoff_cap``
    seconds.  Results are pinned bit-identical to the in-process path,
    whatever subset of the fleet survives.  Use the context-manager
    form (or :meth:`close`) to release the nodes."""

    def __init__(self, evaluator, connections, retries=3, backoff=0.05,
                 backoff_cap=1.0):
        self.evaluator = evaluator
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.epoch = 0
        self._closed = False
        self._connections = list(connections)
        self._dead = set()  # addresses declared dead for good
        self._declare_metrics()

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------

    def _declare_metrics(self):
        """Declare the fleet's metric families and pre-create each
        node's children, so a scrape shows every node at zero before
        the first task (and a dashboard sees the fleet's shape)."""
        registry = obs.metrics()
        self._m_tasks = registry.counter(
            "repro_remote_tasks_total",
            "Tasks completed by each runner node",
            ("node", "op"),
        )
        self._m_retries = registry.counter(
            "repro_remote_retries_total",
            "Per-node reconnect-and-retry attempts",
            ("node",),
        )
        self._m_deaths = registry.counter(
            "repro_remote_node_deaths_total",
            "Nodes declared dead after exhausting retries",
            ("node",),
        )
        self._m_fallback = registry.counter(
            "repro_remote_fallback_total",
            "Tasks executed locally because no runner survived",
            ("op",),
        )
        self._m_stale = registry.counter(
            "repro_remote_stale_refresh_total",
            "Lease entries refreshed runner-side after exceeding the "
            "staleness budget",
            ("node",),
        )
        self._m_age = registry.gauge(
            "repro_remote_cache_age_epochs",
            "Oldest resident lease entry on each node, in epochs",
            ("node",),
        )
        for conn in self._connections:
            node = conn.address
            self._m_tasks.labels(node=node, op="warm")
            self._m_retries.labels(node=node)
            self._m_deaths.labels(node=node)
            self._m_stale.labels(node=node)
            self._m_age.labels(node=node).set(0)
        self._m_fallback.labels(op="warm")

    def _account_reply(self, conn, reply):
        """Fold one result frame's lease accounting into the node's
        gauges: its oldest cache age and its refresh total."""
        cache = reply.get("cache") or {}
        self._m_age.labels(node=conn.address).set(cache.get("age_max", 0))
        self._m_stale.labels(node=conn.address).set_total(
            cache.get("stale_refreshes", 0)
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def _check_open(self):
        if self._closed:
            raise DesignError(
                "%s is closed (its runners have been released); create "
                "a new backplane to fan out more work"
                % (type(self).__name__,)
            )

    @property
    def closed(self):
        return self._closed

    def _live(self):
        return [
            conn for conn in self._connections
            if conn.address not in self._dead
        ]

    @property
    def live_nodes(self):
        """Addresses not yet declared dead."""
        return [conn.address for conn in self._live()]

    def close(self):
        """Tear down every connection and retire the backplane.

        Idempotent; later use raises :class:`DesignError`.  Closing is
        client-side only — a runner node keeps serving other clients
        (each connection's lease dies with its socket)."""
        self._closed = True
        for conn in self._connections:
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    # Request plumbing: retry, death, fan-out.
    # ------------------------------------------------------------------

    def _with_retry(self, conn, operation):
        """Run *operation* against one node with reconnect-and-retry.
        Raises :class:`TransportError` once retries are exhausted (the
        caller declares the node dead); :class:`WireFormatError` — an
        incompatible peer — propagates immediately, never retried."""
        attempt = 0
        while True:
            try:
                return operation()
            except (TransportError, OSError) as exc:
                conn.close()
                if attempt >= self.retries:
                    raise TransportError(
                        "runner %s failed after %d retries: %s"
                        % (conn.address, self.retries, exc)
                    ) from exc
                self._m_retries.labels(node=conn.address).inc()
                delay = min(
                    self.backoff_cap, self.backoff * (2 ** attempt)
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1

    def _fan_out(self, tasks):
        """Drain *tasks* (frame dicts) across the live nodes: a shared
        deque, one drainer per node (the calling thread is one of them).
        Rounds repeat while live nodes remain, so a task requeued from a
        dying node's hands is picked up by the survivors even if their
        drainers had already run dry.  Returns ``(replies, leftovers)``
        — the result frames plus every task no node could serve, which
        the caller runs locally."""
        remaining = list(tasks)
        replies = []
        errors = []  # fatal (wire-format) failures, re-raised after join
        lock = threading.Lock()

        def drain(conn, queue):
            task = None
            try:
                # Establish the connection before claiming any work: a
                # dead node is then *detected* on every fan-out (and its
                # death counted) even when a faster sibling would have
                # drained the whole queue first, and a task is never
                # claimed by a node that cannot serve it.
                if not conn.connected:
                    self._with_retry(conn, conn.connect)
                while True:
                    with lock:
                        if not queue:
                            return
                        task = queue.popleft()
                    reply = self._with_retry(
                        conn, lambda: conn.request(task)
                    )
                    self._m_tasks.labels(node=conn.address, op="warm").inc()
                    self._account_reply(conn, reply)
                    with lock:
                        replies.append(reply)
                    task = None
            except TransportError:  # retries exhausted (and closed)
                with lock:
                    self._dead.add(conn.address)
                self._m_deaths.labels(node=conn.address).inc()
            except Exception as exc:  # incompatible peer: fatal
                with lock:
                    errors.append(exc)
                conn.close()
            finally:
                if task is not None:
                    with lock:
                        queue.append(task)  # survivors pick it up

        while remaining:
            live = self._live()
            if not live:
                break
            queue = deque(remaining)
            # The caller drains the first node itself rather than idling
            # in join(): one thread fewer to start per fan-out.
            threads = [
                threading.Thread(
                    target=drain, args=(conn, queue),
                    name="repro-remote-%s" % conn.address, daemon=True,
                )
                for conn in live[1:]
            ]
            for thread in threads:
                thread.start()
            drain(live[0], queue)
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
            remaining = list(queue)
        return replies, remaining

    # ------------------------------------------------------------------
    # Warm-up: the fleet's one operation.
    # ------------------------------------------------------------------

    def warm_up(self, workload):
        """Pre-build the workload's caches across the fleet and install
        the shipped entries into the parent pool.  Returns the
        optimizer calls spent, like
        :meth:`WorkloadEvaluator.warm_up`; entries are bit-identical
        whichever node (or the local fallback) built them.

        Target collection (write filtering, locate rewriting, dedup) is
        the evaluator's :meth:`~WorkloadEvaluator.warm_targets`, shared
        with the in-process warm-up so the two cannot drift; statements
        already resident in the parent pool ship nothing."""
        self._check_open()
        evaluator = self.evaluator
        if not self._connections:  # no workers by design: build inline
            return evaluator.warm_up(workload)
        before = evaluator.precompute_calls
        self.epoch += 1
        targets = [
            (source, locate)
            for bq, source, locate in evaluator.warm_targets(workload)
            if evaluator.signature(bq) not in evaluator.pool
        ]
        if not targets:
            return 0
        with obs.tracer().span("backplane.warm_up", targets=len(targets),
                               nodes=len(self.live_nodes)):
            ctx = obs.tracer().current_context()
            tasks = [
                {
                    "kind": wire.KIND_TASK,
                    "op": "warm",
                    "sql": source,
                    "locate": locate,
                    "epoch": self.epoch,
                    "ctx": list(ctx) if ctx else None,
                }
                for source, locate in targets
            ]
            replies, leftovers = self._fan_out(tasks)
            for reply in replies:
                # pool= installs the entry *and* rebuilds its columnar
                # kernel from the shipped plan terms, so an offloaded
                # warm-up prewarms compiled kernels, not just raw caches.
                wire.loads(
                    reply["entry"], evaluator.catalog, pool=evaluator.pool
                )
                if reply.get("obs"):
                    obs.ingest_deltas(wire.obs_from_wire(reply["obs"]))
            for task in leftovers:  # no node left: build locally
                self._m_fallback.labels(op="warm").inc()
                signature, __ = perform_warm(
                    evaluator, task["sql"], task["locate"], ctx
                )
                evaluator.pool.kernel_for(signature)
        return evaluator.precompute_calls - before


class RemoteBackplane(FleetBackplane):
    """The fleet over sockets: ``runners`` is a list of ``host:port``
    addresses of runner nodes (``python -m repro runner``).

    ``staleness`` is the fleet's staleness budget in epochs (``0`` =
    exact-replay mode); ``timeout`` bounds every socket operation;
    ``retries`` / ``backoff`` / ``backoff_cap`` shape the per-request
    failure handling of :class:`FleetBackplane`."""

    def __init__(self, evaluator, runners, staleness=0, timeout=30.0,
                 retries=3, backoff=0.05, backoff_cap=1.0):
        if not runners:
            raise DesignError("RemoteBackplane needs at least one runner")
        frame = catalog_frame_for(evaluator, max(0, int(staleness)))
        super().__init__(
            evaluator,
            [RunnerConnection(address, frame, timeout=timeout)
             for address in runners],
            retries=retries, backoff=backoff, backoff_cap=backoff_cap,
        )

    # Ledger row ``repro.net.client:RemoteBackplane.warm_up``:
    # ``benchmarks/e2e/layers.py`` resolves boundaries by
    # ``vars(owner)[leaf]``, so the one shared function is bound on this
    # class too until ROADMAP item 1(c) retires the per-class rows.
    warm_up = FleetBackplane.warm_up
