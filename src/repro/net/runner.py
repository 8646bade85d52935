"""The runner: the one worker of the costing fleet.

A runner serves one loop per connection — handshake, catalog, tasks.
``python -m repro runner --listen host:port`` accepts connections on a
socket that a :class:`~repro.net.client.RemoteBackplane` dials; a
:class:`~repro.evaluation.process.ProcessPoolBackplane` forks children
that each serve the same loop (:meth:`RunnerNode.serve_connection`) on
one end of a ``socket.socketpair()``.  Per connection:

1. **hello** — a mismatched wire version is answered with an error
   frame (``wire_error=True``: the client raises
   :class:`~repro.util.WireFormatError`) before any state is built;
2. **catalog** — shipped once: catalog, planner settings and pool
   capacity, from which the runner stands up a private
   :class:`~repro.evaluation.WorkloadEvaluator`, the connection's cache;
3. **tasks** — ``warm`` frames: build one statement's INUM cache
   (:func:`perform_warm`, shared with the client's local fallback),
   answered with the wire entry and the runner's telemetry deltas.

An entry is a pure function of (SQL, catalog, settings), so the
connection's evaluator *is* its cache: a re-requested statement is
served, or decoded from plan terms the evaluator remembers, never
re-planned.  Every frame is checked against its ``wire.SHAPES`` entry;
one that does not conform, or whose catalog or SQL does not hold
together, is answered ``wire_error=True`` — fatal, never retried.
Connections are served on daemon threads and never share caches.
"""

import socket
import threading

from repro import obs
from repro.obs.catalogue import SPAN_WORKER_WARM_UP
from repro.catalog.serialize import catalog_from_dict
from repro.evaluation import wire
from repro.net.frames import error_frame, hang_up, recv_frame, send_frame
from repro.optimizer.settings import PlannerSettings
from repro.util import ReproError, TransportError, WireFormatError

__all__ = ["RunnerNode", "parse_listen_address", "perform_warm"]


def parse_listen_address(text):
    """``host:port`` (or bare ``:port`` / ``port``, on the loopback
    address) -> ``(host, port)``."""
    host, __, port = str(text).rpartition(":")
    try:
        return (host or "127.0.0.1"), int(port)
    except (TypeError, ValueError):
        raise WireFormatError(
            "bad listen address %r (expected host:port)" % (text,)
        ) from None


def perform_warm(evaluator, sql, locate, ctx=None):
    """Build one statement's INUM cache on *evaluator* — what a ``warm``
    task *does*, wherever it runs: on a runner's evaluator, or on the
    client's own when no runner is left to ask.

    ``locate`` asks for the locate query of a shipped write statement
    (:func:`wire.located`); ``ctx`` is the dispatching span's
    ``(trace_id, span_id)``, so this worker's spans stitch into the
    parent's trace.  Returns the built entry as ``(bound text, cache)``,
    the pool's key and value."""
    with obs.tracer().span(SPAN_WORKER_WARM_UP, remote_parent=ctx,
                           locate=locate):
        bq = wire.located(evaluator.bound(sql), locate)
        cache = evaluator.cache_for(bq)
    return bq.sql, cache


class RunnerNode:
    """Listen for backplane connections and serve costing tasks.

    ``ship_obs=True`` drains this process's telemetry registry into
    every result frame (counter/histogram deltas + finished spans) — the
    mode ``python -m repro runner`` and forked process workers use,
    where the registry belongs to the runner process alone.  Leave it
    off for in-process (threaded) runners, whose registry is shared
    with the host and must not be drained out from under it.

    ``fail_after_tasks`` is the failure-injection hook the transport
    tests use: after serving that many task frames (across the node's
    lifetime) the node abruptly closes every connection mid-protocol
    and refuses new ones — a deterministic stand-in for a runner dying
    mid-batch.
    """

    def __init__(self, host="127.0.0.1", port=0, ship_obs=False,
                 fail_after_tasks=None):
        self.host = host
        self.port = port
        self.ship_obs = ship_obs
        self.fail_after_tasks = fail_after_tasks
        self.tasks_served = 0
        self._listener = None
        self._accept_thread = None
        self._stopping = False
        self._lock = threading.Lock()
        self._open_socks = set()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def address(self):
        """``host:port`` once started — what clients dial."""
        return "%s:%d" % (self.host, self.port)

    def start(self):
        """Bind and serve on a background thread; returns self with
        ``port`` holding the bound (possibly ephemeral) port."""
        if self._listener is not None:
            raise TransportError("RunnerNode already started")
        self._listener = socket.create_server(
            (self.host, self.port), reuse_port=False
        )
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="repro-runner-%d" % self.port,
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def wait(self):
        """Block until the node is stopped (the CLI's serve-forever)."""
        if self._accept_thread is not None:
            self._accept_thread.join()

    def stop(self):
        """Close the listener and every open connection, and wait for
        the accept thread to end; idempotent."""
        self._stopping = True
        listener, self._listener = self._listener, None
        with self._lock:
            socks = list(self._open_socks)
        for sock in [listener, *socks]:
            if sock is not None:
                hang_up(sock)  # wakes the thread blocked on it
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    def _dead(self):
        return (
            self.fail_after_tasks is not None
            and self.tasks_served >= self.fail_after_tasks
        )

    # ------------------------------------------------------------------
    # The accept / serve loops.
    # ------------------------------------------------------------------

    def _accept_loop(self):
        listener = self._listener
        while not self._stopping:
            try:
                sock, __ = listener.accept()
            except OSError:
                break  # listener closed by stop()
            if self._dead():
                sock.close()
                continue
            with self._lock:
                self._open_socks.add(sock)
            threading.Thread(
                target=self.serve_connection,
                args=(sock,),
                name="repro-runner-conn",
                daemon=True,
            ).start()

    def serve_connection(self, sock):
        """Serve one connected peer until it goes away, then close
        *sock*: the accept loop runs this per connection, and a forked
        process worker runs it once, on its end of a socketpair."""
        try:
            self._converse(sock)
        except (TransportError, OSError):
            pass  # peer went away; nothing to answer
        except ReproError as exc:
            # A typed error is this frame's deterministic answer (wrong
            # version or shape, unbindable SQL): a re-send cannot help.
            self._try_reply(sock, error_frame(exc, wire_error=True))
        except Exception as exc:  # never kill the node for one client
            self._try_reply(sock, error_frame(exc))
        finally:
            with self._lock:
                self._open_socks.discard(sock)
            try:
                sock.close()
            except OSError:
                pass

    def _converse(self, sock):
        # Handshake: check the client's version here, so a mismatch is
        # *answered* (wire_error) — the client's WireFormatError.
        hello = recv_frame(sock, check_version=False)
        if hello.get("kind") == wire.KIND_ERROR:
            return
        wire.check_version(hello)
        wire.conform(hello, wire.SHAPES[wire.KIND_HELLO], "hello frame")
        send_frame(sock, {"kind": wire.KIND_HELLO, "role": "runner"})

        evaluator = self._build_evaluator(recv_frame(sock))
        send_frame(sock, {"kind": wire.KIND_RESULT, "op": "catalog"})

        while True:
            frame = recv_frame(sock)  # TransportError on clean EOF
            self.tasks_served += 1
            if self._dead():
                # Failure injection: die mid-protocol, no reply.
                sock.close()
                return
            send_frame(sock, self._handle_task(evaluator, frame))

    def _build_evaluator(self, frame):
        """The connection's cache: a private evaluator over the shipped
        catalog.  Rebuilding from the frame is deterministic, so a
        failure is the frame's and re-sending it cannot help."""
        from repro.evaluation.evaluator import WorkloadEvaluator
        from repro.evaluation.pool import InumCachePool

        wire.conform(frame, wire.SHAPES[wire.KIND_CATALOG], "catalog frame")
        settings = frame["settings"]
        if settings is not None:  # PlannerSettings bounds the values
            settings = wire.record_from_wire(PlannerSettings, settings)
        return WorkloadEvaluator(
            catalog_from_dict(frame["catalog"]), settings,
            pool=InumCachePool(capacity=frame["pool_capacity"]),
        )

    # ------------------------------------------------------------------
    # Task execution.
    # ------------------------------------------------------------------

    def _handle_task(self, evaluator, frame):
        wire.conform(frame, wire.SHAPES[wire.KIND_TASK], "task frame")
        ctx = frame["ctx"]
        key, cache = perform_warm(
            evaluator, frame["sql"], frame["locate"], ctx and tuple(ctx)
        )
        return {
            "kind": wire.KIND_RESULT,
            "op": "warm",
            # Wire *text*, not a nested payload: the client installs it
            # with ``wire.loads(text, catalog, pool=, key=)``, the one
            # install path every entry takes (snapshot files included).
            "entry": wire.dumps(wire.entry_to_wire(key, cache)),
            "obs": (
                wire.obs_to_wire(obs.drain_deltas())
                if self.ship_obs else None
            ),
        }

    @staticmethod
    def _try_reply(sock, payload):
        try:
            send_frame(sock, payload)
        except OSError:
            pass
