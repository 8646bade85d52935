"""Tests for the network costing fleet (:mod:`repro.net`).

The ISSUE-10 acceptance pins live here:

* the frame codec round-trips versioned payloads and classifies its
  failures: truncation is a :class:`WireFormatError` (and retryable
  :class:`TransportError`), version-mismatch handshakes are rejected
  with :class:`WireFormatError` in *both* directions, garbage is never
  best-effort parsed;
* a :class:`RemoteBackplane` over loopback runner nodes produces
  **bit-identical** warm-up entries to the in-process evaluator, and a
  grid priced over them (``warm_up`` then the in-process kernel — the
  fleet has one task op) equals the local matrix;
* a node dying mid-batch degrades gracefully: survivors pick up its
  work (or, with no survivors, the remainder runs locally) and the
  final results are identical, with the retry/death/fallback counters
  visible in the metrics registry;
* a connection is a cache (ISSUE 22, which deleted PR 10's staleness
  budget): a statement re-requested while resident on the runner is
  served, not rebuilt; a version-5 peer is refused, naming its
  version;
* an eviction drops derived state, not the answer (ISSUE 23): the
  client records the plan terms of every entry a runner returns, so an
  evicted statement is decoded locally — it ships no task frame, is
  nothing to wait for, and costs no optimizer call — and a reply whose
  entry is malformed leaves the pool and that memo as they were;
* the trust boundary: a malformed catalog or task frame —
  catalog contents included — is answered ``wire_error=True``, fatal on
  the client after one request, never retried, the node not counted
  dead; a telemetry delta that does not validate merges nothing; and
  every frame kind is fuzzed from one seed by ``tests/shapes.py``: a
  frame its ``wire.SHAPES`` entry rejects is always a wire error;
* close semantics mirror the process backplane: idempotent, loud
  :class:`DesignError` on use-after-close, no leaked connections;
* a :class:`RemoteStepExecutor` scheduled run matches inline execution
  exactly;
* the overlap (ISSUE 19): ``submit`` returns while the fleet builds,
  ``collect`` blocks only for what it was asked for and installs the
  rest, an in-flight statement ships once, failures between the two
  halves degrade like failures inside one, ``close()`` abandons what
  is in flight and joins every drainer.  Those tests speak to a
  :class:`RunnerNode` over a ``socket.socketpair()`` and hold its
  replies with an :class:`~threading.Event` — they never sleep.
"""

import copy
import itertools
import json
import re
import socket
import struct
import sys
import threading
from contextlib import closing, contextmanager
from dataclasses import fields

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro import obs
from repro.colt import ColtSettings
from repro.evaluation import InumCachePool, WorkloadEvaluator, wire
from repro.evaluation import evaluator as evaluator_module
from repro.net import (
    MAX_FRAME_BYTES,
    FleetBackplane,
    RemoteBackplane,
    RunnerConnection,
    RunnerNode,
    TruncatedFrameError,
    parse_listen_address,
    recv_frame,
    send_frame,
)
from repro.net.client import _answer, catalog_frame_for
from repro.catalog import Index
from repro.catalog.serialize import catalog_to_dict
from repro.obs.catalogue import (
    COLGEN_ROUNDS,
    FAMILIES,
    POOL_BUILD_SECONDS,
    REMOTE_RETRIES,
    SPAN_WORKER_WARM_UP,
)
from repro.optimizer import PlannerSettings
from repro.runtime import RemoteStepExecutor, StepExecutor
from repro.service import TuningService
from repro.service.service import STATE_FILENAME
from repro.util import (
    DesignError,
    ReproError,
    TransportError,
    WireFormatError,
)
from repro.workloads import DriftPhase, drifting_stream, sdss
from repro.workloads import sdss_catalog as make_sdss
from repro.whatif import Configuration
from repro.workloads import sdss_workload

import shapes
from shapes import conforms, neighbours
from oracle import metric_value
from test_serialize import MALFORMED_CATALOGS

SDSS_PHASES = (
    DriftPhase("positional", 10, ((sdss.template("cone_search"), 1.0),)),
    DriftPhase("photometric", 10, ((sdss.template("magnitude_cut"), 1.0),)),
)
COLT = ColtSettings(epoch_length=5, space_budget_pages=50_000)


@pytest.fixture(scope="module")
def astro_catalog():
    return make_sdss(scale=0.01)


@pytest.fixture(scope="module")
def queries():
    return list(sdss_workload(n_queries=6, seed=7))


@pytest.fixture(autouse=True)
def fresh_registry():
    """Each test reads its own counters, not a neighbor's."""
    obs.reset()
    yield
    obs.reset()


def pool_terms(evaluator):
    """The pool's contents as a comparable mapping — the bit-identity
    surface (plan terms compare exactly; floats are carried verbatim)."""
    return {
        sql: evaluator.pool.get(sql).plans for sql in evaluator.pool.keys()
    }


def open_connections(node):
    """How many client connections *node* is serving right now."""
    with node._lock:
        return len(node._open_socks)


def _send_raw(sock, payload):
    """Write a frame *without* the codec's version stamping — how a
    foreign-version peer looks on the wire."""
    body = json.dumps(payload).encode("utf-8")
    sock.sendall(struct.pack("!I", len(body)) + body)


def _send_any(sock, payload):
    """Send any JSON value as a frame: an object version-stamped as
    ``send_frame`` would, anything else as is."""
    if isinstance(payload, dict):
        payload = dict(payload, wire_version=wire.WIRE_VERSION)
    _send_raw(sock, payload)


# ----------------------------------------------------------------------
# Frame codec.
# ----------------------------------------------------------------------


class TestFrames:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"kind": wire.KIND_HELLO, "role": "client"})
            payload = recv_frame(b)
            assert payload["kind"] == wire.KIND_HELLO
            assert payload["wire_version"] == wire.WIRE_VERSION
        finally:
            a.close()
            b.close()

    def test_truncated_frame_is_wire_and_transport_error(self):
        a, b = socket.socketpair()
        try:
            # A length prefix promising 100 bytes, then death after 3.
            a.sendall(struct.pack("!I", 100) + b"abc")
            a.close()
            with pytest.raises(WireFormatError):
                recv_frame(b)
        finally:
            b.close()
        assert issubclass(TruncatedFrameError, WireFormatError)
        assert issubclass(TruncatedFrameError, TransportError)

    def test_clean_close_between_frames_is_transport_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(TransportError) as excinfo:
                recv_frame(b)
            assert not isinstance(excinfo.value, WireFormatError)
        finally:
            b.close()

    def test_undecodable_body_is_wire_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", 4) + b"\xff\xfe\x00{")
            with pytest.raises(WireFormatError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_corrupt_length_header_is_wire_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", 2 ** 31))
            with pytest.raises(WireFormatError, match="bound"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_unstamped_frame_fails_version_check(self):
        a, b = socket.socketpair()
        try:
            _send_raw(a, {"kind": wire.KIND_HELLO})
            with pytest.raises(WireFormatError, match="wire version"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_listen_address(self):
        assert parse_listen_address("10.0.0.1:9000") == ("10.0.0.1", 9000)
        assert parse_listen_address(":9000") == ("127.0.0.1", 9000)
        assert parse_listen_address("9000") == ("127.0.0.1", 9000)
        with pytest.raises(WireFormatError):
            parse_listen_address("nonsense")


# ----------------------------------------------------------------------
# Runner lifecycle.
# ----------------------------------------------------------------------


class TestRunnerLifecycle:
    def test_stop_ends_the_accept_thread_promptly(self):
        """``stop()`` must wake the accept loop, not wait out its join
        timeout and abandon the thread (closing a listener from another
        thread does not wake a blocked ``accept()`` on Linux)."""
        import time

        started = time.monotonic()
        node = RunnerNode().start()
        thread = node._accept_thread
        assert thread.is_alive()
        node.stop()
        elapsed = time.monotonic() - started
        assert not thread.is_alive()
        assert elapsed < 1.0
        node.stop()  # idempotent

    def test_stop_ends_connection_threads(self):
        """An idle client connection is blocked in ``recv`` on the
        runner; ``stop()`` wakes it too and the peer sees the close."""
        node = RunnerNode().start()
        sock = socket.create_connection((node.host, node.port), 5.0)
        try:
            deadline = 250
            while not open_connections(node) and deadline:
                threading.Event().wait(0.02)
                deadline -= 1
            assert open_connections(node) == 1
            node.stop()
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # EOF, not a timeout
            deadline = 250
            while open_connections(node) and deadline:
                threading.Event().wait(0.02)
                deadline -= 1
            assert open_connections(node) == 0
        finally:
            sock.close()
            node.stop()


# ----------------------------------------------------------------------
# Handshake / version negotiation.
# ----------------------------------------------------------------------


class TestHandshake:
    def test_runner_rejects_foreign_version_hello(self):
        with started(RunnerNode()) as node:
            sock = socket.create_connection((node.host, node.port), 5.0)
            try:
                _send_raw(sock, {"kind": wire.KIND_HELLO,
                                 "wire_version": 1})
                reply = recv_frame(sock)
                assert reply["kind"] == wire.KIND_ERROR
                assert reply["wire_error"]
            finally:
                sock.close()

    def test_client_rejects_foreign_version_runner(self, astro_catalog):
        """A runner speaking an older wire version is rejected client
        side too: its (non-error) frames fail the version check."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def ancient_runner():
            conn, __ = listener.accept()
            with conn:
                recv_frame(conn, check_version=False)  # the client hello
                _send_raw(conn, {"kind": wire.KIND_HELLO,
                                 "wire_version": 1})

        thread = threading.Thread(target=ancient_runner, daemon=True)
        thread.start()
        try:
            evaluator = WorkloadEvaluator(astro_catalog)
            with pytest.raises(WireFormatError, match="wire version"):
                RemoteBackplane(
                    evaluator, ["127.0.0.1:%d" % port],
                    retries=0,
                )._connections[0].connect()
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_wire_errors_propagate_instead_of_retrying(self, astro_catalog):
        """The retry loop never retries an incompatible peer: a
        wire-error reply surfaces as WireFormatError immediately."""
        with started(RunnerNode()) as node:
            evaluator = WorkloadEvaluator(astro_catalog)
            backplane = RemoteBackplane(evaluator, [node.address], retries=3)
            backplane._closing = SpiedSignal()
            conn = backplane._connections[0]
            conn.connect()
            with pytest.raises(WireFormatError):
                backplane._with_retry(
                    conn, lambda: conn.request({"kind": "no-such-kind"})
                )
            backplane.close()


# ----------------------------------------------------------------------
# Equivalence: the fleet prices exactly like one process.
# ----------------------------------------------------------------------


class TestRemoteEquivalence:
    def test_warm_up_matches_local(self, astro_catalog, queries):
        with started(RunnerNode()) as a, started(RunnerNode()) as b:
            remote = WorkloadEvaluator(astro_catalog)
            backplane = RemoteBackplane(
                remote, [a.address, b.address], retries=1,
            )
            remote_calls = backplane.warm_up(queries)
            backplane.close()

        local = WorkloadEvaluator(astro_catalog)
        local_calls = local.warm_up(queries)

        assert remote_calls == local_calls
        assert pool_terms(remote) == pool_terms(local)

    def test_second_warm_up_ships_nothing(self, astro_catalog, queries):
        with started(RunnerNode()) as node:
            remote = WorkloadEvaluator(astro_catalog)
            backplane = RemoteBackplane(remote, [node.address], retries=1)
            backplane.warm_up(queries)
            shipped = node.tasks_served
            assert backplane.warm_up(queries) == 0
            assert node.tasks_served == shipped  # resident: no task sent
            backplane.close()


# ----------------------------------------------------------------------
# Failure injection: death mid-batch, graceful degradation.
# ----------------------------------------------------------------------


class TestFailureInjection:
    def test_node_death_mid_batch_drains_to_survivor(self, astro_catalog):
        # Enough statements that the dying node is sure to be handed its
        # second (fatal) task before the survivor drains the queue.
        queries = list(sdss_workload(n_queries=24, seed=11))
        dying = RunnerNode(fail_after_tasks=2).start()
        survivor = RunnerNode().start()
        try:
            remote = WorkloadEvaluator(astro_catalog)
            backplane = RemoteBackplane(
                remote, [dying.address, survivor.address], retries=1,
            )
            backplane._closing = SpiedSignal()
            backplane.warm_up(queries)
            assert backplane.live_nodes == [survivor.address]
            backplane.close()
        finally:
            dying.stop()
            survivor.stop()

        local = WorkloadEvaluator(astro_catalog)
        local.warm_up(queries)
        assert remote.evaluate_configurations(queries, [None]).matrix == \
            local.evaluate_configurations(queries, [None]).matrix
        assert pool_terms(remote) == pool_terms(local)

        registry = obs.metrics()
        assert metric_value(registry,
            "repro_remote_node_deaths_total", node=dying.address
        ) == 1
        assert metric_value(registry,
            "repro_remote_retries_total", node=dying.address
        ) >= 1
        # The survivor absorbed the dead node's work: no local fallback.
        assert metric_value(registry,
            "repro_remote_fallback_total", op="warm"
        ) == 0

    def test_whole_fleet_death_falls_back_to_local(
            self, astro_catalog, queries):
        node = RunnerNode(fail_after_tasks=0).start()
        try:
            remote = WorkloadEvaluator(astro_catalog)
            backplane = RemoteBackplane(remote, [node.address], retries=0)
            backplane._closing = SpiedSignal()
            calls = backplane.warm_up(queries)
            assert backplane.live_nodes == []
            backplane.close()
        finally:
            node.stop()

        local = WorkloadEvaluator(astro_catalog)
        assert calls == local.warm_up(queries)
        assert remote.evaluate_configurations(queries, [None]).matrix == \
            local.evaluate_configurations(queries, [None]).matrix
        assert pool_terms(remote) == pool_terms(local)

        registry = obs.metrics()
        assert metric_value(registry,
            "repro_remote_fallback_total", op="warm"
        ) == len(pool_terms(local))

    def test_unreachable_runner_falls_back(self, astro_catalog, queries):
        # A port nothing listens on: connection refused, retries
        # exhausted, node declared dead, everything runs locally.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        remote = WorkloadEvaluator(astro_catalog)
        backplane = RemoteBackplane(remote, ["127.0.0.1:%d" % port], retries=1)
        backplane._closing = SpiedSignal()
        calls = backplane.warm_up(queries)
        backplane.close()
        local = WorkloadEvaluator(astro_catalog)
        assert calls == local.warm_up(queries)
        assert pool_terms(remote) == pool_terms(local)


# ----------------------------------------------------------------------
# Overlap: submit / collect over persistent per-node drainers.
# ----------------------------------------------------------------------

WAIT_S = 30.0  # bound on every wait below; none is ever waited out


class HeldNode(RunnerNode):
    """A runner whose replies wait for ``release`` — the tests' clock.
    ``arrived`` counts the task frames that have reached it; with
    ``dies`` it hangs up instead of answering once released."""

    def __init__(self, held=True, dies=False):
        super().__init__()
        self.release = threading.Event()
        self.arrived = threading.Semaphore(0)
        self.dies = dies
        if not held:
            self.release.set()

    def _handle_task(self, lease, frame):
        self.arrived.release()
        assert self.release.wait(WAIT_S)
        if self.dies:
            raise TransportError("node died mid-task")  # no reply, EOF
        return super()._handle_task(lease, frame)


class PairConnection(RunnerConnection):
    """A connection whose socket is one end of a ``socketpair()``, the
    other end served by a thread of *node* — a transport with no
    listener and no port."""

    def __init__(self, name, catalog_frame, node):
        super().__init__(name, catalog_frame, timeout=WAIT_S)
        self.node = node
        self.dials = 0

    def _dial(self):
        self.dials += 1
        if self.node is None:
            raise TransportError("runner %s is unreachable" % self.address)
        ours, theirs = socket.socketpair()
        threading.Thread(
            target=self.node.serve_connection, args=(theirs,), daemon=True,
        ).start()
        return ours


@contextmanager
def started(node):
    """*node* listening for the block, stopped after it."""
    node.start()
    try:
        yield node
    finally:
        node.stop()


def pair_backplane(evaluator, nodes, **kwargs):
    """A backplane over one :class:`PairConnection` per node (``None``
    = a node nothing answers for)."""
    frame = catalog_frame_for(evaluator)
    kwargs.setdefault("retries", 0)
    return FleetBackplane(
        evaluator,
        [PairConnection("node-%d" % i, frame, node)
         for i, node in enumerate(nodes)],
        **kwargs,
    )


def bounded(function, *args):
    """Run *function* on a thread and fail — not hang — if it blocks."""
    outcome = []

    def call():
        try:
            outcome.append((function(*args), None))
        except BaseException as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(WAIT_S)
    assert not thread.is_alive(), "%r blocked" % (function,)
    result, error = outcome[0]
    if error is not None:
        raise error
    return result


def drainer_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-remote-")]


class TestOverlap:
    def test_submit_returns_and_unrelated_collect_does_not_block(
            self, astro_catalog, queries):
        node = HeldNode()
        evaluator = WorkloadEvaluator(astro_catalog)
        evaluator.warm_up(queries[:1])
        resident = evaluator.bound(queries[0][0]).sql
        backplane = pair_backplane(evaluator, [node])
        try:
            wanted = backplane.submit(queries[1:2])  # returns: reply held
            assert len(wanted) == 1 and wanted[0] not in evaluator.pool
            assert node.arrived.acquire(timeout=WAIT_S)
            registry = obs.metrics()
            assert metric_value(registry, "repro_remote_inflight_tasks") == 1
            # A resident statement is nothing to wait for, whatever else
            # is in flight.
            assert backplane.submit(queries[:1]) == []
            assert bounded(backplane.collect, [resident]) == 0
            assert bounded(backplane.warm_up, queries[:1]) == 0
            assert wanted[0] not in evaluator.pool
            node.release.set()
            assert bounded(backplane.collect, wanted) > 0
            assert wanted[0] in evaluator.pool
            assert metric_value(registry, "repro_remote_inflight_tasks") == 0
        finally:
            node.release.set()
            backplane.close()

    def test_inflight_signature_ships_once(self, astro_catalog, queries):
        node = HeldNode()
        evaluator = WorkloadEvaluator(astro_catalog)
        backplane = pair_backplane(evaluator, [node])
        try:
            first = backplane.submit(queries[:2])
            # The twin tenant's request: same texts to wait for,
            # nothing new on the wire.
            assert backplane.submit(queries[:2]) == first
            assert backplane.submit(queries[1:3])[0] == first[1]
            node.release.set()
            bounded(backplane.warm_up, queries[:3])
        finally:
            node.release.set()
            backplane.close()
        assert node.tasks_served == 3
        assert metric_value(obs.metrics(),
            "repro_remote_tasks_total", node="node-0", op="warm") == 3

    def test_collect_installs_replies_it_was_not_asked_for(
            self, astro_catalog, queries):
        evaluator = WorkloadEvaluator(astro_catalog)
        # One node serves in submission order: by the time the last
        # entry is back, so is every earlier one.
        backplane = pair_backplane(evaluator, [HeldNode(held=False)])
        try:
            wanted = backplane.submit(queries)
            bounded(backplane.collect, wanted[-1:])
            assert all(s in evaluator.pool for s in wanted)
        finally:
            backplane.close()
        local = WorkloadEvaluator(astro_catalog)
        local.warm_up(queries)
        assert pool_terms(evaluator) == pool_terms(local)

    @pytest.mark.parametrize("survivors", [1, 0])
    def test_node_failing_between_submit_and_collect(
            self, astro_catalog, queries, survivors):
        """The dying node takes a task and hangs up without answering
        while nobody is collecting.  The survivor — or, with none, the
        local fallback inside the next ``collect`` — finishes the
        batch, the dead node's own task included."""
        nodes = [HeldNode(dies=True)] + [HeldNode()] * survivors
        evaluator = WorkloadEvaluator(astro_catalog)
        backplane = pair_backplane(evaluator, nodes)
        try:
            wanted = backplane.submit(queries)
            for node in nodes:  # each holds one claimed task
                assert node.arrived.acquire(timeout=WAIT_S)
            for node in nodes:
                node.release.set()
            bounded(backplane.collect, wanted)
            assert backplane.live_nodes == ["node-1"] * survivors
        finally:
            for node in nodes:
                node.release.set()
            backplane.close()
        local = WorkloadEvaluator(astro_catalog)
        local.warm_up(queries)
        assert pool_terms(evaluator) == pool_terms(local)
        registry = obs.metrics()
        assert metric_value(registry,
            "repro_remote_node_deaths_total", node="node-0") == 1
        assert metric_value(registry, "repro_remote_fallback_total",
                            op="warm") == (0 if survivors else len(queries))

    def test_unreachable_node_is_detected_and_counted(
            self, astro_catalog, queries):
        """Connecting happens on the node's drainer now: a node dead at
        connect is still declared dead and counted, and never claims a
        task."""
        evaluator = WorkloadEvaluator(astro_catalog)
        backplane = pair_backplane(
            evaluator, [None, HeldNode(held=False)])
        try:
            bounded(backplane.warm_up, queries)
            thread = next(t for t in backplane._drainers
                          if t.name == "repro-remote-node-0")
            thread.join(WAIT_S)
            assert not thread.is_alive()
            assert backplane.live_nodes == ["node-1"]
        finally:
            backplane.close()
        registry = obs.metrics()
        assert metric_value(registry,
            "repro_remote_node_deaths_total", node="node-0") == 1
        assert metric_value(registry,
            "repro_remote_tasks_total", node="node-1", op="warm") \
            == len(queries)
        assert metric_value(registry, "repro_remote_fallback_total",
                            op="warm") == 0

    def test_fatal_wire_error_surfaces_from_collect(
            self, astro_catalog, queries):
        class Incompatible(RunnerNode):
            def _handle_task(self, lease, frame):
                raise WireFormatError("speaks another dialect")

        evaluator = WorkloadEvaluator(astro_catalog)
        backplane = pair_backplane(evaluator, [Incompatible()], retries=3)
        try:
            wanted = backplane.submit(queries[:2])  # the drainer fails ...
            with pytest.raises(WireFormatError, match="dialect"):
                bounded(backplane.collect, wanted)  # ... the caller hears
            with pytest.raises(WireFormatError, match="dialect"):
                bounded(backplane.warm_up, queries[:1])
        finally:
            backplane.close()
        registry = obs.metrics()
        assert metric_value(registry,
            "repro_remote_retries_total", node="node-0") == 0
        assert metric_value(registry,
            "repro_remote_node_deaths_total", node="node-0") == 0

    def test_many_drainers_lose_and_duplicate_nothing(self, astro_catalog):
        """More drainers than cores, a hostile switch interval, submits
        interleaved with collects: every statement is shipped exactly
        once and ends resident."""
        import sys

        workload = list(sdss_workload(n_queries=40, seed=23))
        evaluator = WorkloadEvaluator(astro_catalog)
        nodes = [HeldNode(held=False) for __ in range(5)]
        backplane = pair_backplane(evaluator, nodes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            wanted = []
            for start in range(0, len(workload), 4):
                wanted += backplane.submit(workload[start:start + 6])
                bounded(backplane.collect, wanted[start // 2:start // 2 + 1])
            bounded(backplane.collect, wanted)
        finally:
            sys.setswitchinterval(interval)
            backplane.close()
        distinct = len(evaluator.warm_targets(workload))
        assert len(evaluator.pool) == distinct
        assert sum(node.tasks_served for node in nodes) == distinct
        registry = obs.metrics()
        assert sum(
            metric_value(registry, "repro_remote_tasks_total",
                         node=conn.address, op="warm")
            for conn in backplane._connections
        ) == distinct
        assert metric_value(registry, "repro_remote_inflight_tasks") == 0

    def test_close_abandons_inflight_and_joins_drainers(
            self, astro_catalog, queries):
        nodes = [HeldNode(), HeldNode()]
        evaluator = WorkloadEvaluator(astro_catalog)
        backplane = pair_backplane(evaluator, nodes)
        try:
            wanted = backplane.submit(queries)
            for node in nodes:  # both drainers are blocked in recv
                assert node.arrived.acquire(timeout=WAIT_S)
            assert len(drainer_threads()) == 2
            bounded(backplane.close)
            assert drainer_threads() == []
            assert len(evaluator.pool) == 0
            for use in (lambda: backplane.submit(queries),
                        lambda: backplane.collect(wanted),
                        lambda: backplane.warm_up(queries)):
                with pytest.raises(DesignError, match="closed"):
                    use()
            backplane.close()  # idempotent
        finally:
            for node in nodes:
                node.release.set()
        registry = obs.metrics()
        assert metric_value(registry, "repro_remote_inflight_tasks") == 0
        for name in ("node-0", "node-1"):  # a clean close is no death
            assert metric_value(registry,
                "repro_remote_node_deaths_total", node=name) == 0
            assert metric_value(registry,
                "repro_remote_retries_total", node=name) == 0


class SpiedSignal(threading.Event):
    """The backplane's close signal, recording every backoff that
    waits on it (``entered`` is set when the first one starts)."""

    def __init__(self, interrupt=False):
        super().__init__()
        self.delays = []
        self.entered = threading.Event()
        self.interrupt = interrupt

    def wait(self, timeout=None):
        self.delays.append(timeout)
        self.entered.set()
        if self.interrupt:
            return super().wait(WAIT_S)  # only close() ends it
        return self.is_set()  # an injected clock: nobody sleeps


class TestInterruptibleBackoff:
    @pytest.fixture(autouse=True)
    def no_sleeping(self, monkeypatch):
        import time

        def refuse(seconds):
            raise AssertionError("slept %r s" % (seconds,))

        monkeypatch.setattr(time, "sleep", refuse)

    def test_backoff_waits_on_the_close_signal(self, astro_catalog):
        assert self._backoffs(astro_catalog, 3) == [0.05, 0.1, 0.2]

    def test_backoff_doubles_up_to_its_cap(self, astro_catalog):
        assert self._backoffs(astro_catalog, 6) == [
            0.05, 0.1, 0.2, 0.4, 0.8, 1.0]

    @staticmethod
    def _backoffs(catalog, retries):
        """The delays one request's retries wait, recorded, never slept."""
        backplane = pair_backplane(
            WorkloadEvaluator(catalog), [None], retries=retries,
        )
        signal = backplane._closing = SpiedSignal()
        conn = backplane._connections[0]
        with pytest.raises(TransportError, match="after %d retries" % retries):
            backplane._with_retry(conn, conn.connect)
        assert metric_value(obs.metrics(),
            "repro_remote_retries_total", node="node-0") == retries
        backplane.close()
        return signal.delays

    def test_close_never_waits_a_backoff_out(self, astro_catalog, queries):
        """``close()`` ends the backoff at once.  The node was failing
        *before* the close and never came back, so it is counted — a
        short degraded run still reports its dead node; only a failure
        observed after ``close()`` (the hang-up itself, see
        ``test_close_abandons_inflight_and_joins_drainers``) is not."""
        backplane = pair_backplane(
            WorkloadEvaluator(astro_catalog), [None], retries=3,
        )
        signal = backplane._closing = SpiedSignal(interrupt=True)
        backplane.submit(queries[:1])
        assert signal.entered.wait(WAIT_S)  # its drainer is backing off
        bounded(backplane.close)  # returns now, not a backoff later
        assert drainer_threads() == []
        assert signal.delays == [0.05]
        registry = obs.metrics()
        assert metric_value(registry,
            "repro_remote_node_deaths_total", node="node-0") == 1
        assert metric_value(registry,
            "repro_remote_retries_total", node="node-0") == 0


# ----------------------------------------------------------------------
# A connection is a cache.
# ----------------------------------------------------------------------


class SpiedNode(RunnerNode):
    """A runner that exposes the evaluator behind its last task."""

    evaluator = None

    def _handle_task(self, evaluator, frame):
        self.evaluator = evaluator
        return super()._handle_task(evaluator, frame)


class TestConnectionIsACache:
    def test_resident_re_request_is_served_not_rebuilt(
            self, astro_catalog, queries):
        """Three rounds of the same task frames on one connection: its
        evaluator builds each statement once and serves the re-requests
        from what it holds."""
        node = SpiedNode()
        conn = PairConnection(
            "node-0", catalog_frame_for(WorkloadEvaluator(astro_catalog)),
            node)
        frames = [dict(TASK, sql=sql) for sql, __ in queries]
        entries, built = [], []
        try:
            for __ in range(3):
                entries.append([conn.request(frame)["entry"]
                                for frame in frames])
                built.append(node.evaluator.precompute_calls)
        finally:
            conn.close()
        assert node.tasks_served == 3 * len(frames)
        assert entries[0] == entries[1] == entries[2]
        assert built[0] > 0 and built == [built[0]] * 3


class LyingNode(RunnerNode):
    """A runner whose result frames carry ``edit(entry payload)`` in
    place of the entry it built."""

    def __init__(self, edit):
        super().__init__()
        self.edit = edit

    def _handle_task(self, evaluator, frame):
        reply = super()._handle_task(evaluator, frame)
        payload = self.edit(json.loads(reply["entry"]))
        return dict(reply, entry=payload and json.dumps(payload))


def another_statement(payload):
    """The entry re-labelled as the same text with one literal moved:
    a statement of the same tables and columns, so every slot check
    passes."""
    sql = re.sub(r"\d+\.\d+", lambda m: "%.2f" % (float(m.group()) + 1),
                 payload["sql"], count=1)
    assert sql != payload["sql"]
    return dict(payload, sql=sql)


def relabel_slots(payload):
    for plan in payload["plans"]:
        for slot in plan["slots"]:
            slot["alias"] = "nobody"
    return payload


class TestEvictionDropsDerivedStateNotTheAnswer:
    def test_evicted_statement_ships_no_task_and_is_decoded(
            self, astro_catalog, queries, monkeypatch):
        node = HeldNode(held=False)
        evaluator = WorkloadEvaluator(
            astro_catalog, pool=InumCachePool(capacity=2))
        local = WorkloadEvaluator(astro_catalog)
        reference = local.evaluate_configurations(queries, [None]).matrix

        real = evaluator_module.build_cache

        def runner_only(bq, catalog, settings):
            # The in-process runner plans over its own, shipped catalog.
            assert catalog is not astro_catalog, "the parent planned"
            return real(bq, catalog, settings)

        monkeypatch.setattr(evaluator_module, "build_cache", runner_only)
        with closing(pair_backplane(evaluator, [node])) as backplane:
            spent = bounded(backplane.warm_up, queries)
            assert spent == local.precompute_calls > 0
            assert len(evaluator.pool) == 2
            evicted = [
                pair for pair in queries
                if evaluator.bound(pair[0]).sql not in evaluator.pool
            ]
            assert len(evicted) == len(queries) - 2
            # Every entry the runner returned is decodable: nothing to
            # ship, nothing to wait for, nothing to pay.
            assert all(evaluator.knows_terms(evaluator.bound(sql))
                       for sql, __ in queries)
            assert backplane.submit(evicted) == []
            assert bounded(backplane.warm_up, queries) == 0
            assert evaluator.evaluate_configurations(
                queries, [None]).matrix == reference
            assert bounded(backplane.warm_up, evicted) == 0
        assert node.tasks_served == len(queries)
        registry = obs.metrics()
        assert metric_value(registry,
            "repro_remote_tasks_total", node="node-0", op="warm"
        ) == len(queries)
        assert metric_value(registry, "repro_remote_fallback_total",
                            op="warm") == 0
        # The parent plans nothing (runner_only): each miss decoded.
        assert evaluator.pool.stats.misses >= len(evicted)
        assert evaluator.precompute_calls == spent

    @pytest.mark.parametrize("edit", [
        lambda payload: dict(payload, plans="none"),
        lambda payload: dict(payload, plans=[dict(
            payload["plans"][0], internal_cost=-1.0)]),
        relabel_slots,
        lambda payload: dict(payload, sql=["write", "x"]),
        lambda payload: {k: v for k, v in payload.items() if k != "sql"},
        lambda payload: dict(payload, kind=wire.KIND_OBS, wire_version=5),
        lambda payload: None,
        another_statement,
    ], ids=["plans-not-a-list", "negative-cost", "foreign-alias",
            "sql-not-text", "no-sql", "not-an-entry", "no-entry",
            "another-statement"])
    def test_malformed_entry_installs_and_remembers_nothing(
            self, astro_catalog, queries, edit):
        evaluator = WorkloadEvaluator(astro_catalog)
        with closing(pair_backplane(
                evaluator, [LyingNode(edit)])) as backplane:
            with pytest.raises(WireFormatError):
                bounded(backplane.warm_up, queries[:1])
        assert len(evaluator.pool) == 0
        assert evaluator.precompute_calls == 0
        assert not evaluator.knows_terms(evaluator.bound(queries[0][0]))
        assert metric_value(obs.metrics(), "repro_remote_inflight_tasks") == 0


# ----------------------------------------------------------------------
# The trust boundary: malformed frames.
# ----------------------------------------------------------------------

DROP = object()  # "remove this key"
TASK = {"kind": wire.KIND_TASK, "op": "warm", "locate": False, "ctx": None,
        "sql": "SELECT ra FROM photoobj WHERE ra < 5"}


def edited(frame, changes):
    frame = dict(frame, **changes)
    return {key: value for key, value in frame.items() if value is not DROP}


class TestMalformedFrames:
    @pytest.mark.parametrize("catalog_changes, task_changes", [
        ({"settings": {"enable_warp_drive": True}}, {}),
        ({"settings": {"seq_page_cost": "cheap"}}, {}),
        # Right-typed but absurd (ISSUE 24): refused by PlannerSettings
        # itself, before a plan can divide by it or price nan.
        ({"settings": {"work_mem": 0}}, {}),
        ({"settings": {"cpu_operator_cost": float("nan")}}, {}),
        ({"settings": {"seq_page_cost": -1.0}}, {}),
        ({"catalog": DROP}, {}),
        ({"pool_capacity": 0}, {}),
        ({}, {"sql": DROP}),
        ({}, {"locate": True}),  # ... on a SELECT
        ({}, {"sql": "SELECT nothing FROM nowhere"}),
    ], ids=["unknown-setting", "setting-type", "zero-work-mem", "nan-cost",
            "negative-cost", "no-catalog", "zero-capacity",
            "no-sql", "locate-mismatch", "unbound-sql"])
    def test_malformed_frame_is_fatal_after_one_request(
            self, astro_catalog, catalog_changes, task_changes):
        """Re-sending the same bad frame cannot help: the runner says
        ``wire_error``, the client raises instead of reconnecting, and a
        healthy node is not declared dead."""
        node = RunnerNode()
        backplane = pair_backplane(
            WorkloadEvaluator(astro_catalog), [node], retries=3,
        )
        backplane._closing = SpiedSignal()
        conn = backplane._connections[0]
        conn._catalog_frame = edited(conn._catalog_frame, catalog_changes)
        try:
            with pytest.raises(WireFormatError, match="runner error"):
                backplane._with_retry(
                    conn, lambda: conn.request(edited(TASK, task_changes))
                )
        finally:
            backplane.close()
        assert conn.dials == 1
        assert node.tasks_served == (1 if task_changes else 0)
        registry = obs.metrics()
        assert metric_value(registry,
            "repro_remote_retries_total", node="node-0") == 0
        assert metric_value(registry,
            "repro_remote_node_deaths_total", node="node-0") == 0

    @pytest.mark.parametrize("path, value", [case[1:] for case in
                                             MALFORMED_CATALOGS],
                             ids=[case[0] for case in MALFORMED_CATALOGS])
    def test_malformed_catalog_contents_are_a_wire_error_and_the_node_serves_on(
            self, astro_catalog, path, value):
        good = catalog_frame_for(WorkloadEvaluator(astro_catalog))
        node = RunnerNode()
        frame = shapes.edited(good, ("catalog",) + path, value)
        (reply,) = converse(node, frame, TASK)
        assert reply["kind"] == wire.KIND_ERROR and reply["wire_error"], reply
        ack, result = converse(node, good, TASK)
        assert result["kind"] == wire.KIND_RESULT and result["entry"]


def converse(node, *frames):
    """Hello, then *frames* in turn over a socketpair served by *node*,
    until one is answered with an error; the replies."""
    ours, theirs = socket.socketpair()
    server = threading.Thread(
        target=node.serve_connection, args=(theirs,), daemon=True)
    server.start()
    replies = []
    try:
        ours.settimeout(WAIT_S)
        send_frame(ours, {"kind": wire.KIND_HELLO, "role": "client"})
        assert recv_frame(ours)["kind"] == wire.KIND_HELLO
        for frame in frames:
            _send_any(ours, frame)
            replies.append(recv_frame(ours))
            if replies[-1]["kind"] == wire.KIND_ERROR:
                break
    finally:
        ours.close()
        server.join(WAIT_S)
    assert not server.is_alive()
    return replies


def test_absurd_settings_frame_is_a_wire_error_and_the_node_serves_on(
        astro_catalog):
    good = catalog_frame_for(WorkloadEvaluator(astro_catalog, PlannerSettings()))
    node = RunnerNode()
    for absurd in ({"work_mem": 0}, {"cpu_operator_cost": float("nan")},
                   {"seq_page_cost": -1.0}):
        frame = dict(good, settings=dict(good["settings"], **absurd))
        (reply,) = converse(node, frame, TASK)
        assert reply["kind"] == wire.KIND_ERROR and reply["wire_error"], reply
        assert next(iter(absurd)) in reply["error"]
        # The next connection is served as if nothing had happened.
        ack, result = converse(node, good, TASK)
        assert result["kind"] == wire.KIND_RESULT and result["entry"]


# What a version-5 build wrote beside this build's fields: the planner
# and COLT settings that became constants, and a catalog's or design's
# own format stamp.
V5_PLANNER = dict(
    effective_cache_fraction=0.0, index_only_visible_frac=0.95,
    enable_seqscan=True, enable_indexscan=True, enable_indexonlyscan=True,
    enable_sort=True, enable_material=True)
V5_COLT = dict(ewma_alpha=0.35, adopt_threshold=0.05, amortization_epochs=10)


def _runner_refuses(*frames, builds=0):
    """Send *frames* as written, each stamped by its own
    ``wire_version``, to a runner over a socketpair until one is
    answered with an error; that error as the client raises it.  The
    runner must build *builds* evaluators and serve no task."""
    built, served = [], []

    class Node(RunnerNode):
        def _build_evaluator(self, frame):
            built.append(frame)
            return super()._build_evaluator(frame)

        def _handle_task(self, evaluator, frame):
            served.append(frame)
            return super()._handle_task(evaluator, frame)

    ours, theirs = socket.socketpair()
    server = threading.Thread(target=Node().serve_connection, args=(theirs,),
                              daemon=True)
    server.start()
    try:
        ours.settimeout(WAIT_S)
        for frame in frames:
            _send_raw(ours, frame)
            reply = recv_frame(ours)
            if reply["kind"] == wire.KIND_ERROR:
                break
    finally:
        ours.close()
        server.join(WAIT_S)
    assert not server.is_alive()
    assert len(built) == builds and served == []
    _answer(reply)


V6_HELLO = {"kind": wire.KIND_HELLO, "role": "client",
            "wire_version": wire.WIRE_VERSION}


def _v5_hello(catalog, tmp_path):
    _runner_refuses(dict(V6_HELLO, wire_version=5))


def _v5_catalog_frame(catalog, tmp_path):
    frame = catalog_frame_for(WorkloadEvaluator(catalog, PlannerSettings()))
    frame["catalog"]["version"] = 1
    frame["settings"].update(V5_PLANNER)
    _runner_refuses(V6_HELLO, dict(frame, wire_version=5))


def _v5_task_frame(catalog, tmp_path):
    frame = catalog_frame_for(WorkloadEvaluator(catalog, PlannerSettings()))
    _runner_refuses(V6_HELLO, dict(frame, wire_version=wire.WIRE_VERSION),
                    dict(TASK, wire_version=5), builds=1)


def _v5_entry_text(catalog, tmp_path):
    """A current result frame carrying an entry a version-5 runner
    wrote, alias-invariant signature included: the client installs,
    remembers and ingests nothing of it."""
    entry = dict(json.loads(RESULT["entry"]), wire_version=5,
                 signature=[[["photoobj", []]], None, False])
    evaluator = WorkloadEvaluator(catalog)
    with closing(FleetBackplane(evaluator, [])) as backplane:
        before = telemetry()
        try:
            install(backplane, dict(RESULT, entry=json.dumps(entry)))
        finally:
            assert telemetry() == before
            assert len(evaluator.pool) == 0
            assert not evaluator.knows_terms(evaluator.bound(TASK["sql"]))


def _service(catalog, tenant):
    built = TuningService(shards=1)
    built.add_backplane("sdss", catalog)
    built.add_tenant(tenant, "sdss", recommend_every=4, window=5,
                     colt_settings=ColtSettings(epoch_length=3))
    return built


def _v5_service_payload(catalog):
    """A mid-run service snapshot as a version-5 build wrote it: the
    retired COLT settings in every session's options and a format stamp
    on every tuner design."""
    written = _service(catalog, "t0")
    written.run_scheduled({"t0": itertools.islice(
        drifting_stream(SDSS_PHASES, seed=3), 7)}, finish=False)
    payload = json.loads(wire.dumps(written.snapshot()))
    for entry in payload["tenants"]:
        session = entry["session"]
        session["colt_settings"].update(V5_COLT)
        tuner = session["tuner"]
        for design in (tuner["current"], tuner["pending_alert"]):
            if design is not None:
                design["version"] = 1
    return dict(payload, wire_version=5)


def _v5_service_file(catalog, tmp_path):
    path = str(tmp_path / STATE_FILENAME)
    with open(path, "w") as f:
        json.dump(_v5_service_payload(catalog), f, sort_keys=True)
    with open(path, "rb") as f:
        written_bytes = f.read()
    reader = _service(catalog, "bystander")
    before = (reader.queue_depths(), reader.snapshot())
    try:
        reader.load_state(str(tmp_path))
    finally:
        assert list(reader._tenants) == ["bystander"]
        assert (reader.queue_depths(), reader.snapshot()) == before
        with open(path, "rb") as f:
            assert f.read() == written_bytes


def _v5_service_text(catalog, tmp_path):
    wire.loads(json.dumps(_v5_service_payload(catalog)))


def _v5_tenant_text(catalog, tmp_path):
    (entry,) = _v5_service_payload(catalog)["tenants"]
    wire.loads(json.dumps(dict(entry["session"], wire_version=5)))


def _v5_telemetry_text(catalog, tmp_path):
    wire.loads(json.dumps(dict(DELTA, wire_version=5)))


V5_LOADS = {
    "hello": _v5_hello, "catalog-frame": _v5_catalog_frame,
    "task-frame": _v5_task_frame, "entry-text": _v5_entry_text,
    "service-file": _v5_service_file, "service-text": _v5_service_text,
    "tenant-text": _v5_tenant_text, "telemetry-text": _v5_telemetry_text,
}


@pytest.mark.parametrize("load", V5_LOADS.values(), ids=V5_LOADS.keys())
def test_a_version_5_payload_is_refused_naming_its_version(
        astro_catalog, tmp_path, load):
    """A payload of a version-5 build's exact shape — a hello, a
    catalog frame naming the retired planner toggles, a task frame, a
    cache entry, a service file or text carrying the retired COLT
    settings, a tenant snapshot, a telemetry delta — is a typed error
    naming version 5: the runner builds nothing it was not sent at
    version 6 and serves nothing, the client installs nothing, the
    service restores nothing and leaves the file as it was."""
    with pytest.raises(WireFormatError, match="wire version 5 "):
        load(astro_catalog, tmp_path)


def _fields(cls):
    """The keys a record's reader reads: its dataclass's fields."""
    return dict.fromkeys((f.name for f in fields(cls)), object)


def _planner_settings(catalog):
    frame = catalog_frame_for(WorkloadEvaluator(catalog, PlannerSettings()))
    return frame["settings"], _fields(PlannerSettings)


def _colt_settings(catalog):
    session = _service(catalog, "t0").tenant("t0").snapshot()
    return (wire.record_to_wire(session.colt_settings),
            _fields(ColtSettings))


def _catalog(catalog):
    return catalog_to_dict(catalog), wire.SHAPES[wire.CATALOG]


def _design(catalog):
    design = Configuration(indexes=frozenset(
        [Index("photoobj", ("ra", "dec"))]))
    return wire.record_to_wire(design), wire.SHAPES[wire.CATALOG]["design"]


def _service_snapshot(catalog):
    """A pause-point snapshot past a drift, with epochs, candidates and
    refreshes in it."""
    service = _service(catalog, "t0")
    taken = []
    service.run_scheduled({"t0": itertools.islice(
        drifting_stream(SDSS_PHASES, seed=3), 14)}, finish=False,
        snapshot_interval=13, on_snapshot=taken.append)
    (payload,) = taken
    session = payload["tenants"][0]["session"]
    assert session["drift_events"] and session["recommendations"]
    assert session["tuner"]["candidates"]
    assert session["tuner"]["report"]["epochs"]
    return json.loads(json.dumps(payload))


def _service_payload(catalog):
    return _service_snapshot(catalog), wire.SHAPES[wire.KIND_SERVICE]


def _tenant(catalog):
    (entry,) = _service_snapshot(catalog)["tenants"]
    return (entry["session"],
            wire.SHAPES[wire.KIND_SERVICE]["tenants"][0]["session"])


def _tuner(catalog):
    session, shape = _tenant(catalog)
    return session["tuner"], shape["tuner"]


WRITTEN = {
    "planner-settings": _planner_settings, "colt-settings": _colt_settings,
    "catalog": _catalog, "design": _design,
    "service": _service_payload, "tenant": _tenant, "tuner": _tuner,
}


@pytest.mark.parametrize("write", WRITTEN.values(), ids=WRITTEN.keys())
def test_a_payload_names_exactly_the_fields_its_reader_reads(
        astro_catalog, write):
    """Every object a writer emits has exactly its shape's keys: a
    settings payload is its dataclass's fields, a catalog or design is
    its shape, and so is each node of a service, tenant or tuner
    snapshot — no retired
    setting or option, no format stamp of its own, and no key that
    nothing reads."""
    written, shape = write(astro_catalog)
    assert list(shapes.stray_keys(written, shape)) == []


# The seeds every frame kind is fuzzed from (``tests/shapes.py``), built
# the way the runner and the client build them.
GOOD = catalog_frame_for(WorkloadEvaluator(make_sdss(scale=0.01),
                                           PlannerSettings()))
HELLO = {"kind": wire.KIND_HELLO, "role": "client"}


def _seed_delta():
    """A runner's telemetry shipment: a labelled and a plain counter, a
    histogram and a span."""
    obs.reset()
    with obs.tracer().span(SPAN_WORKER_WARM_UP, locate=False):
        registry = obs.metrics()
        registry.family(REMOTE_RETRIES).labels(node="a").inc(3)
        registry.family(COLGEN_ROUNDS).inc()
        registry.family(POOL_BUILD_SECONDS).observe(0.01)
    delta = json.loads(json.dumps(wire.obs_to_wire(obs.drain_deltas())))
    obs.reset()
    return delta


def _seed_result():
    evaluator = WorkloadEvaluator(make_sdss(scale=0.01))
    bq = evaluator.bound(TASK["sql"])
    return {"kind": wire.KIND_RESULT, "op": "warm", "obs": DELTA,
            "entry": wire.dumps(wire.entry_to_wire(
                bq.sql, evaluator.cache_for(bq)))}


DELTA = _seed_delta()
RESULT = _seed_result()
ERROR = {"kind": wire.KIND_ERROR, "error": "no", "wire_error": True}


def telemetry():
    """Counters, histograms and spans — what an ingest may move.  (The
    in-flight gauge counts a reply as taken whether or not it installs.)"""
    snapshot = obs.metrics().snapshot()
    return (snapshot["counters"], snapshot["histograms"],
            obs.tracer().export())


def install(backplane, reply):
    """Hand *reply* to ``_install`` as a drainer would have."""
    class Node:
        address = "node-0"

    backplane._replies.append((None, Node(), reply))
    backplane._install()


@pytest.mark.parametrize("delta", [
    [1],
    dict(DELTA, counters=[
        DELTA["counters"][0],
        dict(DELTA["counters"][1], samples=[[[], "x"]]),
    ]),
    {"spans": [5]},
], ids=["not-an-object", "second-counter-a-string", "spans-only"])
def test_a_malformed_delta_merges_nothing(astro_catalog, delta):
    """All or nothing: a telemetry delta that does not validate is a
    WireFormatError at install, and no counter, histogram or span of it
    lands — nor the entry it came with."""
    evaluator = WorkloadEvaluator(astro_catalog)
    with closing(FleetBackplane(evaluator, [])) as backplane:
        before = telemetry()
        with pytest.raises(WireFormatError):
            install(backplane, dict(RESULT, obs=delta))
        assert telemetry() == before
    assert metric_value(obs.metrics(), REMOTE_RETRIES.name, node="a") == 0
    assert len(evaluator.pool) == 0


@given(delta=shapes.telemetry_deltas())
def test_a_delta_merges_iff_the_catalogue_declares_its_families(delta):
    """A worker's delta names families of the telemetry catalogue,
    shipped as declared; any other name is a wire error."""
    declared = all(
        family["name"] in FAMILIES
        and FAMILIES[family["name"]].kind + "s" == kind
        for kind in ("counters", "histograms") for family in delta[kind])
    try:
        wire.obs_from_wire(copy.deepcopy(delta))
    except WireFormatError:
        event("refused")
        assert not declared
        return
    event("runs")
    assert declared


class TestFrameFuzz:
    """Every frame kind of ``wire.SHAPES`` — and the telemetry delta a
    result frame carries — fuzzed from one seed by ``tests/shapes.py``:
    a frame the shape rejects is always a wire error."""

    @given(catalog_frame=neighbours(GOOD, wire.SHAPES[wire.KIND_CATALOG]),
           task_frame=neighbours(TASK, wire.SHAPES[wire.KIND_TASK])
           | st.builds(lambda sql: dict(TASK, sql=sql), st.text(max_size=30)))
    def test_every_reply_is_a_result_or_a_wire_error(
            self, catalog_frame, task_frame):
        node = RunnerNode()
        replies = converse(node, catalog_frame, task_frame)
        for reply in replies:
            assert reply["kind"] == wire.KIND_RESULT or (
                reply["kind"] == wire.KIND_ERROR and reply["wire_error"]
            ), reply
        if not conforms(catalog_frame, wire.SHAPES[wire.KIND_CATALOG]):
            assert len(replies) == 1
        elif not conforms(task_frame, wire.SHAPES[wire.KIND_TASK]):
            assert replies[-1]["kind"] == wire.KIND_ERROR
        event("%d replies, last %s" % (len(replies), replies[-1]["kind"]))
        # Whatever it was just sent, the node still serves.
        ack, result = converse(node, GOOD, TASK)
        assert result["kind"] == wire.KIND_RESULT and result["entry"]

    @given(hello=neighbours(HELLO, wire.SHAPES[wire.KIND_HELLO]))
    def test_a_hello_is_answered_by_a_hello_or_a_wire_error(self, hello):
        ours, theirs = socket.socketpair()
        server = threading.Thread(target=RunnerNode().serve_connection,
                                  args=(theirs,), daemon=True)
        server.start()
        try:
            ours.settimeout(WAIT_S)
            _send_any(ours, hello)
            reply = recv_frame(ours)
        finally:
            ours.close()
            server.join(WAIT_S)
        if conforms(hello, wire.SHAPES[wire.KIND_HELLO]):
            assert reply["kind"] == wire.KIND_HELLO
        else:
            assert reply["kind"] == wire.KIND_ERROR and reply["wire_error"]

    @given(reply=neighbours(RESULT, wire.SHAPES[wire.KIND_RESULT])
           | (neighbours(DELTA, wire.SHAPES[wire.KIND_OBS])
              | shapes.telemetry_deltas()).map(
               lambda delta: dict(RESULT, obs=delta)))
    def test_a_result_installs_whole_or_not_at_all(
            self, astro_catalog, reply):
        evaluator = WorkloadEvaluator(astro_catalog)
        with closing(FleetBackplane(evaluator, [])) as backplane:
            before = telemetry()
            try:
                install(backplane, reply)
            except ReproError as exc:
                event("refused: %s" % type(exc).__name__)
                assert conforms(reply, wire.SHAPES[wire.KIND_RESULT]) \
                    or isinstance(exc, WireFormatError)
                assert telemetry() == before and len(evaluator.pool) == 0
                return
        event("installed")
        assert conforms(reply, wire.SHAPES[wire.KIND_RESULT])
        assert len(evaluator.pool) == 1
        assert evaluator.evaluate_configurations(
            [TASK["sql"]], [None]).matrix[0][0] > 0

    @given(frame=neighbours(ERROR, wire.SHAPES[wire.KIND_ERROR]))
    def test_an_error_frame_raises_its_typed_error(self, frame):
        """Where a result is awaited, a (mangled) error frame raises: a
        retryable TransportError only for a well-formed one that says it
        is no format failure."""
        with pytest.raises((WireFormatError, TransportError)) as raised:
            _answer(frame, wire.KIND_RESULT)
        if not conforms(frame, wire.SHAPES[wire.KIND_ERROR]) \
                or frame.get("wire_error", False):
            assert raised.type is WireFormatError

    # The codec itself: any bytes a peer writes before it hangs up.
    BODIES = st.one_of(
        st.sampled_from([HELLO, TASK, RESULT, ERROR]).map(
            lambda frame: wire.dumps(frame).encode("utf-8")),
        st.binary(max_size=64),  # mostly neither UTF-8 nor JSON
        st.text(max_size=32).map(str.encode),  # mostly not JSON
        st.binary(max_size=16).map(lambda tail: b"\xff" + tail),
        st.recursive(st.none() | st.booleans() | st.integers() | st.text(
            max_size=8), lambda inner: st.lists(inner, max_size=3),
            max_leaves=6).map(lambda value: json.dumps(value).encode()),
        st.dictionaries(st.text(max_size=8), st.integers(), max_size=3).map(
            lambda value: json.dumps(value).encode()),  # no version
    )

    @given(body=BODIES, data=st.data(),
           length=st.none() | st.integers(0, 80) | st.integers(0, 2**32 - 1)
           | st.sampled_from([MAX_FRAME_BYTES, MAX_FRAME_BYTES + 1]))
    def test_any_bytes_are_a_payload_or_a_typed_error(self, body, data,
                                                      length):
        """A 4-byte length (the body's own, or any), a body, the stream
        torn anywhere and the connection closed: ``recv_frame`` returns
        a dict or raises the failure its docstring classifies, and
        nothing else escapes."""
        if length is None:
            length = len(body)
        stream = struct.pack("!I", length) + body
        torn = data.draw(st.just(len(stream))
                         | st.integers(0, len(stream)), label="torn at")
        ours, theirs = socket.socketpair()
        try:
            theirs.settimeout(WAIT_S)
            ours.sendall(stream[:torn])
            ours.close()
            try:
                payload = recv_frame(theirs)
            except (WireFormatError, TransportError) as exc:
                outcome = type(exc)
            else:
                assert isinstance(payload, dict)
                outcome = dict
        finally:
            ours.close()
            theirs.close()
        event(outcome.__name__)
        if torn == 0:
            assert outcome is TransportError  # closed between frames
        elif torn < 4 or length <= MAX_FRAME_BYTES and torn < 4 + length:
            assert outcome is TruncatedFrameError
        else:  # an oversized header or a whole frame: never retryable
            assert outcome in (dict, WireFormatError)

    # Nesting bombs: JSON nested deeper than a decoder recurses.
    BOMB = "[" * 100_000

    def test_a_nesting_bomb_frame_is_a_wire_error(self):
        ours, theirs = socket.socketpair()
        try:
            ours.sendall(struct.pack("!I", len(self.BOMB))
                         + self.BOMB.encode())
            with pytest.raises(WireFormatError, match="undecodable"):
                recv_frame(theirs)
        finally:
            ours.close()
            theirs.close()

    @pytest.mark.parametrize("before", [[], [HELLO], [HELLO, GOOD]],
                             ids=["as-hello", "as-catalog", "as-task"])
    def test_a_runner_answers_a_nesting_bomb_as_a_wire_error_and_serves_on(
            self, before):
        node = RunnerNode()
        ours, theirs = socket.socketpair()
        server = threading.Thread(target=node.serve_connection,
                                  args=(theirs,), daemon=True)
        server.start()
        try:
            ours.settimeout(WAIT_S)
            for frame in before:
                send_frame(ours, frame)
                assert recv_frame(ours)["kind"] != wire.KIND_ERROR
            ours.sendall(struct.pack("!I", len(self.BOMB))
                         + self.BOMB.encode())
            reply = recv_frame(ours)
        finally:
            ours.close()
            server.join(WAIT_S)
        assert reply["kind"] == wire.KIND_ERROR and reply["wire_error"], reply
        ack, result = converse(node, GOOD, TASK)
        assert result["kind"] == wire.KIND_RESULT and result["entry"]

    def test_a_result_carrying_a_nesting_bomb_installs_nothing(
            self, astro_catalog):
        evaluator = WorkloadEvaluator(astro_catalog)
        with closing(FleetBackplane(evaluator, [])) as backplane:
            with pytest.raises(WireFormatError, match="not JSON"):
                install(backplane, dict(RESULT, entry=self.BOMB))
        assert len(evaluator.pool) == 0

    def test_conform_refuses_the_deepest_json_from_any_depth(self):
        """``json`` decodes arrays nested almost to the recursion limit;
        a shape check running a few frames deeper than that decode must
        still answer with a wire error."""
        low, high = 1, len(self.BOMB)  # json decodes low deep, not high
        while high - low > 1:
            mid = (low + high) // 2
            try:
                json.loads("[" * mid + "]" * mid)
                low = mid
            except RecursionError:
                high = mid
        deepest = json.loads("[" * low + "]" * low)

        def conform_below(frames):
            if frames:
                return conform_below(frames - 1)
            return wire.conform(dict(HELLO, role=deepest),
                                wire.SHAPES[wire.KIND_HELLO], "hello frame")

        for frames in (0, 10, 50):
            with pytest.raises(WireFormatError, match="hello frame"):
                conform_below(frames)

    def test_conform_out_of_stack_is_a_wire_error(self):
        """A shape check entered with too little stack left to walk a
        well-formed catalog frame says so as a wire error; only a
        caller that cannot even enter it sees a RecursionError."""
        frame = copy.deepcopy(GOOD)
        wire.conform(frame, wire.SHAPES[wire.KIND_CATALOG], "catalog frame")

        def conform_below(frames):
            if frames:
                return conform_below(frames - 1)
            return wire.conform(frame, wire.SHAPES[wire.KIND_CATALOG],
                                "catalog frame")

        outcomes = []
        frames = sys.getrecursionlimit() - 300  # pytest's stack is less
        while True:
            try:
                conform_below(frames)
                outcomes.append("conforms")
            except WireFormatError as exc:
                assert "nests too deeply" in str(exc)
                outcomes.append("wire error")
            except RecursionError:
                break  # no stack left to call conform at all
            frames += 1
        assert outcomes[0] == "conforms" and "wire error" in outcomes


# ----------------------------------------------------------------------
# Close semantics.
# ----------------------------------------------------------------------


class TestRemoteClose:
    def test_use_after_close_raises_design_error(
            self, astro_catalog, queries):
        with started(RunnerNode()) as node:
            backplane = RemoteBackplane(
                WorkloadEvaluator(astro_catalog), [node.address], retries=1,
            )
            backplane.warm_up(queries[:2])
            backplane.close()
            assert backplane.closed
            with pytest.raises(DesignError, match="closed"):
                backplane.warm_up(queries)

    def test_close_is_idempotent_and_leaks_no_connections(
            self, astro_catalog, queries):
        with started(RunnerNode()) as node:
            backplane = RemoteBackplane(
                WorkloadEvaluator(astro_catalog), [node.address], retries=1,
            )
            backplane.warm_up(queries[:2])
            assert open_connections(node) == 1
            backplane.close()
            backplane.close()
            deadline = 50
            while open_connections(node) and deadline:
                import time

                time.sleep(0.02)
                deadline -= 1
            assert open_connections(node) == 0

    def test_executor_close_closes_backplanes(self, astro_catalog):
        with started(RunnerNode()) as node:
            evaluator = WorkloadEvaluator(astro_catalog)
            executor = RemoteStepExecutor([node.address], retries=1)
            executor.refill(
                evaluator, ["SELECT ra FROM photoobj WHERE ra < 5"]
            )
            inner = executor._backplanes[id(evaluator)]
            executor.close()
            assert inner.closed
            assert executor._backplanes == {}


# ----------------------------------------------------------------------
# The executor seam on the scheduler.
# ----------------------------------------------------------------------


def outcome(session):
    status = session.status()
    return (
        status["configuration"],
        [(r.at_query, r.trigger, r.indexes) for r in session.recommendations],
        [(e.from_phase, e.to_phase, e.at_query) for e in session.drift_events],
        [(e.epoch, e.queries, e.observed_cost, e.build_cost, e.whatif_probes)
         for e in session.report.epochs],
        status["adoptions"],
    )


class TestRemoteOffload:
    def test_remote_run_matches_inline(self, astro_catalog):
        def run(executor):
            service = TuningService(shards=2)
            service.add_backplane("sdss", astro_catalog)
            for name in ("a", "b"):
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
        with started(RunnerNode()) as x, started(RunnerNode()) as y:
            with closing(RemoteStepExecutor(
                [x.address, y.address], retries=1
            )) as executor:
                remote = run(executor)
        assert remote == inline

    def test_remote_run_survives_mid_run_death(self, astro_catalog):
        def run(executor):
            service = TuningService(shards=1)
            service.add_backplane("sdss", astro_catalog)
            service.add_tenant("t", "sdss", colt_settings=COLT)
            service.run_scheduled(
                {"t": drifting_stream(SDSS_PHASES, seed=3)},
                executor=executor, lookahead=6,
            )
            return outcome(service.tenant("t"))

        inline = run(StepExecutor())
        dying = RunnerNode(fail_after_tasks=1).start()
        survivor = RunnerNode().start()
        try:
            with closing(RemoteStepExecutor(
                [dying.address, survivor.address], retries=0,
            )) as executor:
                remote = run(executor)
        finally:
            dying.stop()
            survivor.stop()
        assert remote == inline
