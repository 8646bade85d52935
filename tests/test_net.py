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
* bounded staleness: ``staleness=0`` (exact-replay) force-refreshes
  lease entries every epoch, a budget of K suppresses refreshes within
  K epochs, and the per-node cache-age gauges track the lease;
* close semantics mirror the process backplane: idempotent, loud
  :class:`DesignError` on use-after-close, no leaked connections;
* a :class:`RemoteStepExecutor` scheduled run matches inline execution
  exactly.
"""

import json
import socket
import struct
import threading

import pytest

from repro import obs
from repro.colt import ColtSettings
from repro.evaluation import WorkloadEvaluator, wire
from repro.net import (
    RemoteBackplane,
    RunnerConnection,
    RunnerNode,
    TruncatedFrameError,
    parse_listen_address,
    recv_frame,
    send_frame,
)
from repro.runtime import RemoteStepExecutor, StepExecutor
from repro.service import TuningService
from repro.util import DesignError, TransportError, WireFormatError
from repro.workloads import DriftPhase, drifting_stream, sdss
from repro.workloads import sdss_catalog as make_sdss
from repro.workloads import sdss_workload

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
        signature: evaluator.pool.get(signature).plans
        for signature in evaluator.pool.signatures()
    }


def _send_raw(sock, payload):
    """Write a frame *without* the codec's version stamping — how a
    foreign-version peer looks on the wire."""
    body = json.dumps(payload).encode("utf-8")
    sock.sendall(struct.pack("!I", len(body)) + body)


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
            while not node.open_connections and deadline:
                threading.Event().wait(0.02)
                deadline -= 1
            assert node.open_connections == 1
            node.stop()
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # EOF, not a timeout
            deadline = 250
            while node.open_connections and deadline:
                threading.Event().wait(0.02)
                deadline -= 1
            assert node.open_connections == 0
        finally:
            sock.close()
            node.stop()


# ----------------------------------------------------------------------
# Handshake / version negotiation.
# ----------------------------------------------------------------------


class TestHandshake:
    def test_runner_rejects_foreign_version_hello(self):
        with RunnerNode() as node:
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
        with RunnerNode() as node:
            evaluator = WorkloadEvaluator(astro_catalog)
            backplane = RemoteBackplane(
                evaluator, [node.address], retries=3, backoff=0.0,
            )
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
        with RunnerNode() as a, RunnerNode() as b:
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
        # Kernels were rebuilt on install, like the process backplane's.
        for signature in local.pool.signatures():
            assert remote.pool.kernel_for(signature) is not None

    def test_second_warm_up_ships_nothing(self, astro_catalog, queries):
        with RunnerNode() as node:
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
                remote, [dying.address, survivor.address],
                retries=1, backoff=0.0,
            )
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
        assert registry.value(
            "repro_remote_node_deaths_total", node=dying.address
        ) == 1
        assert registry.value(
            "repro_remote_retries_total", node=dying.address
        ) >= 1
        # The survivor absorbed the dead node's work: no local fallback.
        assert registry.value(
            "repro_remote_fallback_total", op="warm"
        ) == 0

    def test_whole_fleet_death_falls_back_to_local(
            self, astro_catalog, queries):
        node = RunnerNode(fail_after_tasks=0).start()
        try:
            remote = WorkloadEvaluator(astro_catalog)
            backplane = RemoteBackplane(
                remote, [node.address], retries=0, backoff=0.0,
            )
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
        assert registry.value(
            "repro_remote_fallback_total", op="warm"
        ) == len(pool_terms(local))

    def test_unreachable_runner_falls_back(self, astro_catalog, queries):
        # A port nothing listens on: connection refused, retries
        # exhausted, node declared dead, everything runs locally.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        remote = WorkloadEvaluator(astro_catalog)
        backplane = RemoteBackplane(
            remote, ["127.0.0.1:%d" % port], retries=1, backoff=0.0,
        )
        calls = backplane.warm_up(queries)
        backplane.close()
        local = WorkloadEvaluator(astro_catalog)
        assert calls == local.warm_up(queries)
        assert pool_terms(remote) == pool_terms(local)


# ----------------------------------------------------------------------
# Bounded staleness.
# ----------------------------------------------------------------------


class TestBoundedStaleness:
    def _run_epochs(self, catalog, queries, staleness):
        """Three epochs of the same statements.  The parent pool is
        cleared after each, so every ``warm_up`` re-ships every task —
        the parent forgot; the node's lease did not, and must decide
        whether what it holds may still serve.  Returns the grids priced
        over the epoch-2 and epoch-3 entries plus the node's counters."""
        with RunnerNode() as node:
            evaluator = WorkloadEvaluator(catalog)
            backplane = RemoteBackplane(
                evaluator, [node.address], staleness=staleness, retries=1,
            )
            grids = []
            for __ in range(3):  # epoch 1 builds, 2 and 3 re-ship
                backplane.warm_up(queries)
                grids.append(
                    evaluator.evaluate_configurations(queries, [None])
                )
                evaluator.pool.clear()
            backplane.close()
            registry = obs.metrics()
            return (
                grids[1],
                grids[2],
                registry.value(
                    "repro_remote_stale_refresh_total", node=node.address
                ),
                registry.value(
                    "repro_remote_cache_age_epochs", node=node.address
                ),
            )

    def test_exact_replay_refreshes_every_epoch(
            self, astro_catalog, queries):
        first, second, refreshes, age = self._run_epochs(
            astro_catalog, queries, staleness=0
        )
        # Every resident entry is rebuilt in each later epoch, and the
        # age gauge pins at 0 — nothing stale ever serves.
        assert refreshes == 2 * len(queries)
        assert age == 0
        assert first.matrix == second.matrix

    def test_budget_suppresses_refreshes_within_k_epochs(
            self, astro_catalog, queries):
        first, second, refreshes, age = self._run_epochs(
            astro_catalog, queries, staleness=5
        )
        assert refreshes == 0
        assert age == 2  # built at epoch 1, last served at epoch 3
        assert first.matrix == second.matrix

    def test_stale_and_exact_replay_price_identically(
            self, astro_catalog, queries):
        exact = self._run_epochs(astro_catalog, queries, staleness=0)
        stale = self._run_epochs(astro_catalog, queries, staleness=5)
        assert exact[0].matrix == stale[0].matrix
        assert exact[1].matrix == stale[1].matrix


# ----------------------------------------------------------------------
# Close semantics.
# ----------------------------------------------------------------------


class TestRemoteClose:
    def test_use_after_close_raises_design_error(
            self, astro_catalog, queries):
        with RunnerNode() as node:
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
        with RunnerNode() as node:
            backplane = RemoteBackplane(
                WorkloadEvaluator(astro_catalog), [node.address], retries=1,
            )
            backplane.warm_up(queries[:2])
            assert node.open_connections == 1
            backplane.close()
            backplane.close()
            deadline = 50
            while node.open_connections and deadline:
                import time

                time.sleep(0.02)
                deadline -= 1
            assert node.open_connections == 0

    def test_executor_close_closes_backplanes(self, astro_catalog):
        with RunnerNode() as node:
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
        with RunnerNode() as x, RunnerNode() as y:
            with RemoteStepExecutor(
                [x.address, y.address], retries=1
            ) as executor:
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
            with RemoteStepExecutor(
                [dying.address, survivor.address], retries=0,
            ) as executor:
                remote = run(executor)
        finally:
            dying.stop()
            survivor.stop()
        assert remote == inline
