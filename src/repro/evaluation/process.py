"""The process backplane: the costing fleet on this machine's cores.

Cache builds — pure-Python optimizer planning — are GIL-bound inside
one interpreter.  :class:`ProcessPoolBackplane` moves them into child
processes with the fleet's one implementation: a process worker is a
**runner on a socketpair**.  Each worker is a child of this process
serving :meth:`RunnerNode.serve_connection
<repro.net.runner.RunnerNode.serve_connection>` — the hello / catalog /
``warm``-task loop a ``python -m repro runner`` node serves per
accepted connection — on one end of a ``socket.socketpair()``, and the
parent drives the other end through
:class:`~repro.net.client.FleetBackplane` exactly as
:class:`~repro.net.client.RemoteBackplane` drives a TCP socket: the
catalog dictionary crosses once, tasks carry SQL texts, results come
back as wire-format cache entries (:mod:`repro.evaluation.wire`) that
the parent installs into its pool (``submit`` now, ``collect`` when it
prices them), and a worker that dies is a dead node whose work drains
to the survivors or, with none left, is finished locally.

Results are pinned bit-identical to the single-process path; the
workers only change wall-clock time.  With ``processes <= 1`` no worker
is forked and every call builds in-process — the explicit opt-out for
platforms where child processes are unavailable or too expensive.
"""

import multiprocessing
import os
import socket

from repro import obs
from repro.net.client import (
    FleetBackplane,
    RunnerConnection,
    catalog_frame_for,
)
from repro.net.frames import hang_up
from repro.net.runner import RunnerNode
from repro.util import TransportError

__all__ = ["ProcessPoolBackplane"]


def _serve_worker(sock, parent_end):
    """A process worker's whole life: serve the runner's connection
    loop on *sock* until the parent hangs up."""
    # Our copy of the parent's end: while it is open, the parent's death
    # would never reach this process as EOF.
    parent_end.close()
    # Fork inherits the parent's telemetry state; start this worker's
    # accounting from zero so shipped deltas never double-count.
    obs.reset()
    RunnerNode(ship_obs=True).serve_connection(sock)


class _ForkedRunner(RunnerConnection):
    """A runner that is a child of this process, reached over a
    socketpair instead of a dialled address.

    The child is started by the constructor — on the thread that builds
    the backplane, before its drainers exist.  Another backplane's may
    be alive beside the fork: they only transport, so the one lock the
    child could inherit held is the telemetry registry's, which
    ``obs.reset()`` replaces.  Fork where available (the cheapest
    start), else the platform default."""

    def __init__(self, name, catalog_frame):
        super().__init__(name, catalog_frame)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context()
        # Our end waits in _pipe until connect() takes it.
        self._pipe, theirs = socket.socketpair()
        self._process = context.Process(
            target=_serve_worker, args=(theirs, self._pipe), daemon=True
        )
        self._process.start()
        theirs.close()

    def _dial(self):
        """Hand out the pipe, once: a worker that lost its connection is
        gone for good — a pipe has no address to dial again, and nothing
        re-forks it."""
        sock, self._pipe = self._pipe, None
        if sock is None:
            raise TransportError(
                "process worker %s is gone" % (self.address,)
            )
        return sock

    def close(self):
        """Hang up — the worker exits when its connection closes — and
        join (reap) it.  Reaping here, not at interpreter exit, is what
        lands the worker's CPU time in the caller's ``RUSAGE_CHILDREN``
        by the time the backplane's ``close()`` returns."""
        super().close()
        pipe, self._pipe = self._pipe, None
        if pipe is not None:  # never connected
            hang_up(pipe)
        self._process.join()


class ProcessPoolBackplane(FleetBackplane):
    """Fan INUM cache builds across worker processes.

    ``evaluator`` is the parent-side :class:`WorkloadEvaluator` whose
    pool receives the shipped entries.  ``processes`` defaults to
    ``min(4, os.cpu_count())``; ``processes <= 1`` means no workers —
    every build happens in-process.  The workers are forked here and
    reused across calls; use the context-manager form (or
    :meth:`close`) to join them.
    """

    def __init__(self, evaluator, processes=None):
        if processes is None:
            processes = min(4, os.cpu_count() or 1)
        workers = processes if processes > 1 else 0
        frame = catalog_frame_for(evaluator) if workers else None
        # retries=0: a pipe cannot be re-dialled, so the first transport
        # failure is the worker's death.
        super().__init__(
            evaluator,
            [_ForkedRunner("worker-%d" % i, frame) for i in range(workers)],
            retries=0,
        )

    # Ledger row ``repro.evaluation.process:ProcessPoolBackplane.warm_up``
    # (resolved by ``vars(owner)[leaf]``; see ``RemoteBackplane.warm_up``).
    warm_up = FleetBackplane.warm_up
