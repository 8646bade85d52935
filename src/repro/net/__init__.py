"""The costing fleet: runners, and the one backplane that drives them.

``repro.net`` carries the wire format's payloads
(:mod:`repro.evaluation.wire`) between a dispatching
:class:`FleetBackplane` and its runners as length-prefixed frames
(:mod:`repro.net.frames`) — catalog shipped once per connection, SQL
out, plan terms and telemetry deltas back, wire version negotiated at
the handshake.  A runner is reached over a socket either way:
:class:`RemoteBackplane` dials :class:`RunnerNode` processes on other
machines, and :class:`~repro.evaluation.ProcessPoolBackplane` forks
children that serve the same connection loop on a socketpair.  A
connection's evaluator is its cache: entries are pure functions of the
catalog shipped once, so what a runner holds never goes stale, and
frames that do not have the shape the loop reads are refused as wire
errors, never retried.
"""

from repro.net.client import (
    FleetBackplane,
    RemoteBackplane,
    RunnerConnection,
)
from repro.net.frames import (
    MAX_FRAME_BYTES,
    TruncatedFrameError,
    error_frame,
    recv_frame,
    send_frame,
)
from repro.net.runner import RunnerNode, parse_listen_address

__all__ = [
    "FleetBackplane",
    "MAX_FRAME_BYTES",
    "RemoteBackplane",
    "RunnerConnection",
    "RunnerNode",
    "TruncatedFrameError",
    "error_frame",
    "parse_listen_address",
    "recv_frame",
    "send_frame",
]
