"""Length-prefixed wire frames: the network transport's unit of speech.

A frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON — a :mod:`repro.evaluation.wire` payload, version-stamped by
:func:`wire.dumps` like every other payload in the system.  The frame
kinds (``KIND_HELLO`` / ``KIND_CATALOG`` / ``KIND_TASK`` /
``KIND_RESULT`` / ``KIND_ERROR``) live in the wire module so the one
:data:`~repro.evaluation.wire.WIRE_VERSION` governs files and every
hop of the costing fleet — a worker's socketpair or a runner node's TCP
socket — alike.

Version negotiation is the handshake itself: the first frame each peer
reads is validated with :func:`wire.check_version`, so a runner speaking
an older (or newer) format is rejected with
:class:`~repro.util.WireFormatError` before any task crosses the
connection — no silent best-effort parsing of foreign frames.

Failure taxonomy, which the retry logic upstream depends on:

* a connection closed *between* frames raises
  :class:`~repro.util.TransportError` — the peer went away cleanly
  (or was killed); retryable;
* a connection closed *mid-frame* raises :class:`TruncatedFrameError`,
  which is both a :class:`~repro.util.WireFormatError` (the frame is
  malformed) and a :class:`~repro.util.TransportError` (a dying node
  truncates; the work is retryable elsewhere);
* undecodable bytes inside a complete frame raise plain
  :class:`~repro.util.WireFormatError` — the peer is incompatible,
  never retried.
"""

import json
import socket
import struct

from repro.evaluation import wire
from repro.util import TransportError, WireFormatError

__all__ = [
    "MAX_FRAME_BYTES",
    "TruncatedFrameError",
    "send_frame",
    "recv_frame",
    "error_frame",
    "hang_up",
]

_HEADER = struct.Struct("!I")

# A frame is one task or one result: catalogs are the largest
# residents, comfortably below this.  The bound exists so a
# corrupt length prefix fails loudly instead of attempting a gigabyte
# allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class TruncatedFrameError(TransportError, WireFormatError):
    """A peer closed the connection in the middle of a frame.

    Doubly classified on purpose: the bytes on the wire are malformed
    (:class:`WireFormatError` — what a protocol test asserts), and the
    peer is gone (:class:`TransportError` — what lets the remote
    backplane retry the task on a surviving node)."""


def send_frame(sock, payload):
    """Version-stamp *payload* (a wire dict) and write it as one frame."""
    body = wire.dumps(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireFormatError(
            "frame of %d bytes exceeds the %d-byte bound"
            % (len(body), MAX_FRAME_BYTES)
        )
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock, n, started):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf or started:
                raise TruncatedFrameError(
                    "connection closed mid-frame (%d of %d bytes)"
                    % (len(buf), n)
                )
            raise TransportError("connection closed")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock, check_version=True):
    """Read one frame and return its parsed payload dict.

    Error frames (``KIND_ERROR``) are returned *without* version
    validation — they are how a peer reports a version mismatch, so
    they must be readable across versions.  Every other kind is
    validated with :func:`wire.check_version`; pass
    ``check_version=False`` when the caller validates itself (a server
    that wants to *reply* to a mismatched hello rather than just drop
    the connection)."""
    header = _recv_exact(sock, _HEADER.size, started=False)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            "frame length %d exceeds the %d-byte bound (corrupt header?)"
            % (length, MAX_FRAME_BYTES)
        )
    body = _recv_exact(sock, length, started=True)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError("undecodable frame: %s" % (exc,)) from exc
    if not isinstance(payload, dict):
        raise WireFormatError("frame payload must be a JSON object")
    if check_version and payload.get("kind") != wire.KIND_ERROR:
        wire.check_version(payload)
    return payload


def hang_up(sock):
    """``shutdown()`` then ``close()``, ignoring a socket that is
    already gone.  ``close()`` alone neither wakes a thread blocked in
    ``accept()``/``recv()`` on Linux nor reaches the peer as EOF while
    another process still holds a copy of the descriptor (a forked
    worker inherits the parent-side ends of the pipes opened before
    it); ``shutdown()`` does both.  Platforms that refuse it on a
    listener (ENOTCONN) wake on ``close()``."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def error_frame(message, wire_error=False):
    """An error payload; ``wire_error`` marks a format/version failure
    the receiver must re-raise as :class:`WireFormatError` (fatal)
    rather than :class:`TransportError` (retryable)."""
    return {
        "kind": wire.KIND_ERROR,
        "error": str(message),
        "wire_error": bool(wire_error),
    }
