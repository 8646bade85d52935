"""The portable wire format: plan terms, signatures, and session state.

The paper's designer is explicitly *portable* — tuning sessions move
between machines and survive restarts, and the INUM cache is the unit
that makes re-costing cheap.  This module gives the backplane's derived
state a canonical, versioned, JSON-compatible form:

* **query signatures** — the cache pool's keys — encoded losslessly
  (they are nested tuples of primitives; the codec freezes JSON arrays
  back into tuples so equality and hashing survive the round trip);

* **INUM cache entries** reduced to *plan terms*: per-plan internal
  cost plus :class:`~repro.inum.cache.AccessSlot` records and the
  interesting-order vector.  No live :class:`~repro.optimizer.plan.Plan`
  nodes cross the wire — a deserialized entry re-binds its SQL against
  the receiving catalog and evaluates with bit-identical costs, because
  slot pricing is a pure function of the slot fields, the bound query,
  and the catalog statistics (which rebuild deterministically from the
  serialized distributions, exactly as a fresh ANALYZE would);

* **tuner / tenant-session state** (epoch counters, COLT candidate
  EWMAs, the sliding window, the drift phase) — the payloads behind
  :meth:`TenantSession.snapshot` and :meth:`TuningService.snapshot`,
  so a service restart resumes tenants mid-stream;

* **scheduler state** (wire version 2): the cooperative scheduler's
  per-tenant buffers of pulled-but-not-ingested stream events, encoded
  by :func:`event_to_wire` inside the service snapshot — what makes a
  pause-point snapshot complete: those events have left their stream,
  so no replay from the stream offset re-derives them.

Every payload is stamped with :data:`WIRE_VERSION`; :func:`loads`
rejects a mismatch with :class:`~repro.util.WireFormatError` instead of
guessing.  Consumers: the costing fleet
(:class:`~repro.net.client.FleetBackplane` — forked process workers and
socket runner nodes alike) ships entries from its runners to the parent
pool as wire text inside result frames (``loads`` with ``pool=``
installs each entry *and* rebuilds its columnar kernel from the
just-decoded plan terms — compiled arrays are derived state and never
encoded), and ``python -m repro serve --state-dir`` persists
whole-service snapshots (periodically, with ``--snapshot-interval``, at
scheduler pause points).
"""

import json
import math
import sys

from repro.evaluation.signature import statement_key
from repro.inum.cache import AccessSlot, CachedPlan, QueryCache
from repro.sql.binder import BoundWrite, bind_statement
from repro.util import WireFormatError

__all__ = [
    "WIRE_VERSION",
    "KIND_ENTRY",
    "KIND_TENANT",
    "KIND_SERVICE",
    "KIND_OBS",
    "KIND_HELLO",
    "KIND_CATALOG",
    "KIND_TASK",
    "KIND_RESULT",
    "KIND_ERROR",
    "obs_to_wire",
    "obs_from_wire",
    "signature_to_wire",
    "signature_from_wire",
    "slot_to_wire",
    "slot_from_wire",
    "plan_to_wire",
    "plan_from_wire",
    "entry_to_wire",
    "entry_from_wire",
    "event_to_wire",
    "event_from_wire",
    "conform",
    "dumps",
    "loads",
    "check_version",
]

# Version 5: a ``warm`` result frame carries its cache entry as wire
# *text* (``dumps(entry_to_wire(...))``) instead of a nested payload, so
# every entry — shipped or read from a file — is installed by
# ``loads(text, catalog, pool=)``; the ``evaluate`` task op is gone (a
# runner answers it with its ``unknown task op`` error).
# Version 4: the network transport's frame kinds (handshake hello,
# catalog shipment, task, result, error — see :mod:`repro.net.frames`)
# join the format, so a runner fleet negotiates compatibility at the
# handshake: every frame is version-stamped and a mismatched peer is
# rejected with :class:`WireFormatError` before any task is exchanged.
# Version 3 made telemetry deltas (counter/histogram movement plus
# finished spans from worker processes) a first-class payload kind, so
# traces stitch across the process backplane.  Version 2 added scheduler
# state (per-tenant pending event buffers) to service snapshots;
# version-1 payloads predate the cooperative runtime.
WIRE_VERSION = 5

KIND_ENTRY = "inum-cache-entry"
KIND_TENANT = "tenant-session"
KIND_SERVICE = "tuning-service"
KIND_OBS = "obs-delta"

# Network-transport frame kinds (:mod:`repro.net`).  These never appear
# inside files — they are connection-scoped messages — but they share
# the envelope (and therefore the version negotiation) with every other
# payload, so one WIRE_VERSION governs the whole distributed surface.
KIND_HELLO = "net-hello"
KIND_CATALOG = "net-catalog"
KIND_TASK = "net-task"
KIND_RESULT = "net-result"
KIND_ERROR = "net-error"


# ----------------------------------------------------------------------
# Signatures: nested tuples of primitives <-> nested JSON arrays.
# ----------------------------------------------------------------------

_PRIMITIVES = (str, int, float, bool, type(None))


def signature_to_wire(signature):
    """Encode a canonical query signature (nested tuples of primitives)
    as nested JSON arrays.  Signatures contain no native lists, so the
    tuple<->array mapping is bijective."""
    if isinstance(signature, tuple):
        return [signature_to_wire(part) for part in signature]
    if isinstance(signature, frozenset):
        raise WireFormatError("signatures never contain sets")
    if not isinstance(signature, _PRIMITIVES):
        raise WireFormatError(
            "non-primitive %r in signature" % (type(signature).__name__,)
        )
    return signature


def signature_from_wire(payload):
    """Freeze nested JSON arrays back into the original tuple shape."""
    if isinstance(payload, list):
        return tuple(signature_from_wire(part) for part in payload)
    return payload


# ----------------------------------------------------------------------
# Plan terms: AccessSlot / CachedPlan / whole cache entries.
# ----------------------------------------------------------------------


def slot_to_wire(slot):
    return {
        "alias": slot.alias,
        "table": slot.table_name,
        "required_order": slot.required_order,
        "param_columns": list(slot.param_columns),
        "probes": slot.probes,
        "scale": slot.scale,
    }


# Entries arrive from outside the process (a runner's reply, a file): the
# decoders below check every field they read, so a malformed payload is a
# :class:`WireFormatError` here and never an entry that raises — or
# prices a neighbour's slots — once the kernel has compiled it.  Unknown
# keys are ignored (peers of either age interoperate).


def _object(payload, what):
    if not isinstance(payload, dict):
        raise WireFormatError("%s must be a JSON object, got %r"
                              % (what, type(payload).__name__))
    return payload


def _array(payload, what):
    if not isinstance(payload, (list, tuple)):
        raise WireFormatError("%s must be a JSON array, got %r"
                              % (what, type(payload).__name__))
    return payload


def _name(value, what, optional=False):
    if not (isinstance(value, str) or optional and value is None):
        raise WireFormatError("%s must be a string, got %r" % (what, value))
    return value


def _cost(value, what):
    """A finite, non-negative JSON number (``true`` is not one)."""
    try:
        ok = type(value) in (int, float) and 0.0 <= float(value) < math.inf
    except OverflowError:  # a JSON integer beyond the float range
        ok = False
    if not ok:
        raise WireFormatError(
            "%s must be a finite non-negative number, got %r" % (what, value)
        )
    return value


# Session state (service, tenant and tuner snapshots) is checked against
# a *shape* before anything is built from it: a dict is an object with
# (at least) those keys, ``{str: s}`` one whose every value is an *s*;
# ``[s]`` an array of *s*, ``[]`` an empty one; a tuple any one of its
# shapes; a frozenset the strings allowed; ``int`` a count JSON reads
# exactly, ``float`` a number a float holds; ``str``, ``bool``, ``None``.
_LEAVES = {
    None: lambda value: value is None,
    bool: lambda value: type(value) is bool,
    str: lambda value: type(value) is str,
    int: lambda value: type(value) is int and 0 <= value < 2 ** 53,
    float: lambda value: (type(value) in (int, float)
                          and abs(value) <= sys.float_info.max),
}


def conform(payload, shape, what):
    """Raise :class:`WireFormatError` unless *payload* has *shape*."""
    if isinstance(shape, dict):
        _object(payload, what)
        if list(shape) == [str]:
            shape = dict.fromkeys(payload, shape[str])
        for key, inner in shape.items():
            if key not in payload:
                raise WireFormatError("%s has no %r" % (what, key))
            conform(payload[key], inner, "%s.%s" % (what, key))
    elif isinstance(shape, list):
        for item in _array(payload, what):
            conform(item, shape[0] if shape else (), what + "[]")
    elif isinstance(shape, tuple):  # ``()``: nothing conforms
        for choice in shape:
            try:
                return conform(payload, choice, what)
            except WireFormatError:
                pass
        raise WireFormatError("%s: unexpected %r" % (what, payload))
    elif not (type(payload) is str and payload in shape
              if isinstance(shape, frozenset) else _LEAVES[shape](payload)):
        raise WireFormatError("%s: unexpected %r" % (what, payload))


def slot_from_wire(payload):
    payload = _object(payload, "access slot")
    return AccessSlot(
        alias=_name(payload.get("alias"), "slot alias"),
        table_name=_name(payload.get("table"), "slot table"),
        required_order=_name(
            payload.get("required_order"), "slot order", optional=True
        ),
        param_columns=tuple(
            _name(column, "probe column")
            for column in _array(payload.get("param_columns", ()),
                                 "probe columns")
        ),
        probes=_cost(payload.get("probes", 1.0), "slot probes"),
        scale=_cost(payload.get("scale", 1.0), "slot scale"),
    )


def plan_to_wire(cached):
    return {
        "internal_cost": cached.internal_cost,
        "slots": [slot_to_wire(slot) for slot in cached.slots],
        "order_vector": [list(pair) for pair in cached.order_vector],
    }


def plan_from_wire(payload):
    payload = _object(payload, "cached plan")
    vector = []
    for pair in _array(payload.get("order_vector", ()), "order vector"):
        if len(_array(pair, "order vector pair")) != 2:
            raise WireFormatError("order vector pair %r" % (pair,))
        vector.append((_name(pair[0], "order vector alias"),
                       _name(pair[1], "order vector column", optional=True)))
    return CachedPlan(
        internal_cost=_cost(payload.get("internal_cost"), "internal cost"),
        slots=tuple(
            slot_from_wire(d)
            for d in _array(payload.get("slots"), "plan slots")
        ),
        order_vector=tuple(vector),
    )


def entry_to_wire(signature, cache):
    """One pool entry — ``(signature, QueryCache)`` — as plan terms.

    The bound query travels as SQL text: the receiver re-binds it
    against its own catalog, which is what makes entries portable
    across processes and machines (catalogs move independently through
    :mod:`repro.catalog.serialize`).  Locate queries (the synthetic
    SELECTs pricing UPDATE/DELETE row location) have no parseable text,
    so the entry ships the originating write statement with a marker
    and the receiver re-derives the locate query."""
    from repro.optimizer.writecost import LOCATE_PREFIX

    sql = cache.bound_query.sql
    locate = sql.startswith(LOCATE_PREFIX)
    if locate:
        sql = sql[len(LOCATE_PREFIX):]
    return {
        "kind": KIND_ENTRY,
        "signature": signature_to_wire(signature),
        "sql": sql,
        "locate": locate,
        "build_optimizer_calls": cache.build_optimizer_calls,
        "plans": [plan_to_wire(cached) for cached in cache.plans],
    }


def entry_from_wire(payload, catalog):
    """Rebuild ``(signature, QueryCache)`` from a wire payload.

    Costs are bit-identical to the originating entry: the plan terms are
    carried verbatim (JSON round-trips finite floats exactly), and slot
    re-pricing depends only on those terms plus the re-bound query.

    The payload is outside input: anything but a well-formed entry *of
    the statement it names* — its signature is the re-bound statement's,
    every slot sits on one of its aliases and reads that alias's table
    and columns — raises :class:`WireFormatError` (or the binder's typed
    error for SQL the catalog does not bind)."""
    payload = _object(payload, "wire payload")
    if payload.get("kind") != KIND_ENTRY:
        raise WireFormatError(
            "expected %r payload, got %r" % (KIND_ENTRY, payload.get("kind"))
        )
    plans = payload.get("plans")
    if not plans:
        # No plan means no cost: the per-call walk would raise on every
        # lookup, and a compiled workload cannot hold the entry at all.
        raise WireFormatError("cache entry carries no plans")
    calls = payload.get("build_optimizer_calls", 0)
    if type(calls) is not int or calls < 0:
        raise WireFormatError("build_optimizer_calls=%r" % (calls,))
    bq = bind_statement(_name(payload.get("sql"), "entry sql"), catalog)
    locate = bool(payload.get("locate"))
    if locate != (isinstance(bq, BoundWrite)
                  and bq.kind in ("update", "delete")):
        raise WireFormatError("locate=%r on %r" % (locate, bq.sql))
    if locate:
        from repro.optimizer.writecost import locate_query

        bq = locate_query(bq)
    signature = signature_from_wire(payload.get("signature"))
    if signature != statement_key(bq):
        raise WireFormatError(
            "entry signature is not that of its statement %r" % (bq.sql,)
        )
    plans = [plan_from_wire(d) for d in _array(plans, "entry plans")]
    for slot in {slot for cached in plans for slot in cached.slots}:
        table = bq.tables.get(slot.alias)
        if table is None or table.name != slot.table_name:
            raise WireFormatError(
                "slot on %r (%r) does not belong to %r"
                % (slot.alias, slot.table_name, bq.sql)
            )
        columns = slot.param_columns
        if slot.required_order is not None:
            columns += (slot.required_order,)
        for column in columns:
            if not table.has_column(column):
                raise WireFormatError(
                    "slot on %r reads unknown column %r"
                    % (slot.alias, column)
                )
    cache = QueryCache.from_plan_terms(
        bq, plans, build_optimizer_calls=calls
    )
    return signature, cache


# ----------------------------------------------------------------------
# Stream events (scheduler pending buffers).
# ----------------------------------------------------------------------


def event_to_wire(event):
    """One tenant stream event — ``(phase, sql)`` or plain SQL — as a
    two-element array.  Plain SQL becomes a null phase, which ingests
    identically (a ``None`` phase never triggers drift handling)."""
    if isinstance(event, tuple):
        phase, sql = event
    else:
        phase, sql = None, event
    return [phase, sql]


def event_from_wire(payload, catalog):
    """Rebuild a stream event from its wire form (always the tuple
    shape; ``(None, sql)`` is ingest-equivalent to bare SQL).  The SQL
    must bind against *catalog*, the tenant's: it is ingested later."""
    if len(_array(payload, "stream event")) != 2:
        raise WireFormatError("stream event %r is not [phase, sql]"
                              % (payload,))
    bind_statement(_name(payload[1], "event sql"), catalog)
    return (_name(payload[0], "event phase", optional=True), payload[1])


# ----------------------------------------------------------------------
# Telemetry deltas (worker-process metrics + spans).
# ----------------------------------------------------------------------


def obs_to_wire(delta):
    """One :func:`repro.obs.drain_deltas` payload as a wire section.

    The delta is already JSON-safe (counter/histogram samples as plain
    lists, finished spans as dicts); this stamps the payload kind so
    :func:`loads` can route it, and the envelope version so a receiver
    speaking an older telemetry schema rejects it loudly instead of
    merging garbage into its registry."""
    return {
        "kind": KIND_OBS,
        "counters": list(delta.get("counters", ())),
        "histograms": list(delta.get("histograms", ())),
        "spans": list(delta.get("spans", ())),
    }


def obs_from_wire(payload):
    """Validate and return a telemetry-delta payload — feed the result
    to :func:`repro.obs.ingest_deltas`."""
    if payload.get("kind") != KIND_OBS:
        raise WireFormatError(
            "expected %r payload, got %r" % (KIND_OBS, payload.get("kind"))
        )
    return payload


# ----------------------------------------------------------------------
# Envelope: version stamping and checked parsing.
# ----------------------------------------------------------------------


def dumps(payload, indent=None):
    """Serialize a wire payload (entry/tenant/service dict) to JSON with
    the version stamped into the envelope."""
    body = dict(payload)
    body["wire_version"] = WIRE_VERSION
    return json.dumps(body, sort_keys=True, indent=indent)


def check_version(payload):
    """Validate the envelope; raises :class:`WireFormatError` on any
    version mismatch (no silent best-effort parsing of foreign data)."""
    version = _object(payload, "wire payload").get("wire_version")
    if version != WIRE_VERSION:
        raise WireFormatError(
            "unsupported wire version %r (this build speaks %d)"
            % (version, WIRE_VERSION)
        )
    return payload


def loads(text, catalog=None, pool=None):
    """Parse a wire-format JSON string.

    Cache-entry payloads need *catalog* and return ``(signature,
    QueryCache)``; tenant/service payloads return the validated dict —
    they are materialized by :meth:`TenantSession.from_snapshot` /
    :meth:`TuningService.restore`, which own the live objects.

    With *pool* (an :class:`~repro.evaluation.InumCachePool` or its
    sharded twin) a cache entry is additionally *installed*: put into
    the pool if its signature is not already resident, and its columnar
    kernel rebuilt from the just-loaded plan terms
    (:meth:`~repro.evaluation.pool.InumCachePool.kernel_for`).  Kernels
    never cross the wire — they are derived state, recompiled on the
    receiving side from the plan terms that do — so the encoding is
    unchanged and the wire version does not move."""
    try:
        payload = json.loads(text)
    except (TypeError, ValueError) as exc:  # not JSON at all
        raise WireFormatError("wire text is not JSON: %s" % (exc,)) from exc
    kind = check_version(payload).get("kind")
    if kind == KIND_ENTRY:
        if catalog is None:
            raise WireFormatError(
                "deserializing a cache entry requires a catalog"
            )
        signature, cache = entry_from_wire(payload, catalog)
        if pool is not None:
            if signature not in pool:
                pool.put(signature, cache)
            pool.kernel_for(signature)
        return signature, cache
    if kind == KIND_OBS:
        return obs_from_wire(payload)
    if kind in (KIND_TENANT, KIND_SERVICE):
        return payload
    raise WireFormatError("unknown wire payload kind %r" % (kind,))
