"""The portable wire format, and the one table of shapes every payload
from outside is checked against.

The paper's designer is *portable*: sessions move between machines and
survive restarts, and the INUM cache is the unit that makes re-costing
cheap.  This module gives that state a canonical, versioned JSON form —
INUM cache entries as *plan terms* (per-plan internal cost,
:class:`~repro.inum.cache.AccessSlot` records and the order vector; the
receiver re-binds the SQL, files the entry under the text it bound and
prices bit-identically), tuner / tenant / service snapshots with the
scheduler's buffered stream events, telemetry deltas, and the frames of
:mod:`repro.net`.  Every payload is stamped with :data:`WIRE_VERSION`,
and :func:`loads` rejects a mismatch instead of guessing.

**One validation mechanism.**  :data:`SHAPES` declares, per payload
kind, everything a receiver reads: the entry, tenant, service and
telemetry kinds, the five frame kinds, a catalog and a design
configuration.  Every decoder — here, in :mod:`repro.net`, in
:mod:`repro.catalog.serialize` and on the restore paths — runs
:func:`conform` against its kind's shape, then the cross-checks a shape
cannot state because they need the receiving catalog or the telemetry
catalogue (:func:`located`, :func:`_check_slots`,
:func:`_check_registry`), then plain construction.
Anything else is a :class:`~repro.util.WireFormatError`; unknown keys
are ignored and a retired setting is still written at its value, so
peers and files of either age interoperate.
"""

import json
import math
import sys
from collections import namedtuple
from dataclasses import fields
from functools import partial

from repro.catalog.types import DataType
from repro.colt.tuner import (
    ADOPT_THRESHOLD,
    AMORTIZATION_EPOCHS,
    EWMA_ALPHA,
    ColtSettings,
)
from repro.inum.cache import AccessSlot, CachedPlan, QueryCache
from repro.obs.catalogue import FAMILIES
from repro.optimizer.paths import INDEX_ONLY_VISIBLE_FRAC
from repro.optimizer.settings import PlannerSettings
from repro.optimizer.writecost import LOCATE_PREFIX, locate_query
from repro.sql.binder import BoundWrite, bind_statement
from repro.util import WireFormatError

__all__ = [
    "WIRE_VERSION", "KIND_ENTRY", "KIND_TENANT", "KIND_SERVICE", "KIND_OBS",
    "KIND_HELLO", "KIND_CATALOG", "KIND_TASK", "KIND_RESULT", "KIND_ERROR",
    "CATALOG", "CONFIGURATION", "SHAPES", "Default", "number", "conform",
    "located", "obs_to_wire", "obs_from_wire", "entry_to_wire",
    "entry_from_wire",
    "event_to_wire", "event_from_wire", "dumps", "loads", "check_version",
]

# Version 5: a ``warm`` result carries its entry as wire *text*, which
# ``loads(text, catalog, pool=)`` installs; 4 added the network frames,
# 3 telemetry deltas, 2 scheduler state in service snapshots.
WIRE_VERSION = 5

KIND_ENTRY = "inum-cache-entry"
KIND_TENANT = "tenant-session"
KIND_SERVICE = "tuning-service"
KIND_OBS = "obs-delta"

# The frame kinds of :mod:`repro.net`: one WIRE_VERSION governs files
# and every hop of the fleet alike.
KIND_HELLO = "net-hello"
KIND_CATALOG = "net-catalog"
KIND_TASK = "net-task"
KIND_RESULT = "net-result"
KIND_ERROR = "net-error"

# Plain-data payloads of :mod:`repro.catalog.serialize` (no envelope).
CATALOG = "catalog"
CONFIGURATION = "configuration"


# ----------------------------------------------------------------------
# The shape language.
# ----------------------------------------------------------------------


# An optional key: an object without it conforms, and then reads *value*.
Default = namedtuple("Default", "shape value")


def number(low=-sys.float_info.max, high=sys.float_info.max,
           types=(int, float)):
    """The leaf of JSON numbers of *types* in ``[low, high]`` (``true``
    and ``nan`` are none)."""
    return lambda value: type(value) in types and low <= value <= high


# Settings earlier builds wrote that are now constants.  Every payload
# still names each at its value, so an earlier build reads it, and a
# payload may name each at that value only.
RETIRED_COLT_SETTINGS = {"ewma_alpha": EWMA_ALPHA,
                         "adopt_threshold": ADOPT_THRESHOLD,
                         "amortization_epochs": AMORTIZATION_EPOCHS}
RETIRED_PLANNER_SETTINGS = {  # a no-op, and a constant of paths.py
    "effective_cache_fraction": 0.0,
    "index_only_visible_frac": INDEX_ONLY_VISIBLE_FRAC}


def _with_retired(cls, retired):
    """*cls*'s fields, plus each *retired* setting at its value only."""
    shape = {f.name: f.type for f in fields(cls)}
    shape.update((name, Default(number(value, value, (type(value),)), value))
                 for name, value in retired.items())
    return shape


_POSITIVE = number(1, 2 ** 53 - 1, (int,))
_FRACTION = number(0.0, 1.0)
_COST = number(0.0)  # finite and non-negative

# A shape is a dict — an object with (at least) those keys, each
# required unless its value is a :class:`Default`; ``{str: s}`` one
# whose every value is an *s* — or ``[s]``, an array of *s* (``[]`` an
# empty one, ``[s, ...]`` a non-empty one, ``[s1, s2]`` a pair); a
# tuple, any one of its shapes; a frozenset, the strings or booleans
# allowed; a :func:`number`; or a leaf below.
_LEAVES = {
    None: lambda value: value is None,
    bool: lambda value: type(value) is bool,
    str: lambda value: type(value) is str,
    object: lambda value: True,
    int: number(0, 2 ** 53 - 1, (int,)),  # a count JSON reads exactly
    float: number(),  # any finite number
}


class _Mismatch(Exception):
    """A failed check; the keys and positions above it are collected on
    the way out, innermost first, and formatted only then — as is the
    offending value: a failed choice of a tuple is routine."""

    def __init__(self, message, value=None, key=None):
        self.message = message  # None: a required key or item is absent
        self.value = value
        self.path = [] if key is None else [key]

    def __str__(self):
        try:
            text = repr(self.value)
        except RecursionError:  # JSON nests deeper than repr recurses
            text = "<nested too deeply>"
        return self.message % (text if len(text) <= 40 else
                               text[:37] + "...",)


def _walk(value, shape):
    kind = type(shape)
    if kind is dict:
        if not isinstance(value, dict):
            raise _Mismatch("not an object: %s", value)
        fill = []
        for key, inner in (dict.fromkeys(value, shape[str])
                           if str in shape else shape).items():
            if type(inner) is Default:
                if key not in value:
                    fill.append((key, inner.value))
                    continue
                inner = inner.shape
            elif key not in value:
                raise _Mismatch(None, key=key)
            try:
                _walk(value[key], inner)
            except _Mismatch as exc:
                exc.path.append(key)
                raise
        if fill:
            value.update(fill)
    elif kind is list:
        if not isinstance(value, (list, tuple)):
            raise _Mismatch("not an array: %s", value)
        if len(shape) == 2 and shape[1] is ...:
            if not value:
                raise _Mismatch(None)
            shape = shape[:1]
        elif len(shape) > 1 and len(value) != len(shape):
            raise _Mismatch("%%s: %d items, not %d"
                            % (len(value), len(shape)), value)
        for position, item in enumerate(value):
            try:
                _walk(item, shape[position] if len(shape) > 1
                      else shape[0] if shape else ())
            except _Mismatch as exc:
                exc.path.append(position)
                raise
    elif kind is tuple:  # report the choice that got furthest, if any did
        deepest = None
        for choice in shape:
            if type(choice) not in (dict, list, tuple):
                if _leaf(value, choice):
                    return
                continue
            try:
                return _walk(value, choice)
            except _Mismatch as exc:
                if exc.path and (deepest is None
                                 or len(exc.path) > len(deepest.path)):
                    deepest = exc
        raise deepest or _Mismatch("unexpected %s", value)
    elif not _leaf(value, shape):
        raise _Mismatch("unexpected %s", value)


def _leaf(value, shape):
    if type(shape) is frozenset:
        return type(value) in (str, bool) and value in shape
    return _LEAVES.get(shape, shape)(value)


def conform(payload, shape, what):
    """Raise :class:`WireFormatError` unless *payload* has *shape*.

    Every object that conforms gets its absent optional keys set to
    their defaults, so a decoder reads each field by plain indexing.
    The error names the failing node's path from *what*."""
    try:
        _walk(payload, shape)
    except RecursionError:  # called with the stack already near its limit
        raise WireFormatError("%s nests too deeply" % what) from None
    except _Mismatch as exc:
        path = what + "".join("[%d]" % key if type(key) is int else
                              "." + key for key in reversed(exc.path))
        if exc.message is None:  # a required key or item is absent
            path, __, key = path.rpartition(".")
            raise WireFormatError("%s has no %s" % (path, key)) from None
        raise WireFormatError("%s: %s" % (path, exc)) from None


# ----------------------------------------------------------------------
# The table: one shape per payload kind.
# ----------------------------------------------------------------------

_SLOT = {"alias": str, "table": str, "required_order": (str, None),
         "param_columns": Default([str], ()), "probes": Default(_COST, 1.0),
         "scale": Default(_COST, 1.0)}
_PLAN = {"internal_cost": _COST, "slots": [_SLOT],
         "order_vector": Default([[str, (str, None)]], ())}

_FAMILY = {"name": str, "help": str, "labelnames": [str]}
_SPAN = {"name": str, "trace_id": str, "span_id": str,
         "parent_id": (str, None), "start": float, "duration": float,
         "tags": {str: object}, "error": (None, str), "pid": int}

_INDEX = {"table": str, "columns": [str], "include": Default([str], ()),
          "unique": Default(bool, False), "name": Default(str, "")}
_DESIGN = {
    "version": Default(object, None),  # checked by the catalog module
    "indexes": Default([_INDEX], ()),
    "vertical_layouts": Default([{"table": str, "fragments": [
        {"columns": [str], "name": Default(str, "")}]}], ()),
    "horizontal_partitionings": Default([{
        "table": str, "column": str, "bounds": ([float], [str])}], ()),
}
_DISTRIBUTION = dict(
    kind=frozenset({"uniform", "uniform_int", "zipf", "normal", "sequence"}),
    low=Default(float, 0.0), high=Default(float, 1.0),
    n_values=Default(int, 0), s=Default(float, 1.1),
    mu=Default(float, 0.0), sigma=Default(float, 1.0),
    values=Default(([float], [str]), ()), probs=Default([_FRACTION], ()),
    correlation=Default(number(-1.0, 1.0), 0.0),
    null_frac=Default(number(0.0, math.nextafter(1.0, 0.0)), 0.0),
)
_COLUMN = {
    "name": str, "type": frozenset(t.value for t in DataType),
    "width": Default(int, 0), "nullable": Default(bool, True),
    "distribution": Default((None, _DISTRIBUTION, dict(
        # A categorical distribution *is* its values: min() needs one.
        _DISTRIBUTION, kind=frozenset({"categorical"}),
        values=([float, ...], [str, ...]), probs=[_FRACTION, ...],
    )), None),
}

_COLT_DESIGN = dict(_DESIGN, vertical_layouts=[],  # COLT only ever builds
                    horizontal_partitionings=[])  # indexes, no partitions
_TUNER = {
    "current": _COLT_DESIGN, "pending_alert": (None, _COLT_DESIGN),
    "candidates": [dict(index=_INDEX, ewma_gain=float, epoch_gain=float,
                        ewma_maintenance=float, epoch_maintenance=float,
                        probes=int, last_seen_epoch=int)],
    "report": {"alerts": int, "adoptions": int, "epochs": [dict(
        epoch=int, queries=int, observed_cost=float, build_cost=float,
        whatif_probes=int, alert=bool, adopted=bool, configuration=[str])]},
    "epoch_queries": [str], "epoch_probes": int, "epoch_no": int,
    "stable_epochs": int, "budget": int,
}
_TENANT = {
    "kind": frozenset({KIND_TENANT}), "name": str, "queries": int,
    "phase": (None, str), "phases_seen": [str], "window_queries": [str],
    "finished": bool, "tuner": _TUNER,
    "options": dict(
        colt_settings=_with_retired(ColtSettings, RETIRED_COLT_SETTINGS),
        recommend_every=int, window=_POSITIVE, budget_pages=int,
        # Options earlier builds wrote that are now constants of
        # repro.service.tenant: a file may name them at those values.
        solver=Default(frozenset({"greedy"}), "greedy"),
        refresh_on_drift=Default(frozenset({True}), True),
        partitions=Default(frozenset({False}), False),
    ),
    "drift_events": [dict(at_query=int, from_phase=str, to_phase=str)],
    "recommendations": [dict(at_query=int, phase=(None, str), trigger=str,
                             indexes=[str], improvement_pct=float)],
}
_EVENT = [(None, str), str]  # a buffered stream event: [phase, sql]

SHAPES = {
    # Cross-checked by located and _check_slots.  Filed under the text
    # the receiver binds; a "signature" an older build writes is ignored.
    KIND_ENTRY: {
        "kind": frozenset({KIND_ENTRY}), "sql": str,
        "locate": Default(bool, False),
        "build_optimizer_calls": Default(int, 0), "plans": [_PLAN, ...],
    },
    KIND_TENANT: _TENANT,
    KIND_SERVICE: {
        "kind": frozenset({KIND_SERVICE}),
        "tenants": [{"backplane": str, "session": _TENANT}],
        "scheduler": {"pending": {str: [_EVENT]}},
    },
    KIND_OBS: {  # cross-checked by _check_registry
        "kind": frozenset({KIND_OBS}),
        "counters": [dict(_FAMILY, samples=[[[str], float]])],
        "histograms": [dict(_FAMILY, buckets=[float],
                            samples=[[[str], [int], float, int]])],
        "spans": [_SPAN],
    },
    KIND_HELLO: {"kind": frozenset({KIND_HELLO}),
                 "role": frozenset({"client", "runner"})},
    KIND_CATALOG: {
        "kind": frozenset({KIND_CATALOG}),
        "catalog": dict(_DESIGN, tables=Default([{
            "name": str, "row_count": int, "columns": [_COLUMN]}], ())),
        "settings": Default((None, _with_retired(
            PlannerSettings, RETIRED_PLANNER_SETTINGS)), None),
        "pool_capacity": Default((None, _POSITIVE), None),
    },
    KIND_TASK: {"kind": frozenset({KIND_TASK}), "op": frozenset({"warm"}),
                "sql": str, "locate": Default(bool, False),
                "ctx": Default((None, [str, str]), None)},
    KIND_RESULT: {"kind": frozenset({KIND_RESULT}),
                  "op": frozenset({"catalog", "warm"}),
                  "entry": Default(str, ""),  # a delta's own decoder,
                  "obs": Default((None, {}), None)},  # obs_from_wire
    KIND_ERROR: {"kind": frozenset({KIND_ERROR}), "error": Default(str, ""),
                 "wire_error": Default(bool, False)},
    CONFIGURATION: _DESIGN,
}
SHAPES[CATALOG] = SHAPES[KIND_CATALOG]["catalog"]


# ----------------------------------------------------------------------
# The codecs: cache entries, stream events, telemetry, and the
# version-stamped envelope.
# ----------------------------------------------------------------------


def entry_to_wire(sql, cache):
    """One pool entry — ``(sql, QueryCache)``, *sql* the bound text it
    is filed under — as plan terms.

    The statement travels as that text, which the receiver re-binds
    against its own catalog.  A locate query (the synthetic SELECT
    pricing UPDATE/DELETE row location) has no parseable text, so its
    entry ships the write statement with ``locate`` set."""
    locate = sql.startswith(LOCATE_PREFIX)
    if locate:
        sql = sql[len(LOCATE_PREFIX):]
    return {
        "kind": KIND_ENTRY,
        "sql": sql,
        "locate": locate,
        "build_optimizer_calls": cache.build_optimizer_calls,
        "plans": [{
            "internal_cost": cached.internal_cost,
            "slots": [{"alias": slot.alias, "table": slot.table_name,
                       "required_order": slot.required_order,
                       "param_columns": list(slot.param_columns),
                       "probes": slot.probes, "scale": slot.scale}
                      for slot in cached.slots],
            "order_vector": [list(pair) for pair in cached.order_vector],
        } for cached in cache.plans],
    }


def located(bq, locate):
    """The statement a shipped entry or task prices: *bq*, or with
    *locate* the locate query of *bq*, an UPDATE or DELETE — any other
    pairing is a :class:`WireFormatError`."""
    if locate != (isinstance(bq, BoundWrite)
                  and bq.kind in ("update", "delete")):
        raise WireFormatError("locate=%r on %r" % (locate, bq.sql))
    return locate_query(bq) if locate else bq


def _check_slots(plans, bq):
    """Every slot sits on one of the statement's aliases and reads that
    alias's table and columns — else the kernel would price a
    neighbour's slots."""
    for slot in {slot for cached in plans for slot in cached.slots}:
        table = bq.tables.get(slot.alias)
        if table is None or table.name != slot.table_name:
            raise WireFormatError(
                "slot on %r (%r) does not belong to %r"
                % (slot.alias, slot.table_name, bq.sql)
            )
        for column in slot.param_columns + (slot.required_order,):
            if column is not None and not table.has_column(column):
                raise WireFormatError("slot on %r reads unknown column %r"
                                      % (slot.alias, column))


def entry_from_wire(payload, bind):
    """Rebuild ``(sql, QueryCache)`` from a wire payload, with the
    originating entry's costs bit for bit (plan terms travel verbatim);
    ``bind(sql)`` binds the statement it names, and the entry's key is
    the text of that binding — never one the sender chose.  Anything but
    a well-formed entry *of that statement* raises
    :class:`WireFormatError` (or the binder's typed error)."""
    conform(payload, SHAPES[KIND_ENTRY], "cache entry")
    bq = located(bind(payload["sql"]), payload["locate"])
    plans = [CachedPlan(
        internal_cost=plan["internal_cost"],
        slots=tuple(AccessSlot(
            slot["alias"], slot["table"], slot["required_order"],
            tuple(slot["param_columns"]), slot["probes"], slot["scale"],
        ) for slot in plan["slots"]),
        order_vector=tuple(map(tuple, plan["order_vector"])),
    ) for plan in payload["plans"]]
    _check_slots(plans, bq)
    cache = QueryCache.from_plan_terms(
        bq, plans, build_optimizer_calls=payload["build_optimizer_calls"]
    )
    return bq.sql, cache


def event_to_wire(event):
    """One tenant stream event — ``(phase, sql)`` or plain SQL — as a
    two-element array.  Plain SQL becomes a null phase, which ingests
    identically (a ``None`` phase never triggers drift handling)."""
    return list(event) if isinstance(event, tuple) else [None, event]


def event_from_wire(payload, catalog):
    """Rebuild a stream event from its wire form (always the tuple
    shape; ``(None, sql)`` is ingest-equivalent to bare SQL).  The SQL
    must bind against *catalog*, the tenant's: it is ingested later."""
    conform(payload, _EVENT, "stream event")
    bind_statement(payload[1], catalog)
    return tuple(payload)


def obs_to_wire(delta):
    """One :func:`repro.obs.drain_deltas` payload as a wire section,
    stamped with its kind so :func:`loads` can route it."""
    return {
        "kind": KIND_OBS,
        "counters": list(delta.get("counters", ())),
        "histograms": list(delta.get("histograms", ())),
        "spans": list(delta.get("spans", ())),
    }


def _check_registry(payload):
    """Every family of the delta is one the telemetry catalogue
    declares, shipped as declared (kind, help, label names, buckets),
    and each sample carries one value per label and one count per
    bucket."""
    for kind in ("counter", "histogram"):
        for family in payload[kind + "s"]:
            name = family["name"]
            spec = FAMILIES.get(name)
            if spec is None:
                raise WireFormatError("telemetry family %r is not declared"
                                      % (name,))
            declared = (spec.kind, spec.help, spec.labelnames, spec.buckets)
            shipped = (kind, family["help"], tuple(family["labelnames"]),
                       tuple(family.get("buckets", ())))
            if shipped != declared:
                raise WireFormatError("telemetry family %r is declared %r, "
                                      "shipped %r" % (name, declared, shipped))
            for sample in family["samples"]:
                if len(sample[0]) != len(spec.labelnames) \
                        or kind == "histogram" \
                        and len(sample[1]) != len(spec.buckets) + 1:
                    raise WireFormatError("telemetry sample %r does not "
                                          "fit family %r" % (sample, name))


def obs_from_wire(payload):
    """Validate and return a telemetry-delta payload for
    :func:`repro.obs.ingest_deltas`."""
    conform(payload, SHAPES[KIND_OBS], "telemetry delta")
    _check_registry(payload)
    return payload


def dumps(payload, indent=None):
    """Serialize a wire payload (entry/tenant/service dict) to JSON with
    the version stamped into the envelope."""
    body = dict(payload)
    body["wire_version"] = WIRE_VERSION
    return json.dumps(body, sort_keys=True, indent=indent)


def check_version(payload):
    """Validate the envelope; raises :class:`WireFormatError` on any
    version mismatch (no silent best-effort parsing of foreign data)."""
    conform(payload, {}, "wire payload")
    version = payload.get("wire_version")
    if version != WIRE_VERSION:
        raise WireFormatError(
            "unsupported wire version %r (this build speaks %d)"
            % (version, WIRE_VERSION)
        )
    return payload


def loads(text, catalog=None, pool=None):
    """Parse a wire-format JSON string.

    Cache-entry payloads need *catalog* and return ``(sql,
    QueryCache)``; tenant/service payloads return the dict, validated
    and materialized by :meth:`TuningService.restore` and friends.
    With *pool* (an :class:`~repro.evaluation.InumCachePool` or its
    sharded twin) the payload must be a cache entry, and it is also
    *installed*: put into the pool unless resident, and its columnar
    kernel rebuilt from the just-loaded plan terms (kernels never cross
    the wire).  A pool whose owner prices *catalog* binds the entry's
    SQL through the owner's ``known_bound``: the statement the owner
    already bound, never remembering one it did not."""
    try:
        payload = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:  # not JSON at all
        raise WireFormatError("wire text is not JSON: %s" % (exc,)) from exc
    kind = check_version(payload).get("kind")
    if kind == KIND_ENTRY:
        if catalog is None:
            raise WireFormatError(
                "deserializing a cache entry requires a catalog"
            )
        owner = pool.owner() if pool is not None else None
        if owner is not None and owner.catalog is catalog:
            bind = owner.known_bound
        else:
            bind = partial(bind_statement, catalog=catalog)
        sql, cache = entry_from_wire(payload, bind)
        if pool is not None:
            if sql not in pool:
                pool.put(sql, cache)
            pool.kernel_for(sql)
        return sql, cache
    if pool is not None:
        raise WireFormatError("a %r payload is no cache entry" % (kind,))
    if kind == KIND_OBS:
        return obs_from_wire(payload)
    if kind in (KIND_TENANT, KIND_SERVICE):
        return payload
    raise WireFormatError("unknown wire payload kind %r" % (kind,))
