"""The portable wire format, and the one table of shapes every payload
from outside is checked against.

The paper's designer is *portable*: sessions move between machines and
survive restarts, and the INUM cache is the unit that makes re-costing
cheap.  This module gives that state a canonical, versioned JSON form —
INUM cache entries as *plan terms* (per-plan internal cost,
:class:`~repro.inum.cache.AccessSlot` records and the order vector; the
receiver re-binds the SQL, files the entry under the text it bound and
prices bit-identically), service snapshots, telemetry deltas, and the
frames of :mod:`repro.net`.  Every payload is stamped with :data:`WIRE_VERSION`,
and :func:`loads` rejects a mismatch instead of guessing.

**One validation mechanism.**  :data:`SHAPES` declares, per payload
kind, everything a receiver reads: the entry, service and telemetry
kinds, the five frame kinds and a catalog.  Every decoder —
here, in :mod:`repro.net`, in :mod:`repro.catalog.serialize` and on the
restore paths — runs :func:`conform` against its kind's shape, then the
cross-checks a shape cannot state because they need the receiving
catalog or the telemetry catalogue (:func:`located`,
:func:`_check_slots`, :func:`_check_registry`), then plain
construction.  Anything else is a :class:`~repro.util.WireFormatError`, and unknown
keys are ignored.  Peers and state files are of this build's version
only: :func:`check_version` (and the runner's hello) refuses any other
before a shape is read.

**One record codec.**  A dataclass that crosses the wire — planner and
COLT settings, a tuner's and a tenant's state with the candidate
states, report, drift events and recommendation records in them, an
index, a vertical layout, a
horizontal partitioning, a design configuration, and a catalog's tables
with their columns and distributions — is written, read and shaped from
its own constructor fields: :func:`record_to_wire`,
:func:`record_from_wire` and ``_record``.  Cache entries are the one
exception, with a codec of their own: they are the fleet's hot path,
whose bytes the perf ledger measures, and a receiver files one under the
statement *it* binds and checks every slot against that binding, so an
entry is plan terms to cross-check, not a record to rebuild.

**The snapshot format.**  A state file (``serve --state-dir``'s
``service.json``) is one :data:`KIND_SERVICE` payload whose
``tenants`` hold one ``{"backplane", "session", "pending"}`` each: the
key of the backplane the tenant prices on, its
:class:`~repro.colt.tuner.TenantState` record (its tuner's
:class:`~repro.colt.tuner.ColtState` under ``tuner``) and its pending
``[phase, sql]`` events, pulled from its stream but not yet ingested.
No fact the code works out is written: a tenant's phase is the last of
its ``phases_seen``, its refresh budget is the catalog's, the tuner's
epoch number and its alerts and adoptions are counted off its report's
epochs.  Catalogs and caches are not in it: the host re-registers the
backplanes.
"""

import json
import math
import sys
import types
import typing
from collections import namedtuple
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import partial

from repro.catalog import (
    Column, Distribution, HorizontalPartitioning, Table)
from repro.colt.tuner import ColtState, TenantState
from repro.inum.cache import AccessSlot, QueryCache, _shared_plan, _sharing
from repro.obs.catalogue import FAMILIES
from repro.optimizer.settings import PlannerSettings
from repro.optimizer.writecost import LOCATE_PREFIX, locate_query
from repro.sql.binder import BoundWrite, bind_statement
from repro.util import WireFormatError
from repro.whatif import Configuration

__all__ = [
    "WIRE_VERSION", "KIND_ENTRY", "KIND_SERVICE", "KIND_OBS",
    "KIND_HELLO", "KIND_CATALOG", "KIND_TASK", "KIND_RESULT", "KIND_ERROR",
    "CATALOG", "SHAPES", "Default", "number", "conform",
    "located", "record_to_wire", "record_from_wire", "obs_to_wire",
    "obs_from_wire", "entry_to_wire", "entry_from_wire",
    "event_to_wire", "event_from_wire", "dumps", "loads", "check_version",
]

# Version 8: tuner and tenant state are records with no field the code
# works out, and each tenant entry carries its own pending events (the
# snapshot format above); 7: indexes, layouts, designs and a catalog's
# tables are records (their fields' names, no ``unique``, ``nullable``,
# column width or fragment name); 6: settings
# carry their dataclass's fields only, tenant options no constant, and
# a catalog or design no stamp of its own; 5 made a ``warm`` result
# carry its entry as wire *text*, 4 added the network frames, 3
# telemetry deltas, 2 scheduler state in service snapshots.
WIRE_VERSION = 8

KIND_ENTRY = "inum-cache-entry"
KIND_SERVICE = "tuning-service"
KIND_OBS = "obs-delta"

# The frame kinds of :mod:`repro.net`: one WIRE_VERSION governs files
# and every hop of the fleet alike.
KIND_HELLO = "net-hello"
KIND_CATALOG = "net-catalog"
KIND_TASK = "net-task"
KIND_RESULT = "net-result"
KIND_ERROR = "net-error"

# The plain-data payload of :mod:`repro.catalog.serialize` (no envelope).
CATALOG = "catalog"


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
# Records: a dataclass's wire form, reader and shape are its fields.
# ----------------------------------------------------------------------


def record_to_wire(value):
    """A record (a dataclass) as JSON data: each constructor field under
    its own name, nested records and lists recursed into, tuples written
    as arrays, a frozenset as an array sorted by each item's JSON text
    (so a dump is a function of the content, never of iteration order)
    and an enum as its value."""
    return {f.name: _to_wire(getattr(value, f.name))
            for f in fields(value) if f.init}


def _to_wire(value):
    if is_dataclass(value):
        return record_to_wire(value)
    if isinstance(value, (list, tuple)):
        return [_to_wire(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(map(_to_wire, value),
                      key=partial(json.dumps, sort_keys=True))
    if isinstance(value, Enum):
        return value.value
    return value


def record_from_wire(cls, payload):
    """Build *cls* from its :func:`record_to_wire` form.  Exactly its
    constructor fields are read, other keys ignored; arrays become
    tuples, lists or frozensets as the field's annotation says, values
    enums where it names one and records where it holds records (an
    ``X | None`` one too).  The object is built through the dataclass,
    so its ``__post_init__`` checks raise their typed errors."""
    return cls(**{f.name: _from_wire(f.type, payload[f.name])
                  for f in fields(cls) if f.init})


def _from_wire(hint, value):
    origin = typing.get_origin(hint) or hint
    args = typing.get_args(hint)
    if origin is types.UnionType:
        inner = [arg for arg in args if arg is not type(None)]
        return _from_wire(inner[0], value) \
            if value is not None and len(inner) == 1 else value
    if is_dataclass(origin):
        return record_from_wire(origin, value)
    if origin in (list, tuple, frozenset):
        return origin(_from_wire(args[0], item) for item in value)
    if isinstance(origin, type) and issubclass(origin, Enum):
        return origin(value)
    return value


def _record(cls, **nested):
    """The shape of *cls*'s wire form, read off the annotations of its
    constructor fields: ``tuple[str, ...]`` (or a list or frozenset of
    str) is ``[str]``, ``str | None`` is ``(str, None)``, an enum the set
    of its values and a record nests.  *nested* names the shape of a
    field whose values are narrower than its annotation says."""
    return {f.name: nested[f.name] if f.name in nested else _shape(f.type)
            for f in fields(cls) if f.init}


def _shape(hint):
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (list, tuple, frozenset):
        return [_shape(args[0])]
    if args:  # a union
        return tuple(_shape(arg) for arg in args)
    if hint is type(None):
        return None
    if isinstance(hint, type) and issubclass(hint, Enum):
        return frozenset(member.value for member in hint)
    return _record(hint) if is_dataclass(hint) else hint


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

_DISTRIBUTION = _record(
    Distribution,
    kind=frozenset({"uniform", "uniform_int", "zipf", "normal", "sequence"}),
    values=([float], [str]), probs=[_FRACTION],
    correlation=number(-1.0, 1.0),
    null_frac=number(0.0, math.nextafter(1.0, 0.0)),
)
_TABLE = _record(Table, columns=[_record(Column, distribution=(
    None, _DISTRIBUTION, dict(
        # A categorical distribution *is* its values: min() needs one.
        _DISTRIBUTION, kind=frozenset({"categorical"}),
        values=([float, ...], [str, ...]), probs=[_FRACTION, ...]),
))])
_DESIGN = _record(Configuration, horizontals=[_record(
    HorizontalPartitioning, bounds=([float], [str]))])

# COLT only ever builds indexes, no partitions.
_COLT_DESIGN = dict(_DESIGN, layouts=[], horizontals=[])
_TENANT = _record(TenantState, window=_POSITIVE, tuner=_record(
    ColtState, current=_COLT_DESIGN, pending_alert=(None, _COLT_DESIGN)))
_EVENT = [(None, str), str]  # a buffered stream event: [phase, sql]

SHAPES = {
    # Cross-checked by located and _check_slots.  Filed under the text
    # the receiver binds.
    KIND_ENTRY: {
        "kind": frozenset({KIND_ENTRY}), "sql": str,
        "locate": Default(bool, False),
        "build_optimizer_calls": Default(int, 0), "plans": [_PLAN, ...],
    },
    KIND_SERVICE: {
        "kind": frozenset({KIND_SERVICE}),
        "tenants": [{"backplane": str, "session": _TENANT,
                     "pending": [_EVENT]}],
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
        "catalog": {"tables": [_TABLE], "design": _DESIGN},
        "settings": Default((None, _record(PlannerSettings)), None),
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
    one = _sharing()
    plans = [_shared_plan(
        one, plan["internal_cost"],
        (AccessSlot(
            slot["alias"], slot["table"], slot["required_order"],
            tuple(slot["param_columns"]), slot["probes"], slot["scale"],
        ) for slot in plan["slots"]),
        map(tuple, plan["order_vector"]),
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
    """Serialize a wire payload (entry/service dict) to JSON with
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


def loads(text, catalog=None, pool=None, key=None):
    """Parse a wire-format JSON string.

    Cache-entry payloads need *catalog* and return ``(sql,
    QueryCache)``; service payloads return the dict, validated and
    materialized by :meth:`TuningService.restore`.
    With *pool* (an :class:`~repro.evaluation.InumCachePool` or its
    sharded twin) the payload must be a cache entry, and it is also
    *installed*: put into the pool unless resident.  A pool whose owner
    prices *catalog* binds the entry's SQL through the owner's
    ``known_bound``: the statement the owner already bound, never
    remembering one it did not.  With *key* (the
    text a fleet task asked for), an entry that re-binds to another
    text is refused before anything is put."""
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
        if key is not None and sql != key:
            raise WireFormatError("an entry of %r answers %r" % (sql, key))
        if pool is not None:
            if sql not in pool:
                pool.put(sql, cache)
        return sql, cache
    if pool is not None:
        raise WireFormatError("a %r payload is no cache entry" % (kind,))
    if kind == KIND_OBS:
        return obs_from_wire(payload)
    if kind == KIND_SERVICE:
        return payload
    raise WireFormatError("unknown wire payload kind %r" % (kind,))
