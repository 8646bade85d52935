"""The INUM plan cache: building entries and the walk that prices them.

Build phase (once per query, :func:`build_cache`): enumerate
interesting-order vectors — one entry per table: unordered, or ordered
by one join/grouping/ordering column.  For each vector, plan the query
against a catalog holding a hypothetical covering index per ordered
table, and split the resulting cost into ``internal`` (joins, sorts,
aggregation) plus per-table *access slots*.

Evaluate phase (per configuration, :func:`evaluate_terms`): for every
cached plan, re-price each slot with the cheapest matching access path
available under the configuration (sequential scan, a configuration
index, or scan+sort to restore a required order) and return the minimum
over cached plans.  Evaluation issues **zero** optimizer calls.

A slot is priced once.  The winner functions (:func:`_access_cost` over
:func:`_best_scan_access` / :func:`_best_param_access`) always answer
with the winning access — ``(cost, winner indexes)``, or ``None`` for a
slot nothing serves — and
:meth:`~repro.evaluation.WorkloadEvaluator.slot_choice` memoizes that
one answer per slot and per projection of the design onto it: plain
evaluation and the columnar kernel read its cost half, and CoPhy's
candidate pricer fills the same entries.  The cost model that owns the
entries, the bound statements and that memo is the
:class:`~repro.evaluation.WorkloadEvaluator`.
"""

import itertools
import math
from dataclasses import dataclass, field

from repro.catalog import Index
from repro.optimizer import joins as J
from repro.optimizer import paths as P
from repro.optimizer.planner import plan_query
from repro.optimizer.settings import DISABLE_COST
from repro.sql.binder import BoundQuery

MAX_ORDERS_PER_TABLE = 4
MAX_VECTORS_PER_QUERY = 32
_TMP_PREFIX = "inum_tmp_"
_UNPRICED = object()  # slot-memo miss (None is a price: infeasible)


@dataclass(frozen=True, slots=True)
class AccessSlot:
    """One base-table access in a cached plan skeleton.

    Every field is a primitive (strings, floats, a tuple of column
    names), which is what makes slots — and therefore whole cache
    entries — portable: :mod:`repro.evaluation.wire` serializes them
    verbatim, and re-pricing a slot needs only these fields plus the
    owning bound query.
    """

    alias: str
    table_name: str
    required_order: str = None  # column the skeleton expects order on
    param_columns: tuple = ()  # non-empty => index-probe slot
    probes: float = 1.0  # times the access runs (NL inner)
    scale: float = 1.0  # fraction consumed (LIMIT early termination)


@dataclass(frozen=True, slots=True)
class CachedPlan:
    """One plan's *terms*: internal (access-independent) cost plus
    access slots — everything evaluation needs, with no reference to
    live :class:`~repro.optimizer.plan.Plan` nodes.  Plan trees are
    consumed once at build time (:func:`extract_plan_terms`) and kept
    only by the explain path; evaluation and the wire format see terms.
    """

    internal_cost: float
    slots: tuple
    order_vector: tuple  # ((alias, column-or-None), ...) for debugging

    @property
    def terms(self):
        """The ``(internal_cost, slots)`` pair evaluation consumes."""
        return self.internal_cost, self.slots


@dataclass
class QueryCache:
    """All cached plans for one query."""

    bound_query: BoundQuery
    plans: list = field(default_factory=list)
    build_optimizer_calls: int = 0
    _terms: tuple = field(default=None, repr=False, compare=False)

    @property
    def sql(self):
        return self.bound_query.sql

    def plan_terms(self):
        """Every plan reduced to ``(internal_cost, slots)`` terms.

        Memoized on first call — ``plans`` is immutable once the build
        returns, and this sits on the per-query per-configuration hot
        path, which must stay allocation-free."""
        if self._terms is None or len(self._terms) != len(self.plans):
            self._terms = tuple(cached.terms for cached in self.plans)
        return self._terms

    @classmethod
    def from_plan_terms(cls, bound_query, plans, build_optimizer_calls=0):
        """Rebuild a cache entry from plan terms (the wire-format path):
        no optimizer runs, the plans are installed as given."""
        return cls(
            bound_query=bound_query,
            plans=list(plans),
            build_optimizer_calls=build_optimizer_calls,
        )


def evaluate_terms(cache, price_slot):
    """The scalar reference walk over one entry's plan terms.

    ``price_slot(bound_query, slot)`` returns ``None`` for an
    infeasible slot or a ``(cost, payload)`` pair; the walk sums each
    plan's slot costs onto its internal cost (in slot order), skips
    infeasible plans, and returns ``(best_cost, payloads)`` where
    ``payloads`` are the winning plan's per-slot payloads in slot
    order.  Raises when no cached plan is feasible.

    This is the *single* scalar consumer of plan terms: plain
    evaluation (``WorkloadEvaluator._evaluate``) and usage-aware
    evaluation (``WorkloadEvaluator.cost_with_usage``) are both thin
    wrappers, and the columnar kernel
    (:mod:`repro.evaluation.kernel`) is pinned bit-identical to this
    walk — so the three consumers cannot drift.
    """
    bq = cache.bound_query
    best = math.inf
    best_payloads = ()
    for internal_cost, slots in cache.plan_terms():
        total = internal_cost
        payloads = []
        feasible = True
        for slot in slots:
            priced = price_slot(bq, slot)
            if priced is None:
                feasible = False
                break
            cost, payload = priced
            total += cost
            payloads.append(payload)
        if feasible and total < best:
            best = total
            best_payloads = tuple(payloads)
    if not math.isfinite(best):
        raise RuntimeError("INUM cache produced no feasible plan")
    return best, best_payloads


# ----------------------------------------------------------------------
# Cache construction.
# ----------------------------------------------------------------------


def _interesting_orders(bq, alias):
    """Candidate order columns for one table reference."""
    orders = []
    for clause in bq.joins_for(alias):
        col, __, __ = clause.side_for(alias)
        if col not in orders:
            orders.append(col)
    for a, c in bq.group_by:
        if a == alias and c not in orders:
            orders.append(c)
            break
    for a, c, __ in bq.order_by:
        if a == alias and c not in orders:
            orders.append(c)
            break
    return [None] + orders[: MAX_ORDERS_PER_TABLE - 1]


def _order_vectors(bq):
    """A template part: the order vectors a build plans, fewest ordered
    tables first (they generalize best) and cut at the cap, each with
    the hypothetical covering indexes — one per ordered table, its order
    column as key and the alias's other referenced columns included —
    its overlay adds."""
    orders = {alias: _interesting_orders(bq, alias) for alias in bq.aliases}
    vectors = list(itertools.product(*(
        [(alias, order) for order in alias_orders]
        for alias, alias_orders in orders.items()
    )))
    vectors.sort(key=lambda v: sum(1 for __, o in v if o is not None))
    covering = {}
    for alias, alias_orders in orders.items():
        for order in alias_orders[1:]:
            covering[alias, order] = Index(
                bq.table_for(alias).name,
                (order,),
                include=tuple(sorted(bq.referenced_columns(alias) - {order})),
                name="%s%s_%s" % (_TMP_PREFIX, alias, order),
            )
    return tuple(
        (vector, tuple(covering[alias, order]
                       for alias, order in vector if order is not None))
        for vector in vectors[:MAX_VECTORS_PER_QUERY]
    )


def build_cache(bq, catalog, settings):
    """Build the INUM cache entry for one bound query: plan each
    interesting-order vector and reduce every plan tree to terms."""
    cache = QueryCache(bound_query=bq)
    seen = set()
    covering = set()
    # Consecutive vectors differ in one alias's covering index, so the
    # join subsets without that alias are enumerated once for the build.
    subsets = {}
    one = _sharing()
    for vector, indexes in bq.template.part(_order_vectors, bq):
        overlay = catalog.clone()
        for index in indexes:
            overlay.add_index(index)
        covering.update(indexes)
        plan = plan_query(bq, overlay, settings, subsets=subsets)
        cache.build_optimizer_calls += 1
        cached = extract_plan_terms(plan, bq, dict(vector))
        key = (round(cached.internal_cost, 6), cached.slots)
        if key not in seen:
            seen.add(key)
            cache.plans.append(_shared_plan(
                one, cached.internal_cost, cached.slots, cached.order_vector))
    # The hypothetical covering indexes never recur after the build.
    P.forget_indexes(bq, covering)
    return cache


def _sharing():
    """A fresh ``one(value)``: the first object equal to *value* that
    this ``one`` was given.  A build, and one decoded wire entry
    (``wire.entry_from_wire``), make all their plans through a single
    ``one`` (:func:`_shared_plan`): the order vectors plan most
    references alike."""
    shared = {}
    return lambda value: shared.setdefault(value, value)


def _shared_plan(one, internal_cost, slots, order_vector):
    """A :class:`CachedPlan` whose access slots, slot tuple and
    ``(alias, order)`` pairs are *one*'s objects."""
    return CachedPlan(internal_cost, one(tuple(map(one, slots))),
                      tuple(map(one, order_vector)))


def extract_plan_terms(plan, bq, order_by_alias):
    """Split a plan tree into terms: internal cost + access slots.

    This is the only place evaluation ever touches a live plan tree;
    everything downstream (``_evaluate``, the batch compiler, the wire
    format) works on the returned :class:`CachedPlan` terms."""
    contributions = {}  # alias -> (cost_contribution, slot)
    _walk_scans(plan, 1.0, 1.0, contributions, bq, order_by_alias)
    internal = plan.total_cost - sum(c for c, __ in contributions.values())
    internal = max(0.0, internal)
    slots = tuple(sorted((s for __, s in contributions.values()),
                         key=lambda s: s.alias))
    vector = tuple(sorted(order_by_alias.items()))
    return CachedPlan(internal_cost=internal, slots=slots, order_vector=vector)


_SCAN_TYPES = ("SeqScan", "IndexScan", "IndexOnlyScan", "BitmapHeapScan",
               "BitmapAndScan", "FragmentScan", "AppendScan")
_BLOCKING_TYPES = ("Sort", "Aggregate", "Materialize")


def _charged(node, scale):
    """Cost the skeleton actually paid for a scan under LIMIT scaling."""
    return node.startup_cost + scale * (node.total_cost - node.startup_cost)


def _walk_scans(node, factor, scale, contributions, bq, order_by_alias):
    """Collect scan contributions.

    ``factor`` multiplies per-probe costs of parameterized inner scans;
    ``scale`` is the consumed fraction induced by a pipelined LIMIT above
    (blocking operators reset it to 1 for their inputs).
    """
    if node.node_type in _SCAN_TYPES:
        alias = node.alias
        table = bq.table_for(alias)
        if node.is_parameterized:
            slot = AccessSlot(
                alias=alias,
                table_name=table.name,
                required_order=None,
                param_columns=tuple(getattr(node, "param_columns", ())),
                probes=factor,
                scale=scale,
            )
            contributions[alias] = (_charged(node, scale) * factor, slot)
        else:
            slot = AccessSlot(
                alias=alias,
                table_name=table.name,
                required_order=order_by_alias.get(alias),
                probes=1.0,
                scale=scale,
            )
            contributions[alias] = (_charged(node, scale), slot)
        return
    if node.node_type == "Limit":
        child = node.children[0]
        run = child.total_cost - child.startup_cost
        fraction = 1.0
        if run > 0:
            fraction = (node.total_cost - node.startup_cost) / run
        scale *= min(1.0, max(0.0, fraction))
        _walk_scans(child, factor, scale, contributions, bq, order_by_alias)
        return
    if node.node_type in _BLOCKING_TYPES:
        for child in node.children:
            _walk_scans(child, factor, 1.0, contributions, bq, order_by_alias)
        return
    if node.node_type == "HashJoin" and len(node.children) == 2:
        outer, inner = node.children
        _walk_scans(outer, factor, scale, contributions, bq, order_by_alias)
        # The build side is consumed in full regardless of LIMIT.
        _walk_scans(inner, factor, 1.0, contributions, bq, order_by_alias)
        return
    if node.node_type == "NestLoop" and len(node.children) == 2:
        outer, inner = node.children
        _walk_scans(outer, factor, scale, contributions, bq, order_by_alias)
        inner_factor = factor * max(1.0, outer.rows) if _is_param_subtree(inner) else factor
        _walk_scans(inner, inner_factor, scale, contributions, bq, order_by_alias)
        return
    for child in node.children:
        _walk_scans(child, factor, scale, contributions, bq, order_by_alias)


def _is_param_subtree(node):
    return any(n.is_parameterized for n in node.walk())


# ----------------------------------------------------------------------
# Configuration evaluation.
# ----------------------------------------------------------------------


class _DesignView:
    """A catalog facade overlaying a Configuration without cloning.

    Exposes exactly the surface the path generator touches, and a cheap
    per-table design signature used to memoize slot access costs.
    """

    def __init__(self, base, config):
        self._base = base
        self._config = config
        self._by_table = {}
        # Canonical order, not frozenset iteration order: path
        # enumeration order decides cost ties, so equal designs must
        # offer their indexes identically regardless of how (or in
        # which process) the configuration's frozenset was built.
        for ix in sorted(
            config.indexes, key=lambda i: (i.name, i.columns, i.include)
        ):
            self._by_table.setdefault(ix.table_name, []).append(ix)
        self._layouts = {l.table_name: l for l in config.layouts}
        self._horizontals = {h.table_name: h for h in config.horizontals}

    def table(self, name):
        return self._base.table(name)

    def indexes_on(self, table_name):
        merged = list(self._base.indexes_on(table_name))
        seen = set(merged)
        for ix in self._by_table.get(table_name, ()):
            if ix not in seen:
                merged.append(ix)
        return merged

    def vertical_layout(self, table_name):
        return self._layouts.get(table_name) or self._base.vertical_layout(table_name)

    def horizontal_partitioning(self, table_name):
        return self._horizontals.get(table_name) or self._base.horizontal_partitioning(
            table_name
        )

    def design_signature(self, table_name):
        """``(indexes, layout, horizontal)`` of the design on one table,
        its index set a fresh frozenset: the evaluator swaps in its
        sharing table's object before a kernel key keeps one
        (``WorkloadEvaluator._kernel_views``)."""
        return (
            frozenset(self._by_table.get(table_name, ())),
            self._layouts.get(table_name),
            self._horizontals.get(table_name),
        )


def _slot_interesting(slot):
    """The one order a scan slot's skeleton can use."""
    return (slot.required_order,) if slot.required_order else ()


def _slot_key(bq, slot, view, design_signature, shared, ctx=None):
    """Slot-memo key under one per-table design signature of *view*:
    what an access *cost* (and the indexes backing the winner) reads of
    the design, no more — the flat tuple ``(slot, indexes, cover,
    horizontal)``.  *shared* is the evaluator's sharing table (row
    ``SHARED`` of ``evaluation/memos.py``); *ctx* is
    ``scan_context(bq, slot.alias, view)`` when the caller already
    holds it.

    ``indexes``: of the design's indexes, the frozenset of those that
    reach the slot (:func:`~repro.optimizer.paths.reaching_indexes`) —
    the others offer it no path, arm or probe, so a design that adds
    only those shares the empty design's entry.  The set is *shared*'s
    object: keys with one projection hold one set.  ``cover``: of a
    vertical layout, two numbers — the pages and fragment count of the
    cover this reference scans (``relation_geometry``,
    ``_sequential_path``) — so a merge that leaves the reference's cover
    alone, or trades it for one of equal weight, re-prices nothing;
    ``None`` without a layout."""
    indexes, layout, horizontal = design_signature
    if indexes:
        if ctx is None:
            ctx = P.scan_context(bq, slot.alias, view)
        indexes = frozenset(P.reaching_indexes(
            ctx, indexes, _slot_interesting(slot), slot.param_columns
        ))
    indexes = shared.setdefault(indexes, indexes)
    if layout is not None:
        layout = P.layout_cover(bq, slot.alias, layout)[1]
    return (slot, indexes, layout, horizontal)


def _consumed(path, slot):
    # A pipelined LIMIT above the skeleton only consumes slot.scale of
    # the run cost; the startup (btree descent) is always paid.
    return path.startup_cost + slot.scale * (
        path.total_cost - path.startup_cost
    )


def _best_param_access(slot, candidates):
    """Winner logic for a parameterized (nested-loop inner) slot over an
    already-assembled list of parameterized paths: ``(cost, winner
    indexes)``, or ``None`` when nothing serves the slot."""
    usable = [
        p for p in candidates
        if set(slot.param_columns) <= set(p.param_columns)
    ] or candidates
    if not usable:
        return None
    winner = min(usable, key=lambda p: _consumed(p, slot))
    return _consumed(winner, slot) * slot.probes, _path_indexes(winner)


def _best_scan_access(slot, raw_paths, settings):
    """Winner logic for a scan slot over an already-assembled list of
    non-parameterized paths (pre DISABLE_COST filtering): ``(cost,
    winner indexes)`` or ``None``, like :func:`_best_param_access`."""

    def consumed(path):
        return _consumed(path, slot)

    paths = [p for p in raw_paths if p.total_cost < DISABLE_COST / 2]
    if not paths:
        return None
    if slot.required_order is None:
        winner = min(paths, key=consumed)
        return consumed(winner), _path_indexes(winner)
    # Btrees read backward at equal cost, so either direction on the
    # required column satisfies an order-expecting skeleton slot.
    satisfying = [
        p for p in paths
        if p.ordering and p.ordering[0][:2] == (slot.alias, slot.required_order)
    ]
    winner = min(satisfying, key=consumed, default=None)
    best = consumed(winner) if winner is not None else math.inf
    if slot.scale < 1.0:
        # Under a pipelined LIMIT a sort would be blocking, so an explicit
        # sort cannot substitute for a missing ordered path here.
        if winner is None:
            return None
        return best, _path_indexes(winner)
    cheapest = min(paths, key=lambda p: p.total_cost)
    sorted_cost = J.sort_cost(cheapest, settings)[1]
    if sorted_cost < best:
        return sorted_cost, _path_indexes(cheapest)
    return best, _path_indexes(winner)


def _access_cost(slot, bq, catalog, settings):
    """Winning access path satisfying *slot* under *catalog*: ``(cost,
    winner indexes)`` — the tuple lists the indexes backing the winning
    path (empty for sequential scans, two entries for a BitmapAnd) — or
    ``None`` if the slot cannot be satisfied (e.g. probe slot with no
    usable index)."""
    if slot.param_columns:
        candidates = P.parameterized_paths(
            bq, slot.alias, catalog, settings, slot.param_columns
        )
        return _best_param_access(slot, candidates)

    raw = P.scan_paths(
        bq, slot.alias, catalog, settings, _slot_interesting(slot)
    )
    return _best_scan_access(slot, raw, settings)


def _path_indexes(path):
    """Indexes backing a path (tuple; empty for plain scans)."""
    if path is None:
        return ()
    single = getattr(path, "index", None)
    if single is not None:
        return (single,)
    return tuple(getattr(path, "indexes", ()) or ())

