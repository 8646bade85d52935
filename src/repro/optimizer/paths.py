"""Access-path generation and costing for base relations.

For one table reference the planner considers:

* sequential scan (or AppendScan over pruned horizontal partitions,
  FragmentScan over a vertical layout),
* index scans for every index whose key prefix matches sargable filters,
* index-only scans when the index covers all referenced columns,
* bitmap heap scans (good for medium-selectivity, uncorrelated keys),
* "ordering-only" full index scans when an index's leading column is
  *interesting* (ORDER BY / GROUP BY / merge-joinable),
* parameterized index scans for nested-loop inners, where a join key is
  treated as an equality probe.

Cost formulas follow PostgreSQL's ``costsize.c`` shapes, including the
Mackert–Lohman page-fetch estimate and correlation interpolation between
the best-case (clustered) and worst-case (random) heap access cost.
"""

import math
from dataclasses import dataclass, field

from repro.optimizer.plan import (
    AppendScan,
    BitmapAndScan,
    BitmapHeapScan,
    FragmentScan,
    IndexScan,
    SeqScan,
)
from repro.optimizer.selectivity import equality_fraction, filter_selectivity
from repro.optimizer.settings import DISABLE_COST
from repro.util import ceil_div, clamp

# Fraction of heap pages an index-only scan assumes all-visible.
INDEX_ONLY_VISIBLE_FRAC = 0.95


@dataclass(slots=True)
class RelationGeometry:
    """Physical footprint of one table reference after partition effects."""

    table: object
    alias: str
    rows: float  # rows that any scan must consider (after pruning)
    scan_pages: float  # pages a full scan reads
    fetch_pages: float  # pages index heap-fetches target
    fragments: tuple = ()  # chosen vertical fragments, if any
    partitions_scanned: int = 0
    partitions_total: int = 0
    prune_fraction: float = 1.0


def layout_cover(bound_query, alias, layout):
    """What a scan of *alias* reads of a vertical *layout*: its *cover*
    ``layout.fragments_for(needed)`` plus the two numbers of the cover
    that access costs read, as ``(cover, (pages, fragment count))``.

    A layout reaches a table reference only through its cover, so two
    layouts with the same cover share one :class:`ScanContext`, and two
    covers with the same geometry price every slot the same
    (:meth:`~repro.evaluation.WorkloadEvaluator.slot_cost` keys on it).
    The cover reads only the table and the referenced columns, so it is
    memoized on the layout by those (:meth:`~repro.catalog.VerticalLayout.
    cover`): the statements of one template share one set cover.
    """
    return layout.cover(
        bound_query.table_for(alias), bound_query.referenced_columns(alias)
    )


def relation_geometry(bound_query, alias, cover, horizontal):
    """The effective size of *alias* under a vertical layout's
    :func:`layout_cover` entry (or ``None``) and a horizontal
    partitioning (or ``None``)."""
    table = bound_query.table_for(alias)
    rows = float(table.row_count)
    scan_pages = float(table.pages)
    fetch_pages = float(table.pages)
    fragments = ()
    partitions_scanned = 0
    partitions_total = 0
    prune_fraction = 1.0

    if cover is not None:
        fragments, (scan_pages, __) = cover
        fetch_pages = scan_pages

    if horizontal is not None:
        prune_fraction, partitions_scanned = _prune(bound_query, alias, table, horizontal)
        partitions_total = horizontal.partition_count
        rows *= prune_fraction
        scan_pages = max(1.0, scan_pages * prune_fraction)
        fetch_pages = max(1.0, fetch_pages * prune_fraction)

    return RelationGeometry(
        table=table,
        alias=alias,
        rows=rows,
        scan_pages=max(1.0, scan_pages),
        fetch_pages=max(1.0, fetch_pages),
        fragments=fragments,
        partitions_scanned=partitions_scanned,
        partitions_total=partitions_total,
        prune_fraction=prune_fraction,
    )


def _prune(bound_query, alias, table, horizontal):
    """Fraction of rows in partitions surviving predicate pruning."""
    low = high = None
    for f in bound_query.filters_for(alias):
        if f.column != horizontal.column:
            continue
        if f.kind == "eq":
            low = high = f.value
            break
        if f.kind == "range":
            low, high = f.low, f.high
            break
        if f.kind == "in" and f.values:
            low, high = min(f.values), max(f.values)
            break
    matching = horizontal.matching_partitions(low, high)
    if len(matching) >= horizontal.partition_count:
        return 1.0, horizontal.partition_count
    stats = table.stats(horizontal.column)
    fraction = 0.0
    for i in matching:
        p_low, p_high = horizontal.partition_range(i)
        fraction += stats.range_fraction(p_low, p_high, high_inclusive=False)
    return clamp(fraction, 0.0, 1.0), len(matching)


# ----------------------------------------------------------------------
# Index/filter matching.
# ----------------------------------------------------------------------


@dataclass(slots=True)
class IndexMatch:
    """Result of matching filters (and join-key probes) to an index prefix."""

    boundary_filters: tuple  # real BoundFilters consumed as boundary conds
    param_columns: tuple  # join columns treated as equality probes
    residual_filters: tuple  # remaining quals, checked after the fetch
    eq_prefix: int  # leading key columns bound by equality
    boundary_selectivity: float
    ordering_columns: tuple  # key columns that still order the output
    boundary_positions: tuple  # of the boundary filters in the context's
    residual_positions: tuple  # ... and of the residual ones


@dataclass(slots=True, frozen=True)
class _Match:
    """What :func:`_match_index` reads of no constant, per (alias of a
    template, index columns, probed columns): filter positions, probes
    and the order of the selectivity product's factors — ``(position,
    None)`` a filter's, ``(None, column)`` a probe's."""

    boundary: tuple
    params: tuple
    residual: tuple
    eq_prefix: int
    factors: tuple
    ordering: tuple


def _match_shape(filter_shape, index_columns, param_columns):
    """Greedy prefix match of sargable filters — ``(column, kind)`` per
    filter — against *index_columns*: equality conditions (including
    parameterized join probes) extend the prefix; the first range/IN
    condition closes it.  Everything unmatched becomes a residual."""
    by_column = {}
    for pos, (column, kind) in enumerate(filter_shape):
        by_column.setdefault(column, []).append((pos, kind))
    params_available = set(param_columns)

    boundary = []
    used_params = []
    factors = []
    eq_prefix = 0
    for key_col in index_columns:
        candidates = by_column.get(key_col, ())
        eq = next((pos for pos, kind in candidates if kind == "eq"), None)
        if eq is not None:
            boundary.append(eq)
            factors.append((eq, None))
            eq_prefix += 1
            continue
        if key_col in params_available:
            used_params.append(key_col)
            factors.append((None, key_col))
            eq_prefix += 1
            continue
        closing = next(
            (pos for pos, kind in candidates if kind in ("range", "in")), None
        )
        if closing is not None:
            boundary.append(closing)
            factors.append((closing, None))
        break
    return _Match(
        boundary=tuple(boundary),
        params=tuple(used_params),
        residual=tuple(
            pos for pos in range(len(filter_shape)) if pos not in boundary
        ),
        eq_prefix=eq_prefix,
        factors=tuple(factors),
        ordering=tuple(index_columns[eq_prefix:]),
    )


def _match_index(ctx, index, param_columns):
    """*index* matched against *ctx*'s filters (and join-key probes on
    *param_columns*): the template's match structure, memoized on the
    scan shape, filled with this context's filters and selectivities —
    the product taken in the order the match consumed them."""
    shape = ctx.shape
    key = (index.columns, param_columns)
    match = shape.matches.get(key)
    if match is None:
        match = shape.matches[key] = _match_shape(
            shape.filters, index.columns, param_columns
        )
    sels, filters = ctx.sels, ctx.filters
    sel = 1.0
    for pos, column in match.factors:
        sel *= (sels[pos] if column is None
                else equality_fraction(ctx.geometry.table, column))
    return IndexMatch(
        boundary_filters=tuple([filters[pos] for pos in match.boundary]),
        param_columns=match.params,
        residual_filters=tuple([filters[pos] for pos in match.residual]),
        eq_prefix=match.eq_prefix,
        boundary_selectivity=clamp(sel, 0.0, 1.0),
        ordering_columns=match.ordering,
        boundary_positions=match.boundary,
        residual_positions=match.residual,
    )


# ----------------------------------------------------------------------
# Cost helpers.
# ----------------------------------------------------------------------


def mackert_lohman_pages(total_pages, tuples_fetched):
    """Expected distinct heap pages touched when fetching *tuples_fetched*
    random tuples from a *total_pages* heap (Mackert & Lohman)."""
    T = max(1.0, float(total_pages))
    N = max(0.0, float(tuples_fetched))
    if N <= 0.0:
        return 0.0
    pages = (2.0 * T * N) / (2.0 * T + N)
    return min(pages, T)


def _descent_cost(table_rows, height, settings):
    log_term = math.ceil(math.log2(max(2.0, table_rows)))
    return (
        log_term * settings.cpu_operator_cost
        + (height + 1) * 50.0 * settings.cpu_operator_cost
    )


def _output_width(bound_query, alias):
    table = bound_query.table_for(alias)
    needed = bound_query.referenced_columns(alias)
    if not needed:
        return 8
    return max(1, table.row_width(sorted(needed)))


# ----------------------------------------------------------------------
# Path construction.
# ----------------------------------------------------------------------

_MISSING = object()


@dataclass(slots=True, eq=False)
class ScanContext:
    """Everything about pricing one table reference that does not depend
    on the secondary-index set: geometry, the filter set with per-filter
    selectivities, and the output shape — a pure function of (bound
    query, alias, the vertical layout's cover, horizontal partitioning).
    The fields that read no constant (``needed``, ``eq_columns``,
    ``boundary_columns``, ``interesting``, ``width``) are the template's
    :class:`_ScanShape`, shared by every instance of the statement.
    Compared and hashed by identity: the plan memo keys on *which*
    context a plan was priced from (:func:`plan_inputs`).

    The context also memoizes what has been priced under it (pure
    per-index functions), so a fresh configuration only prices the
    indexes this (query, alias) has never seen; memoized plan nodes are
    shared and never mutated.  It is never re-validated: a table's
    statistics are fixed once built (:class:`~repro.catalog.table.Table`).
    Its memos are rows of :mod:`repro.evaluation.memos`: extend those
    rather than adding private path caches.
    """

    geometry: RelationGeometry
    shape: object  # the template's _ScanShape for this alias
    needed: frozenset  # columns the query references (index-only eligibility)
    filters: tuple
    sels: tuple  # each filter's selectivity, by position
    eq_columns: tuple  # columns bound by an equality filter
    boundary_columns: tuple  # columns with any sargable (eq/range/in) filter
    # Columns whose order helps an operator above the scan (ORDER BY,
    # GROUP BY, merge-joinable): the planner's interesting columns.
    interesting: frozenset
    sel_all: float
    rows_out: float
    width: int
    _priced: dict = field(default_factory=dict)  # settings -> path memo

    @property
    def table(self):
        return self.geometry.table

    def _memo(self, settings):
        memo = self._priced.get(settings)
        if memo is None:
            memo = self._priced.setdefault(settings, {})
        return memo


def scan_context(bound_query, alias, catalog):
    """The :class:`ScanContext` for one table reference, memoized on the
    bound query.

    Only the relation geometry depends on *catalog*, and only through
    the vertical layout's cover (:func:`layout_cover`) and the
    horizontal partitioning — so those two are the memo key:
    secondary-index-only overlays (a candidate design view) share the
    base catalog's context, and so do layouts that differ only in
    fragments this reference does not read.  The key is the cover
    itself, not its geometry, because the memoized plan nodes *name*
    the fragments.
    """
    table_name = bound_query.table_for(alias).name
    layout = catalog.vertical_layout(table_name)
    cover = None if layout is None else layout_cover(bound_query, alias, layout)
    key = (
        alias,
        None if cover is None else cover[0],
        catalog.horizontal_partitioning(table_name),
    )
    ctx = bound_query.scan_contexts.get(key)
    if ctx is None:
        ctx = bound_query.scan_contexts[key] = _build_context(
            bound_query, alias, cover, key[2]
        )
    return ctx


def forget_indexes(bound_query, indexes):
    """Drop what *bound_query*'s contexts priced for *indexes* (a set)
    from the memo table's ``RELEASE`` rows.  For callers that price
    one-shot hypothetical indexes in bulk — an INUM build's covering
    indexes, a solver's candidate pool — so the memo keeps what recurs
    instead of growing with every candidate ever considered; an index
    that does come back costs one re-price.
    """
    from repro.evaluation import memos

    # list(...) snapshots: other threads may be pricing into the memo.
    contexts = list(bound_query.scan_contexts.values())
    for row in memos.rows(memos.RELEASE):
        for ctx in contexts:
            for memo in list(getattr(ctx, row.attr).values()):
                for key in list(memo):
                    if (key[0] if type(key) is tuple else key) in indexes:
                        memo.pop(key, None)


@dataclass(slots=True, eq=False)
class _ScanShape:
    """The half of a :class:`ScanContext` that reads no constant, per
    alias of a statement template, with what is derived from it alone:
    :func:`_match_index`'s structures and :func:`reach_columns`' lead
    sets."""

    needed: frozenset
    filters: tuple  # (column, kind) per filter, in filter order
    eq_columns: tuple
    boundary_columns: tuple
    interesting: frozenset
    width: int
    matches: dict  # (index columns, probed columns) -> _Match
    leads: dict  # (interesting columns, probed columns) -> lead columns


def _scan_shape(bound_query, alias):
    """A template part: *alias*'s :class:`_ScanShape`."""
    filters = bound_query.filters_for(alias)
    join_columns = [
        clause.side_for(alias)[0] for clause in bound_query.joins_for(alias)
    ]
    group_columns = [c for a, c in bound_query.group_by if a == alias]
    order_columns = [c for a, c, __ in bound_query.order_by if a == alias]
    return _ScanShape(
        needed=bound_query.referenced_columns(alias),
        filters=tuple((f.column, f.kind) for f in filters),
        eq_columns=tuple(f.column for f in filters if f.kind == "eq"),
        boundary_columns=tuple(f.column for f in filters if f.sargable),
        interesting=frozenset(join_columns + group_columns + order_columns),
        width=_output_width(bound_query, alias),
        matches={},
        leads={},
    )


def _build_context(bound_query, alias, cover, horizontal):
    """The numbers pass of a context: geometry and per-filter
    selectivities over the template's scan shape."""
    shape = bound_query.template.part(_scan_shape, bound_query, alias)
    geometry = relation_geometry(bound_query, alias, cover, horizontal)
    table = geometry.table
    filters = bound_query.filters_for(alias)
    sels = tuple([filter_selectivity(f, table) for f in filters])
    sel_all = 1.0  # == conjunction_selectivity(filters, table)
    for sel in sels:
        sel_all *= sel
    sel_all = clamp(sel_all, 0.0, 1.0)
    # No reference back to the bound query: it owns this context, and a
    # cycle would leave dropped memos to the cyclic collector.
    return ScanContext(
        geometry=geometry,
        shape=shape,
        needed=shape.needed,
        filters=filters,
        sels=sels,
        eq_columns=shape.eq_columns,
        boundary_columns=shape.boundary_columns,
        interesting=shape.interesting,
        sel_all=sel_all,
        rows_out=max(1.0, geometry.rows * sel_all),
        width=shape.width,
    )


def sequential_path(ctx, settings):
    """The sequential-scan path for one context."""
    memo = ctx._memo(settings)
    path = memo.get(None)
    if path is None:
        path = memo[None] = _sequential_path(ctx, settings)
    return path


def offers_scan_paths(ctx, index, interesting_columns=()):
    """False when *index* cannot contribute a path or a BitmapAnd arm
    under *ctx*: its leading column carries no boundary condition and no
    useful order, so there is nothing to price."""
    lead = index.columns[0]
    return lead in ctx.boundary_columns or lead in interesting_columns


def offers_probe_path(ctx, index, param_columns):
    """False when *index*'s key prefix closes before reaching a probe
    column, so it cannot serve a nested-loop inner on *param_columns*."""
    lead = index.columns[0]
    return lead in param_columns or lead in ctx.eq_columns


def reaching_indexes(ctx, indexes, interesting_columns=(), param_columns=()):
    """The members of *indexes*, order kept, that reach *ctx*'s table
    reference — the set form of the two predicates above.  A probe
    (*param_columns* given: a nested-loop inner) is reached through
    :func:`offers_probe_path`, a scan through :func:`offers_scan_paths`.

    An index outside this projection contributes no path, arm or probe,
    so it cannot change a plan or a slot cost: the planner's plan memo
    (:func:`plan_inputs`) and INUM's slot memo
    (``inum/cache.py:_slot_key``) key on the projection, not on the
    design.  For a whole plan the scan form over ``ctx.interesting``
    covers the probes as well — every probed column is a join column,
    hence interesting, and every equality column is a boundary column.
    """
    leads = reach_columns(ctx, interesting_columns, param_columns)
    return tuple([ix for ix in indexes if ix.columns[0] in leads])


def reach_columns(ctx, interesting_columns=(), param_columns=()):
    """The column form of the same rule, for callers holding indexes
    keyed by lead column (CoPhy's option builder): ``index.columns[0] in
    reach_columns(...)`` is :func:`offers_probe_path` for a probe
    (*param_columns* given), :func:`offers_scan_paths` for a scan.  The
    set reads no constant, so the template's scan shape keeps it."""
    key = (
        frozenset(interesting_columns) if type(interesting_columns) is set
        else interesting_columns,
        tuple(param_columns),
    )
    leads = ctx.shape.leads.get(key)
    if leads is None:
        leads = ctx.shape.leads[key] = frozenset(
            (*param_columns, *ctx.eq_columns) if param_columns
            else (*ctx.boundary_columns, *interesting_columns)
        )
    return leads


def plan_inputs(bound_query, catalog):
    """Everything :func:`~repro.optimizer.planner.plan_query` reads of
    *catalog*: per alias, in ``FROM`` order, the current
    :class:`ScanContext` and the catalog's indexes that reach it
    (:func:`reaching_indexes`, catalog order kept — path enumeration
    order decides cost ties).

    Two designs with equal inputs plan identically, so ``(settings,
    inputs)`` keys the exact-path plan memo that
    :meth:`~repro.optimizer.service.CostService.plan` keeps in
    :attr:`BoundQuery.plan_memo`: a design that adds nothing this
    statement can use is answered with the very plan object an earlier
    design produced.
    """
    inputs = []
    for alias, table in bound_query.tables.items():
        ctx = scan_context(bound_query, alias, catalog)
        inputs.append((ctx, reaching_indexes(
            ctx, catalog.indexes_on(table.name), ctx.interesting
        )))
    return tuple(inputs)


def index_path_group(ctx, index, settings, interesting_columns=()):
    """One index's non-parameterized paths under *ctx*.

    Returns ``(paths, arm)`` where *paths* is a tuple and *arm* is the
    ``(index, match)`` pair usable as a BitmapAnd arm (or ``None``).
    Pure per-index function: the group an index contributes to
    :func:`scan_paths` is independent of which other indexes the catalog
    holds (only the combining BitmapAnd path couples indexes) — which is
    what lets the context memoize it per (index, settings).
    """
    if not offers_scan_paths(ctx, index, interesting_columns):
        return (), None  # nothing worth remembering about this index
    memo = ctx._memo(settings)
    entry = memo.get(index)
    if entry is None:
        match = _match_index(ctx, index, ())
        entry = memo[index] = (
            tuple(_index_paths(ctx, index, match, settings)),
            (index, match) if match.boundary_filters else None,
        )
    return entry


def parameterized_path_for(ctx, index, settings, param_columns):
    """One index's parameterized probe path under *ctx* (or ``None``),
    memoized per (index, settings, probed columns)."""
    if not offers_probe_path(ctx, index, param_columns):
        return None
    memo = ctx._memo(settings)
    key = (index, tuple(param_columns))
    path = memo.get(key, _MISSING)
    if path is _MISSING:
        path = memo[key] = _parameterized_path(
            ctx, index, settings, param_columns
        )
    return path


def _parameterized_path(ctx, index, settings, param_columns):
    match = _match_index(ctx, index, tuple(param_columns))
    if not match.param_columns:
        return None
    sels = ctx.sels
    sel_all = match.boundary_selectivity
    for pos in match.residual_positions:
        sel_all *= sels[pos]
    rows_out = max(1e-9, ctx.geometry.rows * sel_all)
    return _index_scan_cost(
        ctx, index, match, settings, rows_out, parameterized=True
    )


def access_paths(ctx, indexes, settings, interesting_columns=()):
    """All non-parameterized access paths of *ctx* over *indexes*."""
    paths = [sequential_path(ctx, settings)]
    arm_candidates = []  # (index, match) pairs usable as BitmapAnd arms
    for index in indexes:
        group, arm = index_path_group(ctx, index, settings, interesting_columns)
        if arm is not None:
            arm_candidates.append(arm)
        paths.extend(group)
    and_path = bitmap_and_path(ctx, arm_candidates, settings)
    if and_path is not None:
        paths.append(and_path)
    return paths


def probe_paths(ctx, indexes, settings, param_columns):
    """Index paths probing *ctx*'s relation by equality on *param_columns*
    (inner side of an index nested loop).  Costs and rows are per outer
    probe."""
    if not param_columns:
        return []
    paths = []
    for index in indexes:
        path = parameterized_path_for(ctx, index, settings, param_columns)
        if path is not None:
            paths.append(path)
    return paths


def scan_paths(bound_query, alias, catalog, settings, interesting_columns=()):
    """All non-parameterized access paths for *alias*."""
    ctx = scan_context(bound_query, alias, catalog)
    return access_paths(
        ctx, catalog.indexes_on(ctx.table.name), settings, interesting_columns
    )


def parameterized_paths(bound_query, alias, catalog, settings, param_columns):
    """:func:`probe_paths` for *alias* over the catalog's indexes."""
    if not param_columns:
        return []
    ctx = scan_context(bound_query, alias, catalog)
    return probe_paths(
        ctx, catalog.indexes_on(ctx.table.name), settings, param_columns
    )


def _sequential_path(ctx, settings):
    geometry = ctx.geometry
    filters = ctx.filters
    table = geometry.table
    n_quals = len(filters)
    io = settings.seq_page_cost * geometry.scan_pages
    cpu = (
        settings.cpu_tuple_cost * geometry.rows
        + settings.cpu_operator_cost * n_quals * geometry.rows
    )
    stitch = 0.0
    if len(geometry.fragments) > 1:
        # Positional stitch of k fragments: one extra comparison per row per
        # extra fragment (fragments are co-ordered by row id).
        stitch = (
            settings.cpu_operator_cost * (len(geometry.fragments) - 1) * geometry.rows
        )
    total = io + cpu + stitch

    if geometry.fragments:
        return FragmentScan(
            startup_cost=0.0,
            total_cost=total,
            rows=ctx.rows_out,
            width=ctx.width,
            table_name=table.name,
            alias=geometry.alias,
            fragments=geometry.fragments,
            filters=tuple(filters),
        )
    if geometry.partitions_total:
        return AppendScan(
            startup_cost=0.0,
            total_cost=total,
            rows=ctx.rows_out,
            width=ctx.width,
            table_name=table.name,
            alias=geometry.alias,
            partitions_scanned=geometry.partitions_scanned,
            partitions_total=geometry.partitions_total,
        )
    return SeqScan(
        startup_cost=0.0,
        total_cost=total,
        rows=ctx.rows_out,
        width=ctx.width,
        table_name=table.name,
        alias=geometry.alias,
        filters=tuple(filters),
    )


def _index_paths(ctx, index, match, settings):
    paths = []
    plain = _index_scan_cost(
        ctx, index, match, settings, ctx.rows_out, parameterized=False
    )
    if plain is not None:
        paths.append(plain)
        if plain.ordering:
            # Btrees scan backward at the same cost: offer the descending
            # ordering too (serves ORDER BY ... DESC without a sort).
            # Built field by field: dataclasses.replace re-reads every
            # field through introspection, on a path priced per index.
            paths.append(IndexScan(
                startup_cost=plain.startup_cost,
                total_cost=plain.total_cost,
                rows=plain.rows,
                width=plain.width,
                ordering=tuple((a, c, False) for a, c, __ in plain.ordering),
                table_name=plain.table_name,
                alias=plain.alias,
                index=index,
                index_filters=plain.index_filters,
                heap_filters=plain.heap_filters,
                index_only=plain.index_only,
                is_parameterized=plain.is_parameterized,
                param_columns=plain.param_columns,
                backward=True,
            ))
    bitmap = _bitmap_path(ctx, index, match, settings)
    if bitmap is not None:
        paths.append(bitmap)
    return paths


def _index_scan_cost(ctx, index, match, settings, rows_out, parameterized):
    geometry = ctx.geometry
    table = geometry.table
    alias = geometry.alias
    needed = ctx.needed
    sel_index = match.boundary_selectivity
    tuples = max(1e-9, geometry.rows * sel_index)

    total_pages, height, leaf_pages = index.shape(table)
    if settings.assume_zero_size_indexes:
        total_pages, height, leaf_pages = 1, 0, 1
    startup = _descent_cost(table.row_count, height, settings)

    leaf_visited = max(1.0, math.ceil(sel_index * leaf_pages * geometry.prune_fraction))
    index_io = settings.random_page_cost + (leaf_visited - 1.0) * settings.seq_page_cost
    if settings.assume_zero_size_indexes:
        index_io = 0.0
    index_cpu = settings.cpu_index_tuple_cost * tuples + settings.cpu_operator_cost * max(
        1, len(match.boundary_filters) + len(match.param_columns)
    ) * tuples

    index_only = index.covers(needed) and not parameterized
    if index_only:
        # Heap fetches happen only for tuples on pages the visibility map
        # does not mark all-visible — cap the Mackert-Lohman estimate by
        # that page fraction, as PostgreSQL's cost_index does.
        invisible = tuples * (1.0 - INDEX_ONLY_VISIBLE_FRAC)
        heap_pages = min(
            mackert_lohman_pages(geometry.fetch_pages, invisible),
            (1.0 - INDEX_ONLY_VISIBLE_FRAC) * geometry.fetch_pages + 1.0,
        )
        heap_io = heap_pages * settings.random_page_cost
    else:
        T = geometry.fetch_pages
        max_pages = mackert_lohman_pages(T, tuples)
        max_io = max_pages * settings.random_page_cost
        min_pages = max(1.0, math.ceil(sel_index * T))
        min_io = settings.random_page_cost + (min_pages - 1.0) * settings.seq_page_cost
        corr = table.stats(index.columns[0]).correlation
        c2 = corr * corr
        heap_io = c2 * min_io + (1.0 - c2) * max_io

    heap_cpu = settings.cpu_tuple_cost * tuples + settings.cpu_operator_cost * len(
        match.residual_filters
    ) * tuples

    total = startup + index_io + index_cpu + heap_io + heap_cpu

    ordering = tuple((alias, col, True) for col in match.ordering_columns)
    return IndexScan(
        startup_cost=startup,
        total_cost=total,
        rows=rows_out,
        width=ctx.width,
        ordering=ordering,
        table_name=table.name,
        alias=alias,
        index=index,
        index_filters=match.boundary_filters,
        heap_filters=match.residual_filters,
        index_only=index_only,
        is_parameterized=parameterized,
        param_columns=match.param_columns,
    )


def bitmap_and_path(ctx, arm_candidates, settings):
    """Combine the two most selective single-index arms with a BitmapAnd
    (``None`` when fewer than two arms qualify).

    Each arm must bind a *different* leading column, so the combined
    boundary selectivity is the product and the heap is visited once.
    """
    geometry = ctx.geometry
    arms = []
    seen_columns = set()
    for index, match in sorted(
        arm_candidates, key=lambda im: im[1].boundary_selectivity
    ):
        if not match.boundary_filters:
            continue
        lead = match.boundary_filters[0]
        if lead.column in seen_columns:
            continue
        seen_columns.add(lead.column)
        arms.append((index, lead, ctx.sels[match.boundary_positions[0]]))
        if len(arms) == 2:
            break
    if len(arms) < 2:
        return None

    table = geometry.table
    sel_combined = 1.0
    index_cost = 0.0
    for index, lead, sel in arms:
        sel_combined *= sel
        total_pages, height, leaf_pages = index.shape(table)
        if settings.assume_zero_size_indexes:
            height, leaf_pages = 0, 1
        arm_tuples = max(1e-9, geometry.rows * sel)
        leaf_visited = max(1.0, math.ceil(sel * leaf_pages * geometry.prune_fraction))
        arm_io = 0.0 if settings.assume_zero_size_indexes else (
            settings.random_page_cost + (leaf_visited - 1.0) * settings.seq_page_cost
        )
        index_cost += (
            _descent_cost(table.row_count, height, settings)
            + arm_io
            + settings.cpu_index_tuple_cost * arm_tuples
        )

    tuples = max(1e-9, geometry.rows * sel_combined)
    T = geometry.fetch_pages
    pages_fetched = max(1.0, mackert_lohman_pages(T, tuples))
    frac = clamp(pages_fetched / max(1.0, T), 0.0, 1.0)
    cost_per_page = settings.random_page_cost - (
        settings.random_page_cost - settings.seq_page_cost
    ) * math.sqrt(frac)
    heap_io = pages_fetched * cost_per_page

    arm_columns = {lead.column for __, lead, __ in arms}
    residual = tuple(f for f in ctx.filters if f.column not in arm_columns)
    heap_cpu = (
        settings.cpu_tuple_cost * tuples
        + 0.2 * settings.cpu_operator_cost * tuples  # two bitmap passes
        + settings.cpu_operator_cost * len(residual) * tuples
    )
    total = index_cost + heap_io + heap_cpu
    if not settings.enable_bitmapscan:
        total += DISABLE_COST
    return BitmapAndScan(
        startup_cost=index_cost,
        total_cost=total,
        rows=ctx.rows_out,
        width=ctx.width,
        table_name=table.name,
        alias=geometry.alias,
        indexes=tuple(index for index, __, __ in arms),
        arm_filters=tuple(lead for __, lead, __ in arms),
        heap_filters=residual,
    )


def _bitmap_path(ctx, index, match, settings):
    if not match.boundary_filters:
        return None  # a full-index bitmap scan is never useful
    geometry = ctx.geometry
    table = geometry.table
    sel_index = match.boundary_selectivity
    tuples = max(1e-9, geometry.rows * sel_index)

    total_pages, height, leaf_pages = index.shape(table)
    if settings.assume_zero_size_indexes:
        total_pages, height, leaf_pages = 1, 0, 1
    descent = _descent_cost(table.row_count, height, settings)
    leaf_visited = max(1.0, math.ceil(sel_index * leaf_pages * geometry.prune_fraction))
    index_io = settings.random_page_cost + (leaf_visited - 1.0) * settings.seq_page_cost
    if settings.assume_zero_size_indexes:
        index_io = 0.0
    index_cost = descent + index_io + settings.cpu_index_tuple_cost * tuples

    T = geometry.fetch_pages
    pages_fetched = max(1.0, mackert_lohman_pages(T, tuples))
    frac = clamp(pages_fetched / max(1.0, T), 0.0, 1.0)
    cost_per_page = settings.random_page_cost - (
        settings.random_page_cost - settings.seq_page_cost
    ) * math.sqrt(frac)
    heap_io = pages_fetched * cost_per_page
    heap_cpu = (
        settings.cpu_tuple_cost * tuples
        + 0.1 * settings.cpu_operator_cost * tuples
        + settings.cpu_operator_cost * len(match.residual_filters) * tuples
    )

    total = index_cost + heap_io + heap_cpu
    if not settings.enable_bitmapscan:
        total += DISABLE_COST
    return BitmapHeapScan(
        startup_cost=index_cost,
        total_cost=total,
        rows=ctx.rows_out,
        width=ctx.width,
        table_name=table.name,
        alias=geometry.alias,
        index=index,
        index_filters=match.boundary_filters,
        heap_filters=match.residual_filters,
    )
