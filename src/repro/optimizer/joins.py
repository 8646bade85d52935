"""Join, sort, materialize and aggregate cost construction.

The shapes mirror PostgreSQL: nested loops pay the inner rescan cost per
outer row (parameterized index probes make this cheap), hash joins pay a
build+probe CPU cost and go multi-batch past ``work_mem``, merge joins
require sorted inputs and may add explicit Sort nodes.
"""

import math

from repro.optimizer.plan import (
    Aggregate,
    HashJoin,
    Limit,
    Materialize,
    MergeJoin,
    NestLoop,
    Sort,
)
from repro.optimizer.settings import DISABLE_COST
from repro.util import safe_log2

TUPLE_OVERHEAD = 24  # per-row memory overhead during sorts/hashes
PAGE_BYTES = 8192
MERGE_ORDER = 6  # polyphase merge fan-in for external sorts


def ordering_satisfies(provided, required):
    """True if pathkeys *provided* begin with *required*."""
    if not required:
        return True
    if len(provided) < len(required):
        return False
    return tuple(provided[: len(required)]) == tuple(required)


def sort_cost(child, settings):
    """``(startup_cost, total_cost, external)`` of sorting *child*."""
    rows = max(1.0, child.rows)
    bytes_needed = rows * (child.width + TUPLE_OVERHEAD)
    comparison = 2.0 * settings.cpu_operator_cost
    sort_cpu = comparison * rows * safe_log2(rows)
    io = 0.0
    external = bytes_needed > settings.work_mem
    if external:
        pages = max(1.0, bytes_needed / PAGE_BYTES)
        runs = max(2.0, bytes_needed / settings.work_mem)
        passes = max(1.0, math.ceil(math.log(runs) / math.log(MERGE_ORDER)))
        io = 2.0 * pages * passes * settings.seq_page_cost * 0.75
    startup = child.total_cost + sort_cpu + io
    total = startup + settings.cpu_operator_cost * rows
    return startup, total, external


def sort_path(child, sort_keys, settings):
    """Wrap *child* in a Sort producing *sort_keys* ordering."""
    startup, total, external = sort_cost(child, settings)
    return Sort(
        startup_cost=startup,
        total_cost=total,
        rows=child.rows,
        width=child.width,
        ordering=tuple(sort_keys),
        children=(child,),
        sort_keys=tuple(sort_keys),
        external=external,
    )


def materialize_cost(child, settings):
    """Total cost of materializing *child* (its startup is the child's)."""
    rows = max(1.0, child.rows)
    return child.total_cost + 2.0 * settings.cpu_operator_cost * rows


def materialize_path(child, settings):
    return Materialize(
        startup_cost=child.startup_cost,
        total_cost=materialize_cost(child, settings),
        rows=child.rows,
        width=child.width,
        ordering=child.ordering,
        children=(child,),
    )


# ----------------------------------------------------------------------
# Join costing: each method's formula, stated once and split into the
# part that reads one input and the part that reads the pair.
# ----------------------------------------------------------------------


class OuterTerms:
    """What the join costs read of one outer path
    (:meth:`JoinCosting.outer`)."""

    __slots__ = (
        "path",
        "rows",  # clamped to >= 1, like every row count a cost reads
        "total",
        "probe_cpu",  # hash join: one probe per outer row
        "hash_pages",  # hash join: what a multi-batch join spills
        "sorts",  # merge join: not ordered on the merge keys
        "merge_total",  # merge join: the total behind a Sort when it sorts
        "merge_ordering",  # merge join: the output ordering
    )


class InnerTerms:
    """What the join costs read of one inner path
    (:meth:`JoinCosting.inner`; :meth:`JoinCosting.probe` fills the
    nested-loop terms only)."""

    __slots__ = (
        "path",
        "rows",
        "total",
        "parameterized",  # costs are per probe
        "rescan",  # nested loop: one more pass over the inner
        # Nested loop over the materialized inner: its total and rescan
        # cost; ``mat_total`` is None when the inner is parameterized,
        # and so never materialized.  The node itself is
        # built by :meth:`JoinCosting.materialized` when a candidate
        # over it is admitted.
        "mat_total",
        "mat_rescan",
        "mat_path",
        "build_cpu",  # hash join: inserting every inner row
        "hash_bytes",  # hash join: the table's size; > work_mem spills
        "sorts",
        "merge_total",
        "merge_rows",  # merge join: rows scanned, mark/restore included
    )


class JoinCosting:
    """Costs and builds every join of a path of one relation subset
    (the outer) with a path of another (the inner): the clauses, the
    merge keys and the output cardinality are fixed, the paths vary.

    Join enumeration prices every (outer, inner) pair with every method
    and keeps few, so the split matters: :meth:`outer` / :meth:`inner`
    derive once per *path* everything a cost reads of that input alone
    (clamped rows, rescan cost, the materialized variant's totals, hash
    build CPU and bytes, the merge-sort flag and sorted total, the merge
    output ordering), the ``*_cost`` methods combine two inputs' terms
    into one candidate's total, and the node methods run only for a
    candidate the path set admits.  Each formula appears here and
    nowhere else.
    """

    __slots__ = (
        "settings", "clauses", "keys_outer", "keys_inner", "rows_out",
        "clause_cost", "output_cpu",
    )

    def __init__(self, join_clauses, merge_keys_outer, merge_keys_inner,
                 rows_out, settings):
        self.settings = settings
        self.clauses = tuple(join_clauses)
        self.keys_outer = tuple(merge_keys_outer)
        self.keys_inner = tuple(merge_keys_inner)
        self.rows_out = rows_out
        # Evaluating the clauses on one pair of rows / emitting the result.
        self.clause_cost = settings.cpu_operator_cost * max(1, len(self.clauses))
        self.output_cpu = settings.cpu_tuple_cost * max(1.0, rows_out)

    # -- per path -------------------------------------------------------

    def outer(self, path):
        settings = self.settings
        o = OuterTerms()
        o.path = path
        o.rows = rows = max(1.0, path.rows)
        o.total = path.total_cost
        o.probe_cpu = self.clause_cost * rows
        o.hash_pages = rows * (path.width + TUPLE_OVERHEAD) / PAGE_BYTES
        o.sorts = not ordering_satisfies(path.ordering, self.keys_outer)
        if o.sorts:
            o.merge_total = sort_cost(path, settings)[1]
            o.merge_ordering = self.keys_outer
        else:
            o.merge_total = path.total_cost
            o.merge_ordering = path.ordering
        return o

    def inner(self, path):
        settings = self.settings
        i = self.probe(path)  # the nested-loop terms every inner has
        rows = i.rows
        if not i.parameterized:
            i.rescan = path.rescan_cost()
            i.mat_total = materialize_cost(path, settings)
            i.mat_rescan = Materialize.rescan_cost_of(path.rows)
        i.build_cpu = (self.clause_cost + settings.cpu_tuple_cost) * rows
        i.hash_bytes = rows * (path.width + TUPLE_OVERHEAD)
        i.sorts = not ordering_satisfies(path.ordering, self.keys_inner)
        i.merge_total = (
            sort_cost(path, settings)[1] if i.sorts else path.total_cost
        )
        i.merge_rows = rows * 1.1
        return i

    def probe(self, path):
        """Terms of an inner that is only ever nested-looped: a
        parameterized index probe, whose costs are already per outer
        row."""
        i = InnerTerms()
        i.path = path
        i.rows = max(1.0, path.rows)
        i.total = path.total_cost
        i.parameterized = path.is_parameterized
        i.rescan = i.mat_total = i.mat_rescan = i.mat_path = None
        return i

    def materialized(self, i):
        """The Materialize over *i*'s path, one per inner."""
        if i.mat_path is None:
            i.mat_path = materialize_path(i.path, self.settings)
        return i.mat_path

    # -- per pair -------------------------------------------------------

    def nestloop_cost(self, o, i, inner_total, inner_rescan):
        """Nested loop of *o* over *i* read at (*inner_total*,
        *inner_rescan*): the inner's own pair or its materialized one.
        A parameterized inner's costs are already per probe; any other
        is run once and rescanned per further outer row."""
        if i.parameterized:
            run_cost = o.total + o.rows * inner_total
        else:
            run_cost = o.total + inner_total + (o.rows - 1.0) * inner_rescan
        total = run_cost + self.clause_cost * (o.rows * i.rows) + self.output_cpu
        if not self.settings.enable_nestloop:
            total += DISABLE_COST
        return total

    def hashjoin_cost(self, o, i):
        """Hash join building on *i*, probing with *o*; past ``work_mem``
        both sides are written out and read back once."""
        settings = self.settings
        io = 0.0
        if i.hash_bytes > settings.work_mem:
            io = (
                2.0 * (i.hash_bytes / PAGE_BYTES + o.hash_pages)
                * settings.seq_page_cost
            )
        total = o.total + i.total + i.build_cpu + o.probe_cpu + self.output_cpu + io
        if not settings.enable_hashjoin:
            total += DISABLE_COST
        return total

    def mergejoin_cost(self, o, i):
        """Merge join; an input not already ordered on its merge keys
        pays for an explicit Sort."""
        total = (
            o.merge_total + i.merge_total
            + self.clause_cost * (o.rows + i.merge_rows) + self.output_cpu
        )
        if not self.settings.enable_mergejoin:
            total += DISABLE_COST
        return total

    # -- nodes, for admitted candidates ---------------------------------

    def nestloop(self, o, inner, total):
        """The NestLoop of *o*'s path over the node *inner*."""
        outer = o.path
        return NestLoop(
            startup_cost=outer.startup_cost + inner.startup_cost,
            total_cost=total,
            rows=self.rows_out,
            width=outer.width + inner.width,
            ordering=outer.ordering,
            children=(outer, inner),
            join_clauses=self.clauses,
        )

    def hashjoin(self, o, i, total):
        outer, inner = o.path, i.path
        work_mem = self.settings.work_mem
        batches = 1
        if i.hash_bytes > work_mem:
            batches = 2 ** math.ceil(math.log2(i.hash_bytes / work_mem))
        return HashJoin(
            startup_cost=inner.total_cost + i.build_cpu + outer.startup_cost,
            total_cost=total,
            rows=self.rows_out,
            width=outer.width + inner.width,
            ordering=(),
            children=(outer, inner),
            join_clauses=self.clauses,
            batches=batches,
        )

    def mergejoin(self, o, i, total):
        """A Sort keeps its child's rows and width."""
        outer, inner = o.path, i.path
        if o.sorts:
            outer = sort_path(outer, self.keys_outer, self.settings)
        if i.sorts:
            inner = sort_path(inner, self.keys_inner, self.settings)
        return MergeJoin(
            startup_cost=max(outer.startup_cost, inner.startup_cost),
            total_cost=total,
            rows=self.rows_out,
            width=outer.width + inner.width,
            ordering=o.merge_ordering,
            children=(outer, inner),
            join_clauses=self.clauses,
        )


def aggregate_paths(child, bound_query, groups, settings):
    """Hash and (when ordering permits) sorted aggregation over *child*."""
    rows = max(1.0, child.rows)
    n_aggs = max(1, len(bound_query.aggregates))
    group_cols = bound_query.group_by
    out = []
    if not group_cols:
        total = (
            child.total_cost
            + settings.cpu_operator_cost * n_aggs * rows
            + settings.cpu_tuple_cost
        )
        out.append(
            Aggregate(
                startup_cost=total - settings.cpu_tuple_cost,
                total_cost=total,
                rows=1.0,
                width=8 * n_aggs,
                children=(child,),
                strategy="plain",
                n_aggregates=n_aggs,
            )
        )
        return out

    width = 8 * (len(group_cols) + n_aggs)
    transition = settings.cpu_operator_cost * (n_aggs + len(group_cols)) * rows
    # Hash aggregation: no input ordering needed, unordered output.
    hash_total = child.total_cost + transition + settings.cpu_tuple_cost * groups
    out.append(
        Aggregate(
            startup_cost=hash_total - settings.cpu_tuple_cost * groups,
            total_cost=hash_total,
            rows=groups,
            width=width,
            children=(child,),
            strategy="hash",
            group_columns=tuple(group_cols),
            n_aggregates=n_aggs,
        )
    )
    # Sorted aggregation: needs group-column ordering; preserves it.
    group_keys = tuple((a, c, True) for a, c in group_cols)
    sorted_child = child
    if not ordering_satisfies(child.ordering, group_keys):
        sorted_child = sort_path(child, group_keys, settings)
    sorted_total = sorted_child.total_cost + transition + settings.cpu_tuple_cost * groups
    out.append(
        Aggregate(
            startup_cost=sorted_child.total_cost,
            total_cost=sorted_total,
            rows=groups,
            width=width,
            ordering=group_keys,
            children=(sorted_child,),
            strategy="sorted",
            group_columns=tuple(group_cols),
            n_aggregates=n_aggs,
        )
    )
    return out


def limit_path(child, count, settings):
    """Apply LIMIT: pay startup plus the fetched fraction of run cost."""
    rows = max(1.0, child.rows)
    fraction = min(1.0, count / rows)
    total = child.startup_cost + (child.total_cost - child.startup_cost) * fraction
    return Limit(
        startup_cost=child.startup_cost,
        total_cost=total,
        rows=min(float(count), child.rows),
        width=child.width,
        ordering=child.ordering,
        children=(child,),
        count=count,
    )
