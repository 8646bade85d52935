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


def _always(total_cost, ordering):
    return True


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
    total += 0.0 if settings.enable_sort else DISABLE_COST
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


def materialize_path(child, settings):
    rows = max(1.0, child.rows)
    total = child.total_cost + 2.0 * settings.cpu_operator_cost * rows
    if not settings.enable_material:
        total += DISABLE_COST
    return Materialize(
        startup_cost=child.startup_cost,
        total_cost=total,
        rows=child.rows,
        width=child.width,
        ordering=child.ordering,
        children=(child,),
    )


def nestloop_path(outer, inner, join_clauses, rows_out, settings,
                  admits=_always):
    """Nested loop with *inner* rescanned per outer row.

    If the inner is parameterized its costs are already per probe; otherwise
    the rescan cost comes from :meth:`Plan.rescan_cost`.

    Like every join constructor here, the candidate is costed first and
    the node is built only if ``admits(total_cost, ordering)`` — the
    planner passes its path set's dominance test, so the (many)
    dominated candidates of join enumeration allocate nothing.
    """
    outer_rows = max(1.0, outer.rows)
    if inner.is_parameterized:
        run_cost = outer.total_cost + outer_rows * inner.total_cost
        pair_evals = outer_rows * max(1.0, inner.rows)
    else:
        run_cost = (
            outer.total_cost + inner.total_cost + (outer_rows - 1.0) * inner.rescan_cost()
        )
        pair_evals = outer_rows * max(1.0, inner.rows)
    clause_cpu = settings.cpu_operator_cost * max(1, len(join_clauses)) * pair_evals
    output_cpu = settings.cpu_tuple_cost * max(1.0, rows_out)
    total = run_cost + clause_cpu + output_cpu
    if not settings.enable_nestloop:
        total += DISABLE_COST
    if not admits(total, outer.ordering):
        return None
    return NestLoop(
        startup_cost=outer.startup_cost + inner.startup_cost,
        total_cost=total,
        rows=rows_out,
        width=outer.width + inner.width,
        ordering=outer.ordering,
        children=(outer, inner),
        join_clauses=tuple(join_clauses),
    )


def hashjoin_path(outer, inner, join_clauses, rows_out, settings,
                  admits=_always):
    """Hash join building on *inner*, probing with *outer*."""
    if not join_clauses:
        return None
    inner_rows = max(1.0, inner.rows)
    outer_rows = max(1.0, outer.rows)
    inner_bytes = inner_rows * (inner.width + TUPLE_OVERHEAD)
    batches = 1
    io = 0.0
    if inner_bytes > settings.work_mem:
        batches = 2 ** math.ceil(math.log2(inner_bytes / settings.work_mem))
        inner_pages = inner_bytes / PAGE_BYTES
        outer_pages = outer_rows * (outer.width + TUPLE_OVERHEAD) / PAGE_BYTES
        io = 2.0 * (inner_pages + outer_pages) * settings.seq_page_cost
    n_clauses = max(1, len(join_clauses))
    build_cpu = (settings.cpu_operator_cost * n_clauses + settings.cpu_tuple_cost) * inner_rows
    probe_cpu = settings.cpu_operator_cost * n_clauses * outer_rows
    output_cpu = settings.cpu_tuple_cost * max(1.0, rows_out)
    startup = inner.total_cost + build_cpu + outer.startup_cost
    total = outer.total_cost + inner.total_cost + build_cpu + probe_cpu + output_cpu + io
    if not settings.enable_hashjoin:
        total += DISABLE_COST
    if not admits(total, ()):
        return None
    return HashJoin(
        startup_cost=startup,
        total_cost=total,
        rows=rows_out,
        width=outer.width + inner.width,
        ordering=(),
        children=(outer, inner),
        join_clauses=tuple(join_clauses),
        batches=batches,
    )


def mergejoin_path(outer, inner, join_clauses, merge_keys_outer, merge_keys_inner,
                   rows_out, settings, admits=_always):
    """Merge join; an input not already ordered on its merge keys gets an
    explicit Sort (a Sort keeps its child's rows and width)."""
    if not join_clauses:
        return None
    sort_outer = not ordering_satisfies(outer.ordering, merge_keys_outer)
    sort_inner = not ordering_satisfies(inner.ordering, merge_keys_inner)
    outer_total = sort_cost(outer, settings)[1] if sort_outer else outer.total_cost
    inner_total = sort_cost(inner, settings)[1] if sort_inner else inner.total_cost
    outer_rows = max(1.0, outer.rows)
    inner_rows = max(1.0, inner.rows)
    n_clauses = max(1, len(join_clauses))
    scan_cpu = settings.cpu_operator_cost * n_clauses * (outer_rows + inner_rows * 1.1)
    output_cpu = settings.cpu_tuple_cost * max(1.0, rows_out)
    total = outer_total + inner_total + scan_cpu + output_cpu
    if not settings.enable_mergejoin:
        total += DISABLE_COST
    ordering = tuple(merge_keys_outer) if sort_outer else outer.ordering
    if not admits(total, ordering):
        return None
    if sort_outer:
        outer = sort_path(outer, merge_keys_outer, settings)
    if sort_inner:
        inner = sort_path(inner, merge_keys_inner, settings)
    return MergeJoin(
        startup_cost=max(outer.startup_cost, inner.startup_cost),
        total_cost=total,
        rows=rows_out,
        width=outer.width + inner.width,
        ordering=outer.ordering,
        children=(outer, inner),
        join_clauses=tuple(join_clauses),
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
