"""Workload compression for the index advisor.

Tuning-tool inputs are often thousands of statements that differ only in
literals.  Since candidate generation, INUM interesting orders, and the
BIP structure all depend on a query's *shape* — tables, predicate columns
and kinds, join edges, grouping/ordering — not on its literals, queries
with identical shape can be clustered and replaced by one representative
carrying the cluster's total weight.

This is the standard advisor trick (used by DTA and assumed by CoPhy's
scalability argument): the BIP shrinks linearly in the compression ratio
while the recommended configuration stays (near-)identical because every
cluster member prices access paths the same way up to literal-dependent
selectivities, which the representative's weight averages out.
"""

from dataclasses import dataclass

from repro.sql.binder import BoundWrite, bind_statement
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class CompressionStats:
    original_statements: int
    compressed_statements: int

    @property
    def ratio(self):
        if self.compressed_statements == 0:
            return 1.0
        return self.original_statements / self.compressed_statements


def query_signature(bound_query):
    """Shape signature: everything the advisor pipeline keys off."""
    if isinstance(bound_query, BoundWrite):
        return (
            "write",
            bound_query.kind,
            bound_query.table.name,
            tuple(sorted(bound_query.set_columns)),
            tuple(sorted((f.column, f.kind) for f in bound_query.filters)),
        )
    tables = tuple(sorted(t.name for t in bound_query.tables.values()))
    filters = []
    for alias in sorted(bound_query.filters):
        table = bound_query.table_for(alias).name
        for f in bound_query.filters_for(alias):
            filters.append((table, f.column, f.kind))
    joins = tuple(
        sorted(
            (
                min((j.left_table, j.left_column), (j.right_table, j.right_column)),
                max((j.left_table, j.left_column), (j.right_table, j.right_column)),
            )
            for j in bound_query.joins
        )
    )
    group = tuple(
        sorted(
            (bound_query.table_for(a).name, c) for a, c in bound_query.group_by
        )
    )
    order = tuple(
        (bound_query.table_for(a).name, c, asc)
        for a, c, asc in bound_query.order_by
    )
    referenced = tuple(
        sorted(
            (bound_query.table_for(a).name, tuple(sorted(bound_query.referenced_columns(a))))
            for a in bound_query.aliases
        )
    )
    return (
        tables,
        tuple(sorted(filters)),
        joins,
        group,
        order,
        bound_query.limit is not None,
        bound_query.is_aggregate,
        referenced,
    )


def compress_workload(catalog, workload):
    """Cluster by shape; returns ``(compressed_workload, stats)``.

    The representative of each cluster is its highest-weight member; the
    representative's weight is the cluster's total.
    """
    clusters = {}  # signature -> [total_weight, best_sql, best_weight]
    n_original = 0
    for entry in workload:
        sql, weight = entry if isinstance(entry, tuple) else (entry, 1.0)
        n_original += 1
        signature = query_signature(bind_statement(sql, catalog))
        # First-seen order keeps the output deterministic.
        bucket = clusters.setdefault(signature, [0.0, sql, -1.0])
        bucket[0] += weight
        if weight > bucket[2]:
            bucket[1], bucket[2] = sql, weight

    compressed = Workload()
    for cluster_weight, sql, __ in clusters.values():
        compressed.add(sql, cluster_weight)
    stats = CompressionStats(
        original_statements=n_original,
        compressed_statements=len(compressed),
    )
    return compressed, stats
