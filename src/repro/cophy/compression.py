"""Workload compression for the index advisor.

Tuning-tool inputs are often thousands of statements that differ only in
literals.  Since candidate generation, INUM interesting orders, and the
BIP structure all depend on a query's *shape* — tables, predicate columns
and kinds, join edges, grouping/ordering — not on its literals, queries
with identical shape can be clustered and replaced by one representative
carrying the cluster's total weight.

A shape is the statement's template key
(:func:`repro.sql.template.template_key`): its tokens with every number
and string literal masked, the key ``CostService`` files its statement
templates under.  A negative literal keeps its sign token, and an
``INSERT`` its row count, so either splits a cluster.

This is the standard advisor trick (used by DTA and assumed by CoPhy's
scalability argument): the BIP shrinks linearly in the compression ratio
while the recommended configuration stays (near-)identical because every
cluster member prices access paths the same way up to literal-dependent
selectivities, which the representative's weight averages out.
"""

from dataclasses import dataclass

from repro.sql.lexer import Lexer
from repro.sql.template import template_key
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


def compress_workload(workload):
    """Cluster by shape; returns ``(compressed_workload, stats)``.

    The representative of each cluster is its highest-weight member; the
    representative's weight is the cluster's total.
    """
    clusters = {}  # template key -> [total_weight, best_sql, best_weight]
    n_original = 0
    for entry in workload:
        sql, weight = entry if isinstance(entry, tuple) else (entry, 1.0)
        n_original += 1
        key = template_key(Lexer(sql).tokens())
        # First-seen order keeps the output deterministic.
        bucket = clusters.setdefault(key, [0.0, sql, -1.0])
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
