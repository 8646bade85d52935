"""Candidate index generation from a workload.

Mines the bound queries for indexable columns and emits:

* single-column indexes on every sargable filter, join, grouping and
  ordering column,
* two-column composites pairing equality columns with range/join columns
  from the same query (the classic "merge eligible prefixes" rule),
* optionally, covering variants (key + INCLUDE of the query's referenced
  columns) that enable index-only scans.

Candidates are scored by the summed weight of the queries they could
serve.  :class:`CandidateGenerator` is the lazy surface: mining
aggregates votes on lightweight ``(table, columns, include)`` keys, the
ranked order streams through a heap, and :class:`~repro.catalog.Index`
objects are only constructed for candidates actually taken — so a
million-key candidate space costs tuples and heap pops, not a
materialized cross-product of catalog objects.  :func:`candidate_indexes`
keeps the classic eager facade (``generator.take(max_candidates)``).

Mining binds each statement once, through ``bind`` — the advisors pass
their cost model's :meth:`~repro.inum.InumCostModel.bound`, so a
statement is parsed once per backplane; without one, statements are
bound afresh and nothing is kept (this module holds no state).
"""

import heapq
from functools import partial

from repro.catalog import Index
from repro.sql.binder import BoundWrite, bind_statement
from repro.util import workload_pairs

MAX_INCLUDE_COLUMNS = 6


def _index_name(table_name, columns, include):
    """The auto-generated name ``Index(table, columns, include)`` would
    carry — the rank tie-breaker, computed without constructing the
    index (pinned against :class:`~repro.catalog.Index` by the tests)."""
    suffix = "_".join(columns)
    if include:
        suffix += "_inc_" + "_".join(include)
    return "ix_%s_%s" % (table_name, suffix)


class CandidateGenerator:
    """Ranked candidate indexes, yielded lazily in score order.

    Ranking matches the classic eager enumeration exactly: descending
    summed vote weight, ties broken by the index's auto-generated name.
    ``take(n)`` memoizes the emitted prefix, so interleaved ``take``
    calls (colgen growing its active set) never re-mine or re-rank.
    ``bind`` maps a statement to its bound form (a cost model's
    ``bound``); the default binds against *catalog* and keeps nothing.
    """

    def __init__(self, catalog, workload, include_covering=True,
                 composite_pairs=True, bind=None):
        self.catalog = catalog
        self.workload = workload
        self.include_covering = include_covering
        self.composite_pairs = composite_pairs
        self._bind = bind or partial(bind_statement, catalog=catalog)
        self._heap = None  # (-score, name, key) entries, heapified
        self._emitted = []  # Index objects in rank order
        self._scores = None  # key -> summed vote weight

    # -- mining --------------------------------------------------------

    def _vote(self, scores, table_name, columns, weight, include=()):
        key = (table_name, tuple(columns), tuple(include))
        scores[key] = scores.get(key, 0.0) + weight

    def _mine(self):
        """Aggregate votes over the workload (once, lazily)."""
        if self._scores is not None:
            return
        scores = {}
        for sql, weight in workload_pairs(self.workload):
            bq = self._bind(sql)
            if isinstance(bq, BoundWrite):
                # Writes only spawn locate-helping candidates; the
                # maintenance penalty side is handled by the BIP's write
                # terms.
                for f in bq.filters:
                    if f.sargable:
                        self._vote(scores, bq.table.name, (f.column,), weight)
                continue
            for alias in bq.aliases:
                table = bq.table_for(alias)
                referenced = bq.referenced_columns(alias)
                eq_cols, range_cols = [], []
                for f in bq.filters_for(alias):
                    if not f.sargable:
                        continue
                    bucket = eq_cols if f.kind in ("eq", "in") else range_cols
                    if f.column not in bucket:
                        bucket.append(f.column)
                join_cols = []
                for clause in bq.joins_for(alias):
                    col, __, __ = clause.side_for(alias)
                    if col not in join_cols:
                        join_cols.append(col)
                other_cols = []
                for a, c in bq.group_by:
                    if a == alias and c not in other_cols:
                        other_cols.append(c)
                for a, c, __ in bq.order_by:
                    if a == alias and c not in other_cols:
                        other_cols.append(c)

                for col in eq_cols + range_cols + join_cols + other_cols:
                    self._vote(scores, table.name, (col,), weight)

                if self.composite_pairs:
                    for eq in eq_cols:
                        for second in range_cols + join_cols + other_cols:
                            if second != eq:
                                self._vote(
                                    scores, table.name, (eq, second), weight
                                )
                    for i, eq1 in enumerate(eq_cols):
                        for eq2 in eq_cols[i + 1:]:
                            self._vote(
                                scores, table.name, (eq1, eq2), weight
                            )
                    for join_col in join_cols:
                        for second in range_cols:
                            self._vote(
                                scores, table.name, (join_col, second), weight
                            )

                if (self.include_covering
                        and len(referenced) <= MAX_INCLUDE_COLUMNS + 1):
                    for col in eq_cols + range_cols + join_cols:
                        rest = tuple(sorted(referenced - {col}))
                        if rest:
                            self._vote(
                                scores, table.name, (col,), weight,
                                include=rest,
                            )
        self._scores = scores
        self._heap = [
            (-score, _index_name(table, columns, include),
             (table, columns, include))
            for (table, columns, include), score in scores.items()
        ]
        heapq.heapify(self._heap)

    # -- ranked emission -----------------------------------------------

    @property
    def n_candidates(self):
        """Distinct candidates the workload votes for."""
        self._mine()
        return len(self._scores)

    def take(self, n):
        """The first *n* candidates in rank order (all of them when the
        space is smaller); the emitted prefix is memoized."""
        self._mine()
        while len(self._emitted) < n and self._heap:
            __, name, (table, columns, include) = heapq.heappop(self._heap)
            self._emitted.append(
                Index(table, columns, include=include, name=name)
            )
        return list(self._emitted[:n])

    def __iter__(self):
        pos = 0
        while True:
            batch = self.take(pos + 1)
            if len(batch) <= pos:
                return
            yield batch[pos]
            pos += 1


def candidate_indexes(
    catalog,
    workload,
    max_candidates=60,
    include_covering=True,
    composite_pairs=True,
    bind=None,
):
    """Return candidate :class:`Index` objects, highest-scored first."""
    return CandidateGenerator(
        catalog,
        workload,
        include_covering=include_covering,
        composite_pairs=composite_pairs,
        bind=bind,
    ).take(max_candidates)
