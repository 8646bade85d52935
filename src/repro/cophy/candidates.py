"""Candidate index generation from a workload.

Mines the bound queries for indexable columns and emits:

* single-column indexes on every sargable filter, join, grouping and
  ordering column,
* two-column composites pairing equality columns with range/join columns
  from the same query (the classic "merge eligible prefixes" rule),
* optionally, covering variants (key + INCLUDE of the query's referenced
  columns) that enable index-only scans.

Candidates are scored by the summed weight of the queries they could
serve.  Votes are counted on lightweight ``(table, columns, include)``
keys and ranked as keys, so :class:`~repro.catalog.Index` objects are
built only for the candidates returned — a large candidate space costs
tuples, not a materialized cross-product of catalog objects.  The keys
a statement votes for read no constant, so they are a part of its
template (:mod:`repro.sql.template`): listed once per statement shape.

Mining binds each statement once, through ``bind`` — the advisors pass
their evaluator's :meth:`~repro.evaluation.WorkloadEvaluator.bound`, so
a statement is parsed once per backplane; without one, statements are
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


def _vote_keys(bq, include_covering, composite_pairs):
    """A template part: the ``(table, columns, include)`` keys one
    statement votes for, in voting order, repeats kept."""
    keys = []

    def vote(table_name, columns, include=()):
        keys.append((table_name, tuple(columns), tuple(include)))

    if isinstance(bq, BoundWrite):
        # Writes only spawn locate-helping candidates; the maintenance
        # penalty side is handled by the BIP's write terms.
        for f in bq.filters:
            if f.sargable:
                vote(bq.table.name, (f.column,))
        return tuple(keys)
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
            vote(table.name, (col,))

        if composite_pairs:
            for eq in eq_cols:
                for second in range_cols + join_cols + other_cols:
                    if second != eq:
                        vote(table.name, (eq, second))
            for i, eq1 in enumerate(eq_cols):
                for eq2 in eq_cols[i + 1:]:
                    vote(table.name, (eq1, eq2))
            for join_col in join_cols:
                for second in range_cols:
                    vote(table.name, (join_col, second))

        if include_covering and len(referenced) <= MAX_INCLUDE_COLUMNS + 1:
            for col in eq_cols + range_cols + join_cols:
                rest = tuple(sorted(referenced - {col}))
                if rest:
                    vote(table.name, (col,), include=rest)
    return tuple(keys)


def _votes(statements, bind, include_covering, composite_pairs):
    """``(table, columns, include)`` -> summed weight of the *statements*
    (a workload) voting for it."""
    scores = {}
    for sql, weight in workload_pairs(statements):
        bq = bind(sql)
        for key in bq.template.part(
            _vote_keys, bq, include_covering, composite_pairs
        ):
            scores[key] = scores.get(key, 0.0) + weight
    return scores


def candidate_indexes(
    catalog,
    workload,
    max_candidates=60,
    include_covering=True,
    composite_pairs=True,
    bind=None,
):
    """The first *max_candidates* candidate :class:`Index` objects in
    rank order — descending summed vote weight, ties broken by the
    index's auto-generated name — or the whole ranked space when
    *max_candidates* is ``None``.  ``bind`` maps a statement to its
    bound form (a cost model's ``bound``); the default binds against
    *catalog* and keeps nothing."""
    scores = _votes(workload, bind or partial(bind_statement, catalog=catalog),
                    include_covering, composite_pairs)
    ranked = [
        (-score, _index_name(table, columns, include),
         (table, columns, include))
        for (table, columns, include), score in scores.items()
    ]
    if max_candidates is None:
        ranked.sort()
    else:
        ranked = heapq.nsmallest(max_candidates, ranked)
    return [Index(table, columns, include=include, name=name)
            for __, name, (table, columns, include) in ranked]
