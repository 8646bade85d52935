"""Canonical plan/query signatures for the shared INUM cache pool.

Two queries that differ only in table alias spelling (``photoobj p`` vs
``photoobj px``) produce identical optimizer plans, identical INUM plan
caches, and identical configuration costs — so they should share one
cache entry.  :func:`query_signature` computes a hashable fingerprint of
a :class:`~repro.sql.binder.BoundQuery` that is invariant under alias
renaming but captures *every* cost-relevant feature: tables, filter
predicates (including constants — they drive selectivity), join
structure, referenced-column sets, grouping, ordering, aggregates and
LIMIT.

Aliases are canonicalized structurally: each alias gets a *local*
descriptor (its table, its filters, its referenced columns, its join
endpoints described by table rather than alias); aliases are then
renumbered in sorted-descriptor order.  Aliases with identical local
descriptors are interchangeable by symmetry, so any tie-break yields the
same costs.

Known limitation: ties between identical local descriptors are broken by
input order, so exotic renamings that *rewire* symmetric self-join pairs
to differently-filtered third tables can land in separate cache entries.
Costs remain correct either way — the miss only forfeits sharing.
"""

from repro.sql.astnodes import ColumnRef

__all__ = ["query_signature", "statement_key"]


def _filter_sig(f):
    """Alias-free fingerprint of one bound filter (constants included)."""
    return (
        f.column,
        f.kind,
        f.value,
        f.low,
        f.high,
        f.low_inclusive,
        f.high_inclusive,
        tuple(f.values or ()),
    )


def _aggregate_sig(agg, alias_rank):
    arg = agg.arg
    if isinstance(arg, ColumnRef) and arg.table:
        arg_sig = (alias_rank.get(arg.table, -1), arg.column)
    else:
        arg_sig = ("*",)
    return (agg.name.upper(), arg_sig, bool(getattr(agg, "distinct", False)))


def _skeleton(bq):
    """A template part: per alias, its table name and the rest of its
    local descriptor — referenced columns, join endpoints described by
    table rather than alias, grouping, ordering — with the signature's
    alias-ranked tail memoized per ranking (``tails``)."""
    rest = {}
    for alias in bq.aliases:
        joins = []
        for clause in bq.joins_for(alias):
            column, other_alias, other_column = clause.side_for(alias)
            joins.append((column, bq.table_for(other_alias).name, other_column))
        rest[alias] = (bq.table_for(alias).name, (
            tuple(sorted(bq.referenced_columns(alias))),
            tuple(sorted(joins)),
            tuple(sorted(c for a, c in bq.group_by if a == alias)),
            tuple(sorted((c, asc) for a, c, asc in bq.order_by if a == alias)),
        ))
    return rest, {}


def _tail(bq, ordered):
    """The signature's parts after the descriptors, under the alias
    ranking *ordered*: joins, select, aggregates, grouping, ordering."""
    rank = {alias: i for i, alias in enumerate(ordered)}
    joins = []
    for j in bq.joins:
        left = (rank[j.left_alias], j.left_column)
        right = (rank[j.right_alias], j.right_column)
        joins.append(tuple(sorted((left, right))))
    return (
        tuple(sorted(joins)),
        tuple(sorted((rank[a], c) for a, c in bq.select_columns)),
        tuple(sorted(_aggregate_sig(agg, rank) for agg in bq.aggregates)),
        tuple(sorted((rank[a], c) for a, c in bq.group_by)),
        # ORDER BY is positional: keep clause order, canonicalize aliases.
        tuple((rank[a], c, asc) for a, c, asc in bq.order_by),
    )


def query_signature(bq):
    """A hashable, alias-invariant signature of a bound SELECT query:
    per alias, its local descriptor (what one table reference looks
    like, described without alias names: the template's skeleton plus
    the instance's filter fingerprints), the aliases ranked by it."""
    rest, tails = bq.template.part(_skeleton, bq)
    descriptors = {
        alias: (name, tuple(sorted(_filter_sig(f)
                                   for f in bq.filters_for(alias))), *more)
        for alias, (name, more) in rest.items()
    }
    ordered = tuple(sorted(bq.aliases, key=descriptors.__getitem__))
    tail = tails.get(ordered)
    if tail is None:
        tail = tails[ordered] = _tail(bq, ordered)
    return (
        tuple(descriptors[a] for a in ordered), *tail, bq.limit, bq.has_star
    )


def statement_key(bq):
    """Signature for any bound statement: writes fall back to SQL text
    (write costs are analytic, not cached, so sharing buys nothing)."""
    if bq.is_write:
        return ("write", bq.sql)
    return query_signature(bq)
