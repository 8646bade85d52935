"""Statement templates: what a statement is apart from its constants.

Two texts whose token streams agree once each literal token is masked to
its kind (:func:`template_key`) parse to the same tree up to those
literals, and bind to the same tables, aliases, join graph, select,
group and order columns, filter columns and kinds, and referenced
columns.  A :class:`StatementTemplate` holds that once, as the binding
of the first text seen with its key (``bind_statement`` runs once per
template), and :meth:`StatementTemplate.instance` is the *numbers pass*
for every later text: it reads the literals off the tokens and repeats
only the binder steps that read a value — the filters built from them,
``merge_ranges``' bound comparisons and the ``LIMIT`` check.

Consumers hang what they derive from structure alone on the template
through :meth:`StatementTemplate.part`: the scan shapes and index-match
structures of :mod:`repro.optimizer.paths`, the INUM build's order
vectors and covering indexes, CoPhy's vote keys and COLT's harvested
candidates.

The contract, pinned against the per-text references of
``tests/oracle.py`` by ``tests/test_statement_templates.py``: for every
text whose key is a template's, ``instance`` returns what
``bind_statement`` returns for that text, field for field, or raises
what it raises; and every part equals what its builder computes from
that text's own binding.  A part builder therefore reads no literal,
no filter value and no ``LIMIT`` of the instance it is handed.
"""

from dataclasses import replace

from repro.sql import binder
from repro.sql.astnodes import (
    BetweenPredicate,
    ColumnRef,
    Comparison,
    InPredicate,
    InsertStatement,
    Literal,
    Query,
    UpdateStatement,
)
from repro.util import ParseError

# A literal token keys as its kind alone.  No identifier, keyword,
# operator or punctuation token has either value.
_MASKS = {"number": "0", "string": "''"}


def template_key(tokens):
    """The key of a lexed statement: its tokens, literals masked."""
    masks = _MASKS
    return tuple([masks.get(tok.kind, tok.value) for tok in tokens])


class StatementTemplate:
    """One statement shape: a copy of its first binding (``bound``),
    parse tree (``node``), per-predicate filter sites (``None`` for a
    join, else ``(alias, table name, column)``) and referenced columns
    per alias; ``literals`` says where a keyed text carries its
    literals."""

    __slots__ = ("bound", "node", "sites", "referenced", "literals", "parts")

    def __init__(self, bound, node, sites):
        # An instance points at its template, never the other way (the
        # copy points at none): a dropped template or statement is freed
        # by reference counting, its memos with it.
        self.bound = replace(bound)
        self.node = node
        self.sites = sites
        self.referenced = (
            _referenced(bound) if isinstance(bound, binder.BoundQuery)
            else None
        )
        self.literals = None
        self.parts = {}
        bound.template = self

    def keyed(self, tokens):
        """Record where the first text's *tokens* hold literals, as
        ``(token position, negated)`` pairs in text order (a unary
        minus is punctuation, so it is part of the key); returns self."""
        self.literals = tuple(
            (i, tokens[i - 1].kind == "punct" and tokens[i - 1].value == "-")
            for i, tok in enumerate(tokens) if tok.kind in _MASKS
        )
        return self

    def part(self, build, bound, *args):
        """``build(bound, *args)`` for an instance *bound* of this
        template, computed once per template: *build* reads no
        constant, so every instance would answer alike."""
        key = (build, *args) if args else build
        value = self.parts.get(key)
        if value is None:
            value = self.parts[key] = build(bound, *args)
        return value

    def instance(self, tokens):
        """The numbers pass: the binding of the text lexed as *tokens*
        (whose key is this template's)."""
        values = [-tokens[i].value if negated else tokens[i].value
                  for i, negated in self.literals]
        fill = iter(values).__next__
        node, first = self.node, self.bound
        if isinstance(node, Query):
            if node.limit is not None:
                limit = values[-1]
                if not isinstance(limit, int) or limit < 0:
                    raise ParseError("LIMIT must be a non-negative integer",
                                     tokens[self.literals[-1][0]].position)
            predicates = tuple(_refill(p, fill) for p in node.predicates)
            limit = None if node.limit is None else fill()
            filters = {alias: [] for alias in first.tables}
            for pred, site in zip(predicates, self.sites):
                if site is not None:
                    filters[site[0]].append(binder.bind_filter(pred, *site))
            bound = binder.BoundQuery(
                query=Query(node.select_items, node.tables, predicates,
                            node.group_by, node.order_by, limit),
                tables=first.tables,
                filters={alias: binder.merge_ranges(flist, alias)
                         for alias, flist in filters.items()},
                joins=first.joins,
                select_columns=first.select_columns,
                aggregates=first.aggregates,
                group_by=first.group_by,
                order_by=first.order_by,
                limit=limit,
                has_star=first.has_star,
            )
        elif isinstance(node, InsertStatement):
            bound = binder.BoundWrite(kind="insert", table=first.table,
                                      n_rows=first.n_rows, _sql=first.sql)
        else:
            if isinstance(node, UpdateStatement):
                assignments = tuple((column, _literal(value, fill))
                                    for column, value in node.assignments)
            predicates = tuple(_refill(p, fill) for p in node.predicates)
            node = (UpdateStatement(node.table, assignments, predicates)
                    if isinstance(node, UpdateStatement)
                    else type(node)(node.table, predicates))
            bound = binder.BoundWrite(
                kind=first.kind,
                table=first.table,
                filters=binder.merge_ranges(
                    [binder.bind_filter(pred, *site)
                     for pred, site in zip(predicates, self.sites)],
                    node.table.effective_alias,
                ),
                set_columns=first.set_columns,
                _sql=node.unparse(),
            )
        bound.template = self
        return bound


def _literal(literal, fill):
    # None is the NULL keyword, the same in every instance.
    return literal if literal.value is None else Literal(fill())


def _refill(pred, fill):
    """*pred* with the next literals of the instance in place."""
    if isinstance(pred, Comparison):
        if isinstance(pred.right, Literal):
            return Comparison(pred.left, pred.op, _literal(pred.right, fill))
        return pred
    if isinstance(pred, BetweenPredicate):
        low = _literal(pred.low, fill)
        return BetweenPredicate(pred.column, low, _literal(pred.high, fill))
    if isinstance(pred, InPredicate):
        return InPredicate(pred.column, tuple(
            [None if v is None else fill() for v in pred.values]
        ))
    return pred


def _referenced(bq):
    """Per alias, the columns a query touches (select, filters, joins,
    grouping, ordering; every column under ``*``), frozen: a column set
    keys the layout's cover memo (``VerticalLayout.cover``)."""
    refs = {alias: set() for alias in bq.tables}
    if bq.has_star:
        for alias, table in bq.tables.items():
            refs[alias].update(table.column_names)
    for alias, column in bq.select_columns:
        refs[alias].add(column)
    for agg in bq.aggregates:
        if isinstance(agg.arg, ColumnRef) and agg.arg.table:
            refs[agg.arg.table].add(agg.arg.column)
    for alias, flist in bq.filters.items():
        for f in flist:
            refs[alias].add(f.column)
    for join in bq.joins:
        refs[join.left_alias].add(join.left_column)
        refs[join.right_alias].add(join.right_column)
    for alias, column in bq.group_by:
        refs[alias].add(column)
    for alias, column, __ in bq.order_by:
        refs[alias].add(column)
    return {alias: frozenset(columns) for alias, columns in refs.items()}
