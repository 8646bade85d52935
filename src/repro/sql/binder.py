"""Semantic analysis: resolve a parsed query against a catalog.

The binder produces the normalized form every designer component consumes:

* per-table *filters* (sargable conjuncts, with BETWEEN and comparison
  chains normalized into ranges),
* equality *joins* between table aliases,
* the referenced-column sets that drive index-only-scan and vertical-
  fragment reasoning.
"""

from dataclasses import dataclass, field

from repro.sql.astnodes import (
    BetweenPredicate,
    ColumnRef,
    Comparison,
    DeleteStatement,
    FuncCall,
    InPredicate,
    InsertStatement,
    IsNullPredicate,
    Star,
    UpdateStatement,
)
from repro.sql.parser import parse, parse_statement
from repro.sql.template import StatementTemplate
from repro.util import BindError


@dataclass(frozen=True)
class BoundFilter:
    """One sargable single-table conjunct.

    ``kind`` is ``eq``, ``ne``, ``range``, ``in``, ``isnull`` or
    ``notnull``.  Range filters carry ``low``/``high`` bounds (either may be
    None) with inclusivity flags.
    """

    alias: str
    table_name: str
    column: str
    kind: str
    value: object = None
    low: object = None
    high: object = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    values: tuple = ()

    @property
    def sargable(self):
        """Usable as an index boundary condition (eq, range, in)."""
        return self.kind in ("eq", "range", "in")

    def describe(self):
        col = "%s.%s" % (self.alias, self.column)
        if self.kind == "eq":
            return "%s = %r" % (col, self.value)
        if self.kind == "ne":
            return "%s <> %r" % (col, self.value)
        if self.kind == "in":
            return "%s IN %r" % (col, tuple(self.values))
        if self.kind == "isnull":
            return "%s IS NULL" % col
        if self.kind == "notnull":
            return "%s IS NOT NULL" % col
        parts = []
        if self.low is not None:
            parts.append("%s %s %r" % (col, ">=" if self.low_inclusive else ">", self.low))
        if self.high is not None:
            parts.append("%s %s %r" % (col, "<=" if self.high_inclusive else "<", self.high))
        return " AND ".join(parts) if parts else "%s: true" % col


@dataclass(frozen=True)
class BoundJoin:
    """Equality join predicate ``left.column = right.column``."""

    left_alias: str
    left_table: str
    left_column: str
    right_alias: str
    right_table: str
    right_column: str

    def side_for(self, alias):
        """Return ``(column, other_alias, other_column)`` seen from *alias*."""
        if alias == self.left_alias:
            return self.left_column, self.right_alias, self.right_column
        if alias == self.right_alias:
            return self.right_column, self.left_alias, self.left_column
        raise BindError("join does not involve alias %r" % (alias,))

    def involves(self, alias):
        return alias in (self.left_alias, self.right_alias)

    def describe(self):
        return "%s.%s = %s.%s" % (
            self.left_alias,
            self.left_column,
            self.right_alias,
            self.right_column,
        )


@dataclass
class BoundQuery:
    """A fully resolved query, ready for the optimizer."""

    query: object
    tables: dict  # alias -> Table (insertion-ordered)
    filters: dict  # alias -> tuple[BoundFilter]
    joins: tuple
    select_columns: tuple  # ((alias, column), ...)
    aggregates: tuple  # (FuncCall with bound arg aliases, ...)
    group_by: tuple  # ((alias, column), ...)
    order_by: tuple  # ((alias, column, ascending), ...)
    limit: int = None
    has_star: bool = False
    _sql: str = field(default=None, repr=False)
    # The StatementTemplate this binding is an instance of.
    template: object = field(
        default=None, init=False, repr=False, compare=False
    )
    # Pricing memos owned by the statement (rows of evaluation/memos.py).
    scan_contexts: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    plan_memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def sql(self):
        if self._sql is None:
            self._sql = self.query.unparse()
        return self._sql

    @property
    def is_write(self):
        return False

    @property
    def aliases(self):
        return list(self.tables)

    @property
    def is_aggregate(self):
        return bool(self.aggregates)

    def table_for(self, alias):
        try:
            return self.tables[alias]
        except KeyError:
            raise BindError("unknown alias %r" % (alias,)) from None

    def filters_for(self, alias):
        return self.filters.get(alias, ())

    def joins_for(self, alias):
        return tuple(j for j in self.joins if j.involves(alias))

    def referenced_columns(self, alias):
        """Columns of *alias* the query touches (select, filters, joins,
        grouping, ordering).  Star queries reference every column."""
        return self.template.referenced[alias]


@dataclass
class BoundWrite:
    """A resolved write statement (UPDATE / INSERT / DELETE).

    Writes matter to the designer because every index on the target table
    must be maintained: they are the *cost* side of index selection.
    """

    kind: str  # "update" | "insert" | "delete"
    table: object  # the Table
    filters: tuple = ()  # locate predicates (update/delete)
    set_columns: tuple = ()  # columns assigned (update)
    n_rows: int = 1  # rows inserted (insert)
    _sql: str = field(default=None, repr=False)
    template: object = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def sql(self):
        return self._sql

    @property
    def is_write(self):
        return True

    def touches_index(self, index):
        """Whether maintaining *index* is required by this write."""
        if index.table_name != self.table.name:
            return False
        if self.kind == "update":
            return bool(set(index.all_columns) & set(self.set_columns))
        return True  # inserts and deletes touch every index on the table


def bind_sql(sql, catalog):
    """Parse and bind a SELECT in one step."""
    return bind(parse(sql), catalog)


def bind_statement(sql, catalog):
    """Parse and bind any statement: returns BoundQuery or BoundWrite,
    the first instance of its own
    :class:`~repro.sql.template.StatementTemplate`."""
    node = parse_statement(sql)
    if isinstance(node, InsertStatement):
        table = catalog.table(node.table.name)
        bound = BoundWrite(
            kind="insert", table=table, n_rows=node.n_rows, _sql=node.unparse()
        )
        StatementTemplate(bound, node, ())
        return bound
    if isinstance(node, (UpdateStatement, DeleteStatement)):
        kind = "update" if isinstance(node, UpdateStatement) else "delete"
        table = catalog.table(node.table.name)
        alias = node.table.effective_alias
        resolver = _Resolver({alias: table})
        set_columns = []
        for column, __ in getattr(node, "assignments", ()):
            if not table.has_column(column):
                raise BindError(
                    "no column %r in table %r" % (column, table.name)
                )
            set_columns.append(column)
        filters, sites = [], []
        for pred in node.predicates:
            site = _site(pred, resolver)
            if isinstance(site, BoundJoin):
                raise BindError("joins are not allowed in %s" % kind.upper())
            filters.append(bind_filter(pred, *site))
            sites.append(site)
        bound = BoundWrite(
            kind=kind,
            table=table,
            filters=merge_ranges(filters, alias),
            set_columns=tuple(set_columns),
            _sql=node.unparse(),
        )
        StatementTemplate(bound, node, tuple(sites))
        return bound
    return bind(node, catalog)


def bind(query, catalog):
    """Resolve *query* against *catalog*, returning a :class:`BoundQuery`
    (the first instance of its own template)."""
    tables = {}
    for tref in query.tables:
        alias = tref.effective_alias
        if alias in tables:
            raise BindError("duplicate table alias %r" % (alias,))
        tables[alias] = catalog.table(tref.name)

    resolver = _Resolver(tables)

    filters = {alias: [] for alias in tables}
    joins = []
    sites = []
    for pred in query.predicates:
        site = _site(pred, resolver)
        if isinstance(site, BoundJoin):
            joins.append(site)
            sites.append(None)
        else:
            filters[site[0]].append(bind_filter(pred, *site))
            sites.append(site)

    select_columns = []
    aggregates = []
    has_star = False
    for item in query.select_items:
        expr = item.expr
        if isinstance(expr, Star):
            has_star = True
        elif isinstance(expr, FuncCall):
            arg = expr.arg
            if isinstance(arg, ColumnRef):
                alias, column = resolver.resolve(arg)
                arg = ColumnRef(alias, column)
            aggregates.append(FuncCall(expr.name, arg, expr.distinct))
        elif isinstance(expr, ColumnRef):
            select_columns.append(resolver.resolve(expr))
        else:
            raise BindError("unsupported select expression %r" % (expr,))

    group_by = tuple(resolver.resolve(c) for c in query.group_by)
    if aggregates and select_columns:
        plain = set(select_columns) - set(group_by)
        if plain:
            raise BindError(
                "non-aggregated columns %s must appear in GROUP BY" % sorted(plain)
            )

    order_by = tuple(
        resolver.resolve(o.column) + (o.ascending,) for o in query.order_by
    )

    normalized = {
        alias: merge_ranges(flist, alias) for alias, flist in filters.items()
    }
    bound = BoundQuery(
        query=query,
        tables=tables,
        filters=normalized,
        joins=tuple(joins),
        select_columns=tuple(select_columns),
        aggregates=tuple(aggregates),
        group_by=group_by,
        order_by=order_by,
        limit=query.limit,
        has_star=has_star,
    )
    StatementTemplate(bound, query, tuple(sites))
    return bound


class _Resolver:
    def __init__(self, tables):
        self._tables = tables

    def resolve(self, colref):
        """Resolve a ColumnRef to ``(alias, column)``."""
        if colref.table:
            if colref.table not in self._tables:
                raise BindError("unknown table alias %r" % (colref.table,))
            table = self._tables[colref.table]
            if not table.has_column(colref.column):
                raise BindError(
                    "no column %r in %s (alias %r)"
                    % (colref.column, table.name, colref.table)
                )
            return colref.table, colref.column
        hits = [
            alias
            for alias, table in self._tables.items()
            if table.has_column(colref.column)
        ]
        if not hits:
            raise BindError("unknown column %r" % (colref.column,))
        if len(hits) > 1:
            raise BindError(
                "ambiguous column %r (in aliases %s)" % (colref.column, hits)
            )
        return hits[0], colref.column

    def table(self, alias):
        return self._tables[alias]


_RANGE_OPS = {"<": ("high", False), "<=": ("high", True), ">": ("low", False), ">=": ("low", True)}


def _site(pred, resolver):
    """The half of binding a conjunct that reads no value: a
    :class:`BoundJoin`, or the ``(alias, table name, column)`` of a
    single-table filter."""
    if isinstance(pred, Comparison):
        left_alias, left_col = resolver.resolve(pred.left)
        left_table = resolver.table(left_alias)
        if isinstance(pred.right, ColumnRef):
            right_alias, right_col = resolver.resolve(pred.right)
            if right_alias == left_alias:
                raise BindError(
                    "column-to-column predicates within one table are not supported"
                )
            if pred.op != "=":
                raise BindError("only equality joins are supported, got %r" % (pred.op,))
            right_table = resolver.table(right_alias)
            return BoundJoin(
                left_alias, left_table.name, left_col,
                right_alias, right_table.name, right_col,
            )
        return left_alias, left_table.name, left_col
    if isinstance(pred, (BetweenPredicate, InPredicate, IsNullPredicate)):
        alias, col = resolver.resolve(pred.column)
        return alias, resolver.table(alias).name, col
    raise BindError("unsupported predicate %r" % (pred,))


def bind_filter(pred, alias, table_name, column):
    """The half that reads the values: the :class:`BoundFilter` *pred*
    states on its site — a step a template's numbers pass repeats."""
    if isinstance(pred, Comparison):
        value = pred.right.value
        if value is None:
            raise BindError("comparisons with NULL are never true; use IS NULL")
        if pred.op == "=":
            return BoundFilter(alias, table_name, column, "eq", value=value)
        if pred.op == "<>":
            return BoundFilter(alias, table_name, column, "ne", value=value)
        side, inclusive = _RANGE_OPS[pred.op]
        kwargs = {"low": None, "high": None}
        kwargs[side] = value
        return BoundFilter(
            alias, table_name, column, "range",
            low=kwargs["low"], high=kwargs["high"],
            low_inclusive=inclusive if side == "low" else True,
            high_inclusive=inclusive if side == "high" else True,
        )
    if isinstance(pred, BetweenPredicate):
        return BoundFilter(alias, table_name, column, "range",
                           low=pred.low.value, high=pred.high.value)
    if isinstance(pred, InPredicate):
        if not pred.values:
            raise BindError("empty IN list")
        return BoundFilter(alias, table_name, column, "in",
                           values=tuple(pred.values))
    kind = "notnull" if pred.negated else "isnull"
    return BoundFilter(alias, table_name, column, kind)


def merge_ranges(filters, alias):
    """Combine multiple range conjuncts on the same column into one filter,
    e.g. ``x > 5 AND x <= 9`` becomes a single [5, 9] range."""
    merged = {}
    out = []
    for f in filters:
        if f.kind != "range":
            out.append(f)
            continue
        key = f.column
        if key not in merged:
            merged[key] = f
            continue
        prev = merged[key]
        low, low_inc = prev.low, prev.low_inclusive
        high, high_inc = prev.high, prev.high_inclusive
        if f.low is not None and (low is None or f.low > low):
            low, low_inc = f.low, f.low_inclusive
        if f.high is not None and (high is None or f.high < high):
            high, high_inc = f.high, f.high_inclusive
        merged[key] = BoundFilter(
            prev.alias, prev.table_name, prev.column, "range",
            low=low, high=high, low_inclusive=low_inc, high_inclusive=high_inc,
        )
    # preserve original relative order: ranges appear at first occurrence
    seen = set()
    result = []
    for f in filters:
        if f.kind == "range":
            if f.column not in seen:
                seen.add(f.column)
                result.append(merged[f.column])
        else:
            result.append(f)
    return tuple(result)
