"""Query rewriting onto partitioned layouts.

The demo lets the user "save the rewritten queries for the new table
partitions": each table reference is replaced by the fragment tables that
cover the query's columns, stitched on the implicit row id.  The output is
display-oriented SQL for the DBA (our dialect itself plans fragments
natively through the catalog, so these strings are documentation of the
physical plan, exactly as in the demo UI).
"""

from repro.sql.binder import BoundQuery, bind_sql


def rewrite_for_layout(sql, catalog, layouts):
    """Rewrite *sql* against fragment tables.

    *sql* is SQL text or an already-bound query (callers that hold one
    skip the re-parse).  ``layouts`` maps table name ->
    :class:`VerticalLayout`.  Tables without a layout are left untouched.
    Returns the rewritten SQL text.
    """
    bq = sql if isinstance(sql, BoundQuery) else bind_sql(sql, catalog)
    from_parts = []
    stitch_preds = []
    rename = {}  # (alias, column) -> fragment alias

    for alias in bq.aliases:
        table = bq.table_for(alias)
        layout = layouts.get(table.name)
        if layout is None:
            from_parts.append(
                table.name if alias == table.name else "%s %s" % (table.name, alias)
            )
            continue
        needed = sorted(bq.referenced_columns(alias)) or [table.column_names[0]]
        fragments = layout.fragments_for(needed)
        frag_aliases = []
        for k, frag in enumerate(fragments):
            frag_alias = "%s_f%d" % (alias, k)
            frag_aliases.append(frag_alias)
            from_parts.append("%s %s" % (frag.name, frag_alias))
            for col in frag.columns:
                rename.setdefault((alias, col), frag_alias)
        for prev, cur in zip(frag_aliases, frag_aliases[1:]):
            stitch_preds.append("%s.rid = %s.rid" % (prev, cur))

    def col_text(alias, column):
        owner = rename.get((alias, column), alias)
        return "%s.%s" % (owner, column)

    select_parts = []
    for alias, column in bq.select_columns:
        select_parts.append(col_text(alias, column))
    for agg in bq.aggregates:
        if hasattr(agg.arg, "column") and agg.arg.table:
            inner = col_text(agg.arg.table, agg.arg.column)
        else:
            inner = "*"
        select_parts.append("%s(%s)" % (agg.name.upper(), inner))
    if bq.has_star:
        select_parts.append("*")

    where_parts = list(stitch_preds)
    for alias in bq.aliases:
        for f in bq.filters_for(alias):
            where_parts.append(_filter_text(f, col_text))
    for join in bq.joins:
        where_parts.append(
            "%s = %s"
            % (
                col_text(join.left_alias, join.left_column),
                col_text(join.right_alias, join.right_column),
            )
        )

    sql_out = "SELECT %s FROM %s" % (
        ", ".join(select_parts) or "*",
        ", ".join(from_parts),
    )
    if where_parts:
        sql_out += " WHERE " + " AND ".join(where_parts)
    if bq.group_by:
        sql_out += " GROUP BY " + ", ".join(col_text(a, c) for a, c in bq.group_by)
    if bq.order_by:
        sql_out += " ORDER BY " + ", ".join(
            col_text(a, c) + ("" if asc else " DESC") for a, c, asc in bq.order_by
        )
    if bq.limit is not None:
        sql_out += " LIMIT %d" % bq.limit
    return sql_out


def _quote(value):
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    return repr(value)


def _filter_text(f, col_text):
    col = col_text(f.alias, f.column)
    if f.kind == "eq":
        return "%s = %s" % (col, _quote(f.value))
    if f.kind == "ne":
        return "%s <> %s" % (col, _quote(f.value))
    if f.kind == "in":
        return "%s IN (%s)" % (col, ", ".join(_quote(v) for v in f.values))
    if f.kind == "isnull":
        return "%s IS NULL" % col
    if f.kind == "notnull":
        return "%s IS NOT NULL" % col
    parts = []
    if f.low is not None:
        parts.append("%s %s %s" % (col, ">=" if f.low_inclusive else ">", _quote(f.low)))
    if f.high is not None:
        parts.append("%s %s %s" % (col, "<=" if f.high_inclusive else "<", _quote(f.high)))
    return " AND ".join(parts)
