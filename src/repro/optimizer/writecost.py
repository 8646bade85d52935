"""Cost model for write statements (UPDATE / INSERT / DELETE).

Writes are the *cost* side of physical design: every index on the target
table must be maintained, so an index that speeds one query can slow a
thousand updates.  The model:

* **locate** (update/delete) — the cost of finding the affected rows,
  priced by planning the equivalent SELECT (so indexes also *help*
  writes find their rows, as in a real DBMS);
* **heap modification** — one tuple write per affected row plus amortized
  page dirtying;
* **index maintenance** — per affected row and per touched index: a btree
  descent (CPU), an index-tuple insertion, and amortized leaf-page
  dirtying.  Updates touch only indexes covering an assigned column
  (heap-only-tuple optimization); inserts and deletes touch every index.
"""

from dataclasses import replace as dc_replace

from repro.optimizer.selectivity import conjunction_selectivity
from repro.sql.binder import BoundQuery
from repro.sql.template import StatementTemplate

# Amortized page-write charges (fractions of a random page write per row).
HEAP_DIRTY_PER_ROW = 0.05
INDEX_LEAF_DIRTY_PER_ROW = 0.05

# Synthetic-SQL marker for locate queries.  Their text is not
# re-parseable (there is no real SELECT), so wire-format consumers ship
# the originating write statement instead and re-derive the locate
# query on the receiving side.
LOCATE_PREFIX = "<locate> "


def locate_query(bound_write):
    """The SELECT-equivalent used to price finding the affected rows,
    an instance of the locate template of the write's template."""
    template = bound_write.template.part(_locate_template, bound_write)
    bound = _locate(bound_write, template.bound.select_columns)
    bound.template = template
    return bound


def _locate_template(bound_write):
    table = bound_write.table
    referenced = {f.column for f in bound_write.filters}
    referenced.update(bound_write.set_columns)
    if not referenced:
        referenced = {table.column_names[0]}
    select_columns = tuple((table.name, c) for c in sorted(referenced))
    return StatementTemplate(_locate(bound_write, select_columns), None, ())


def _locate(bound_write, select_columns):
    alias = bound_write.table.name
    return BoundQuery(
        query=None,
        tables={alias: bound_write.table},
        filters={alias: tuple(bound_write.filters)},
        joins=(),
        select_columns=select_columns,
        aggregates=(),
        group_by=(),
        order_by=(),
        limit=None,
        has_star=False,
        _sql=LOCATE_PREFIX + (bound_write.sql or ""),
    )


def affected_rows(bound_write):
    """Estimated number of rows the write touches."""
    if bound_write.kind == "insert":
        return float(max(1, bound_write.n_rows))
    table = bound_write.table
    sel = conjunction_selectivity(bound_write.filters, table)
    return max(1.0, table.row_count * sel)


def index_maintenance_cost_per_row(index, table, settings):
    """Maintaining one index entry for one modified row."""
    __, height, __ = index.shape(table)
    descent_cpu = (height + 1) * 50.0 * settings.cpu_operator_cost
    return (
        descent_cpu
        + settings.cpu_index_tuple_cost
        + INDEX_LEAF_DIRTY_PER_ROW * settings.random_page_cost
    )


def maintenance_cost(bound_write, indexes, settings):
    """Total index-maintenance cost of the write under *indexes*."""
    table = bound_write.table
    rows = affected_rows(bound_write)
    total = 0.0
    for index in indexes:
        if bound_write.touches_index(index):
            total += rows * index_maintenance_cost_per_row(index, table, settings)
    return total


def heap_write_cost(bound_write, settings):
    rows = affected_rows(bound_write)
    return rows * (
        settings.cpu_tuple_cost + HEAP_DIRTY_PER_ROW * settings.random_page_cost
    )


def write_statement_cost(bound_write, catalog, settings, locate_cost_fn=None):
    """Full cost of one write statement under *catalog*'s design.

    ``locate_cost_fn(bound_query) -> float`` may be supplied to price the
    locate step through a cached cost model (INUM); by default the full
    planner is used.
    """
    total = heap_write_cost(bound_write, settings)
    total += maintenance_cost(
        bound_write, catalog.indexes_on(bound_write.table.name), settings
    )
    if bound_write.kind in ("update", "delete"):
        locate = locate_query(bound_write)
        if locate_cost_fn is not None:
            total += locate_cost_fn(locate)
        else:
            from repro.optimizer.planner import plan_query

            total += plan_query(locate, catalog, settings).total_cost
    return total
