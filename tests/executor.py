"""Iterator-style executor: runs optimizer plans against generated data.

This is the validation substrate: tests execute the *same* query under
different physical designs (hence different plan shapes) and assert the
result rows are identical, and compare estimated vs actual cardinalities.
It runs plans over :class:`~datagen.Database` instances
(``tests/datagen.py``).

Rows flow through the tree as dictionaries keyed by ``(alias, column)`` so
self-joins stay unambiguous.  Aggregate outputs use ``("#agg", i)`` keys
in the order the aggregates appear in the SELECT list.

The executor follows the plan's *semantics*, not its micro-operators:
fragment and partition scans read the same logical rows (partitioning is
physical, not logical), a merge join is executed hash-style and re-sorted
on its keys, etc.  What matters for validation is that every plan shape
for a query yields identical results.
"""

import bisect

from repro.optimizer.planner import plan_query
from repro.optimizer.settings import DEFAULT_SETTINGS
from repro.sql.binder import bind_sql
from repro.util import PlanningError

from datagen import encode_key


def run_query(query, catalog, database, settings=None):
    """Bind, plan, execute and project; returns (plan, rows-as-tuples)."""
    settings = settings or DEFAULT_SETTINGS
    bq = bind_sql(query, catalog) if isinstance(query, str) else query
    plan = plan_query(bq, catalog, settings)
    rows = execute_plan(plan, bq, database)
    return plan, _project(rows, bq)


def execute_plan(plan, bound_query, database):
    """Execute *plan* and return the raw row dictionaries."""
    return _Executor(bound_query, database).run(plan)


# ----------------------------------------------------------------------


def _project(rows, bq):
    out = []
    if bq.is_aggregate or bq.group_by:
        for row in rows:
            tup = tuple(row[(a, c)] for a, c in bq.group_by) + tuple(
                row[("#agg", i)] for i in range(len(bq.aggregates))
            )
            out.append(tup)
        return out
    for row in rows:
        if bq.has_star:
            keys = sorted(k for k in row if k[0] != "#")
            out.append(tuple(row[k] for k in keys))
        else:
            out.append(tuple(row[(a, c)] for a, c in bq.select_columns))
    return out


def _passes(f, value):
    if f.kind == "isnull":
        return value is None
    if f.kind == "notnull":
        return value is not None
    if value is None:
        return False
    if f.kind == "eq":
        return value == f.value
    if f.kind == "ne":
        return value != f.value
    if f.kind == "in":
        return value in f.values
    ok = True
    if f.low is not None:
        ok = value > f.low or (f.low_inclusive and value == f.low)
    if ok and f.high is not None:
        ok = value < f.high or (f.high_inclusive and value == f.high)
    return ok


def _row_passes(filters, alias, row):
    return all(_passes(f, row.get((alias, f.column))) for f in filters)


class _Executor:
    def __init__(self, bq, database):
        self.bq = bq
        self.db = database

    # ------------------------------------------------------------------

    def run(self, node, params=None):
        handler = getattr(self, "_exec_" + node.node_type.lower(), None)
        if handler is None:
            raise PlanningError("executor cannot run node %r" % (node.node_type,))
        return handler(node, params or {})

    # -- scans ----------------------------------------------------------

    def _table_rows(self, table_name, alias):
        data = self.db.table(table_name)
        for i in range(data.row_count):
            yield {
                (alias, col): values[i] for col, values in data.columns.items()
            }

    def _exec_seqscan(self, node, params):
        return [
            row
            for row in self._table_rows(node.table_name, node.alias)
            if _row_passes(node.filters, node.alias, row)
        ]

    def _exec_fragmentscan(self, node, params):
        return self._exec_seqscan(node, params)

    def _exec_appendscan(self, node, params):
        filters = self.bq.filters_for(node.alias)
        return [
            row
            for row in self._table_rows(node.table_name, node.alias)
            if _row_passes(filters, node.alias, row)
        ]

    def _exec_indexscan(self, node, params):
        return self._index_fetch(node, params)

    def _exec_indexonlyscan(self, node, params):
        return self._index_fetch(node, params)

    def _exec_bitmapheapscan(self, node, params):
        return self._index_fetch(node, params)

    def _index_fetch(self, node, params):
        index = node.index
        alias = node.alias
        data = self.db.table(node.table_name)
        row_ids = self._boundary_rowids(index, node.index_filters, params)
        if getattr(node, "backward", False):
            row_ids = list(reversed(row_ids))
        out = []
        residual = node.heap_filters
        for rid in row_ids:
            row = {
                (alias, col): values[rid] for col, values in data.columns.items()
            }
            if _row_passes(residual, alias, row):
                out.append(row)
        return out

    def _exec_bitmapandscan(self, node, params):
        """Intersect the row-id sets of every AND arm, then fetch."""
        rid_sets = []
        for index, arm_filter in zip(node.indexes, node.arm_filters):
            rid_sets.append(
                set(self._boundary_rowids(index, (arm_filter,), params))
            )
        rids = sorted(set.intersection(*rid_sets)) if rid_sets else []
        data = self.db.table(node.table_name)
        alias = node.alias
        out = []
        for rid in rids:
            row = {
                (alias, col): values[rid] for col, values in data.columns.items()
            }
            if _row_passes(node.heap_filters, alias, row):
                out.append(row)
        return out

    def _boundary_rowids(self, index, index_filters, params):
        """Row ids matching the boundary conditions of an index scan.

        Walks the key prefix: equality filters and parameter bindings
        extend the probe tuple, the first range/IN condition bounds the
        bisect window, anything deeper is re-checked as a residual here.
        """
        by_column = {}
        for f in index_filters:
            by_column.setdefault(f.column, []).append(f)

        prefix = []
        range_filter = None
        deep_filters = []
        for col in index.columns:
            eq = next((f for f in by_column.get(col, ()) if f.kind == "eq"), None)
            if eq is not None:
                prefix.append(eq.value)
                continue
            if col in params:
                prefix.append(params[col])
                continue
            range_filter = next(
                (f for f in by_column.get(col, ()) if f.kind in ("range", "in")),
                None,
            )
            break
        # Any boundary filters not consumed by the walk must be re-checked.
        consumed = set()
        for i, col in enumerate(index.columns[: len(prefix)]):
            consumed.add(col)
        if range_filter is not None:
            consumed.add(range_filter.column)
        deep_filters = [f for f in index_filters if f.column not in consumed]

        if any(v is None for v in prefix):
            return []  # equality against NULL never matches
        tree = self.db.btree(index.table_name, index.columns)
        prefix_enc = encode_key(tuple(prefix))
        k = len(prefix_enc)

        def in_window(enc, raw):
            if enc[:k] != prefix_enc:
                return None  # out of prefix: stop
            if range_filter is None:
                return True
            return _passes(range_filter, raw[k])

        if range_filter is not None and range_filter.kind == "in":
            rids = []
            # Probe each distinct value once: IN (0, 0) names one window,
            # and probing it twice would duplicate the matching rows.
            for v in dict.fromkeys(range_filter.values):
                if v is None:
                    continue
                rids.extend(
                    rid
                    for rid in self._scan_window(tree, prefix_enc + encode_key((v,)))
                )
            candidates = rids
        else:
            lo = bisect.bisect_left(tree, (prefix_enc,))
            if range_filter is not None and range_filter.low is not None:
                lo = bisect.bisect_left(
                    tree, (prefix_enc + encode_key((range_filter.low,)),)
                )
            candidates = []
            for enc, rid, raw in tree[lo:]:
                status = in_window(enc, raw)
                if status is None:
                    break
                if status:
                    candidates.append(rid)
                elif range_filter is not None and range_filter.high is not None \
                        and (raw[k] is None or raw[k] > range_filter.high):
                    break
        if not deep_filters:
            return candidates
        data = self.db.table(index.table_name)
        return [
            rid
            for rid in candidates
            if all(
                _passes(f, data.columns[f.column][rid]) for f in deep_filters
            )
        ]

    @staticmethod
    def _scan_window(tree, exact_prefix_enc):
        lo = bisect.bisect_left(tree, (exact_prefix_enc,))
        k = len(exact_prefix_enc)
        for enc, rid, __ in tree[lo:]:
            if enc[:k] != exact_prefix_enc:
                break
            yield rid

    # -- joins ----------------------------------------------------------

    def _exec_nestloop(self, node, params):
        outer_node, inner_node = node.children
        outer_rows = self.run(outer_node, params)
        clauses = node.join_clauses
        out = []
        parameterized = any(n.is_parameterized for n in inner_node.walk())
        if parameterized:
            inner_aliases = {
                n.alias for n in inner_node.walk() if getattr(n, "alias", "")
            }
            for outer in outer_rows:
                bindings = {}
                for clause in clauses:
                    if clause.left_alias in inner_aliases:
                        bindings[clause.left_column] = outer.get(
                            (clause.right_alias, clause.right_column)
                        )
                    elif clause.right_alias in inner_aliases:
                        bindings[clause.right_column] = outer.get(
                            (clause.left_alias, clause.left_column)
                        )
                if any(v is None for v in bindings.values()):
                    continue
                for inner in self.run(inner_node, {**params, **bindings}):
                    merged = {**outer, **inner}
                    if self._join_match(clauses, merged):
                        out.append(merged)
            return out
        inner_rows = self.run(inner_node, params)
        for outer in outer_rows:
            for inner in inner_rows:
                merged = {**outer, **inner}
                if self._join_match(clauses, merged):
                    out.append(merged)
        return out

    @staticmethod
    def _join_match(clauses, row):
        for clause in clauses:
            left = row.get((clause.left_alias, clause.left_column))
            right = row.get((clause.right_alias, clause.right_column))
            if left is None or right is None or left != right:
                return False
        return True

    def _exec_hashjoin(self, node, params):
        outer_node, inner_node = node.children
        outer_rows = self.run(outer_node, params)
        inner_rows = self.run(inner_node, params)
        return self._equi_join(node.join_clauses, outer_rows, inner_rows)

    def _exec_mergejoin(self, node, params):
        outer_node, inner_node = node.children
        outer_rows = self.run(outer_node, params)
        inner_rows = self.run(inner_node, params)
        joined = self._equi_join(node.join_clauses, outer_rows, inner_rows)
        keys = [
            (a, c)
            for a, c, __ in (outer_node.ordering or ())
        ]
        if keys:
            joined.sort(key=lambda r: tuple(_null_key(r.get(k)) for k in keys))
        return joined

    def _equi_join(self, clauses, outer_rows, inner_rows):
        if not clauses:  # cartesian fallback
            return [{**o, **i} for o in outer_rows for i in inner_rows]
        outer_aliases = set()
        for row in outer_rows[:1]:
            outer_aliases = {a for a, __ in row}
        keys = []
        for clause in clauses:
            if clause.left_alias in outer_aliases:
                keys.append(
                    ((clause.left_alias, clause.left_column),
                     (clause.right_alias, clause.right_column))
                )
            else:
                keys.append(
                    ((clause.right_alias, clause.right_column),
                     (clause.left_alias, clause.left_column))
                )
        table = {}
        for inner in inner_rows:
            key = tuple(inner.get(ik) for __, ik in keys)
            if any(v is None for v in key):
                continue
            table.setdefault(key, []).append(inner)
        out = []
        for outer in outer_rows:
            key = tuple(outer.get(ok) for ok, __ in keys)
            if any(v is None for v in key):
                continue
            for inner in table.get(key, ()):
                out.append({**outer, **inner})
        return out

    # -- unary ----------------------------------------------------------

    def _exec_sort(self, node, params):
        rows = self.run(node.children[0], params)
        for alias, column, ascending in reversed(node.sort_keys):
            rows.sort(
                key=lambda r: _null_key(r.get((alias, column))),
                reverse=not ascending,
            )
        return rows

    def _exec_materialize(self, node, params):
        return self.run(node.children[0], params)

    def _exec_limit(self, node, params):
        return self.run(node.children[0], params)[: node.count]

    def _exec_aggregate(self, node, params):
        rows = self.run(node.children[0], params)
        bq = self.bq
        groups = {}
        for row in rows:
            key = tuple(row.get((a, c)) for a, c in bq.group_by)
            groups.setdefault(key, []).append(row)
        if not bq.group_by and not groups:
            groups[()] = []
        out = []
        for key, members in groups.items():
            result = {}
            for (a, c), v in zip(bq.group_by, key):
                result[(a, c)] = v
            for i, agg in enumerate(bq.aggregates):
                result[("#agg", i)] = _aggregate(agg, members)
            out.append(result)
        return out


def _null_key(value):
    return (value is None, value)


def _aggregate(agg, rows):
    name = agg.name
    if name == "count" and not hasattr(agg.arg, "column"):
        return len(rows)
    column_key = (agg.arg.table, agg.arg.column)
    values = [r.get(column_key) for r in rows]
    values = [v for v in values if v is not None]
    if agg.distinct:
        values = list(set(values))
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    raise PlanningError("unknown aggregate %r" % (name,))
