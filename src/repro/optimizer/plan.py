"""Plan tree nodes with EXPLAIN-style rendering.

Every node carries PostgreSQL-shaped accounting: ``startup_cost``,
``total_cost``, estimated output ``rows`` and ``width``, and the output
``ordering`` (a tuple of ``(alias, column, ascending)`` pathkeys).
Parameterized nodes (inner sides of index nested loops) have costs *per
probe* and ``is_parameterized`` set.
"""

from dataclasses import dataclass


@dataclass(slots=True)
class Plan:
    """Base plan node.

    Nodes are immutable once constructed (derive variants with
    ``dataclasses.replace``): access paths are memoized per scan context
    and shared between plans and configurations.
    """

    startup_cost: float = 0.0
    total_cost: float = 0.0
    rows: float = 1.0
    width: int = 8
    ordering: tuple = ()
    children: tuple = ()
    is_parameterized: bool = False

    @property
    def node_type(self):
        return type(self).__name__

    def describe(self):
        """One-line detail shown in EXPLAIN output; nodes override."""
        return ""

    def rescan_cost(self):
        """Cost of re-running this node for one more outer row."""
        return self.total_cost

    def explain(self, indent=0, out=None):
        """Render the subtree like ``EXPLAIN`` (costs, rows, width)."""
        lines = out if out is not None else []
        pad = "  " * indent
        arrow = "->  " if indent else ""
        detail = self.describe()
        head = "%s%s%s" % (pad, arrow, self.node_type)
        if detail:
            head += " " + detail
        head += "  (cost=%.2f..%.2f rows=%.0f width=%d)" % (
            self.startup_cost,
            self.total_cost,
            max(1.0, self.rows),
            self.width,
        )
        lines.append(head)
        for child in self.children:
            child.explain(indent + 1, lines)
        if out is None:
            return "\n".join(lines)
        return None

    def walk(self):
        """Yield every node in the subtree (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def indexes_used(self):
        """Set of Index objects referenced anywhere in the subtree."""
        used = set()
        for node in self.walk():
            index = getattr(node, "index", None)
            if index is not None:
                used.add(index)
            for multi in getattr(node, "indexes", ()) or ():
                used.add(multi)
        return used


# ----------------------------------------------------------------------
# Base-relation scans.
# ----------------------------------------------------------------------


@dataclass(slots=True)
class SeqScan(Plan):
    table_name: str = ""
    alias: str = ""
    filters: tuple = ()

    def describe(self):
        name = self.table_name if self.alias == self.table_name else (
            "%s %s" % (self.table_name, self.alias)
        )
        text = "on %s" % name
        if self.filters:
            text += " [%s]" % "; ".join(f.describe() for f in self.filters)
        return text


@dataclass(slots=True)
class IndexScan(Plan):
    table_name: str = ""
    alias: str = ""
    index: object = None
    index_filters: tuple = ()  # boundary conditions matched to the key prefix
    heap_filters: tuple = ()  # residual quals checked on the heap tuple
    index_only: bool = False
    param_columns: tuple = ()  # join columns probed (parameterized scans)
    backward: bool = False  # scanned in reverse key order

    @property
    def node_type(self):
        return "IndexOnlyScan" if self.index_only else "IndexScan"

    def describe(self):
        text = "using %s on %s %s" % (self.index.name, self.table_name, self.alias)
        if self.backward:
            text = "backward " + text
        if self.index_filters:
            text += " cond[%s]" % "; ".join(f.describe() for f in self.index_filters)
        if self.heap_filters:
            text += " filter[%s]" % "; ".join(f.describe() for f in self.heap_filters)
        return text


@dataclass(slots=True)
class BitmapHeapScan(Plan):
    table_name: str = ""
    alias: str = ""
    index: object = None
    index_filters: tuple = ()
    heap_filters: tuple = ()

    def describe(self):
        text = "on %s %s via %s" % (self.table_name, self.alias, self.index.name)
        if self.index_filters:
            text += " cond[%s]" % "; ".join(f.describe() for f in self.index_filters)
        return text


@dataclass(slots=True)
class BitmapAndScan(Plan):
    """Heap scan driven by the intersection of several index bitmaps
    (PostgreSQL's BitmapAnd): each index contributes one boundary
    condition; the heap is visited once with the combined selectivity."""

    table_name: str = ""
    alias: str = ""
    indexes: tuple = ()  # one Index per AND arm
    arm_filters: tuple = ()  # the boundary filter matched by each arm
    heap_filters: tuple = ()

    def describe(self):
        arms = " AND ".join(ix.name for ix in self.indexes)
        return "on %s %s via %s" % (self.table_name, self.alias, arms)


@dataclass(slots=True)
class FragmentScan(Plan):
    """Scan of a vertically partitioned table: reads the chosen fragments
    and stitches them by row id (AutoPart layouts)."""

    table_name: str = ""
    alias: str = ""
    fragments: tuple = ()
    filters: tuple = ()

    def describe(self):
        frag_text = ", ".join("{%s}" % ",".join(f.columns) for f in self.fragments)
        return "on %s %s fragments %s" % (self.table_name, self.alias, frag_text)


@dataclass(slots=True)
class AppendScan(Plan):
    """Union of surviving horizontal partitions after pruning."""

    table_name: str = ""
    alias: str = ""
    partitions_scanned: int = 0
    partitions_total: int = 0

    def describe(self):
        return "on %s %s (%d of %d partitions)" % (
            self.table_name,
            self.alias,
            self.partitions_scanned,
            self.partitions_total,
        )


# ----------------------------------------------------------------------
# Joins.
# ----------------------------------------------------------------------


@dataclass(slots=True)
class NestLoop(Plan):
    join_clauses: tuple = ()

    def describe(self):
        if not self.join_clauses:
            return "(cartesian)"
        return "on " + " AND ".join(j.describe() for j in self.join_clauses)


@dataclass(slots=True)
class HashJoin(Plan):
    join_clauses: tuple = ()
    batches: int = 1

    def describe(self):
        text = "on " + " AND ".join(j.describe() for j in self.join_clauses)
        if self.batches > 1:
            text += " (batches=%d)" % self.batches
        return text


@dataclass(slots=True)
class MergeJoin(Plan):
    join_clauses: tuple = ()

    def describe(self):
        return "on " + " AND ".join(j.describe() for j in self.join_clauses)


# ----------------------------------------------------------------------
# Unary operators.
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Sort(Plan):
    sort_keys: tuple = ()
    external: bool = False

    def describe(self):
        keys = ", ".join(
            "%s.%s%s" % (a, c, "" if asc else " DESC") for a, c, asc in self.sort_keys
        )
        return "by %s%s" % (keys, " (external)" if self.external else "")

    def rescan_cost(self):
        # A finished sort is rescanned from its result storage.
        child = self.children[0]
        return 0.01 * max(1.0, self.rows) if not self.external else self.total_cost - child.total_cost


@dataclass(slots=True)
class Materialize(Plan):
    def rescan_cost(self):
        return self.rescan_cost_of(self.rows)

    @staticmethod
    def rescan_cost_of(rows):
        """Re-reading *rows* stored rows: what join costing charges for
        a Materialize it has not built yet."""
        return 0.0025 * max(1.0, rows)


@dataclass(slots=True)
class Aggregate(Plan):
    strategy: str = "hash"  # hash | sorted | plain
    group_columns: tuple = ()
    n_aggregates: int = 0

    def describe(self):
        if not self.group_columns:
            return "(plain)"
        cols = ", ".join("%s.%s" % (a, c) for a, c in self.group_columns)
        return "(%s) by %s" % (self.strategy, cols)


@dataclass(slots=True)
class Limit(Plan):
    count: int = 0

    def describe(self):
        return "%d" % self.count
