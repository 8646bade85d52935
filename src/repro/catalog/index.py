"""Secondary (btree) index definitions with the btree size model.

Indexes are frozen and hashable: the designer components treat sets of
indexes as *configurations* and use them as dictionary keys everywhere, so
value semantics are essential — and so is a cheap hash: a cold partitioned
``recommend`` hashes ``Index`` objects 2.8 M times, so the field-tuple
hash (the value the generated ``__hash__`` would return) is computed once,
at construction, like the partition objects' (``catalog/partition.py``).
"""

from dataclasses import dataclass

from repro.util import CatalogError


@dataclass(frozen=True)
class Index:
    """A btree index over ``columns`` (in key order) of ``table_name``.

    ``include`` lists non-key INCLUDE columns (they widen the leaf tuples
    and enable index-only scans without affecting ordering).
    """

    table_name: str
    columns: tuple[str, ...]
    include: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self):
        if not self.columns:
            raise CatalogError("an index needs at least one key column")
        if isinstance(self.columns, list):
            object.__setattr__(self, "columns", tuple(self.columns))
        if isinstance(self.include, list):
            object.__setattr__(self, "include", tuple(self.include))
        seen = set(self.columns) | set(self.include)
        if len(seen) != len(self.columns) + len(self.include):
            raise CatalogError("duplicate column in index on %r" % (self.table_name,))
        if not self.name:
            suffix = "_".join(self.columns)
            if self.include:
                suffix += "_inc_" + "_".join(self.include)
            object.__setattr__(self, "name", "ix_%s_%s" % (self.table_name, suffix))
        object.__setattr__(self, "_hash", hash(self._astuple()))

    def _astuple(self):
        return (self.table_name, self.columns, self.include, self.name)

    def __hash__(self):
        return self._hash

    # ------------------------------------------------------------------

    @property
    def all_columns(self):
        return self.columns + self.include

    def covers(self, needed_columns):
        """True if an index-only scan can answer a query needing these columns."""
        return set(needed_columns) <= set(self.all_columns)

    def key_width(self, table):
        return sum(table.column(c).width for c in self.all_columns) + 6  # heap TID

    def shape(self, table):
        """``(total_pages, height, leaf_pages)`` for this index on *table*."""
        if table.name != self.table_name:
            raise CatalogError(
                "index on %r sized against table %r" % (self.table_name, table.name)
            )
        return table.index_shape(self)

    def size_pages(self, table):
        return self.shape(table)[0]

    def build_cost(self, table):
        """Estimated cost of materializing the index (CREATE INDEX).

        Modeled as a full heap scan plus an external sort of the keys plus
        writing the leaf pages — the dominant terms of a real btree build.
        """
        from repro.util import safe_log2

        rows = max(1, table.row_count)
        scan = table.pages * 1.0 + rows * 0.01
        sort = 2.0 * 0.0025 * rows * safe_log2(rows)
        total_pages, __, __ = self.shape(table)
        write = total_pages * 1.0
        return scan + sort + write

    def sql(self):
        """CREATE INDEX statement for display in reports."""
        stmt = "CREATE INDEX %s ON %s (%s)" % (
            self.name,
            self.table_name,
            ", ".join(self.columns),
        )
        if self.include:
            stmt += " INCLUDE (%s)" % ", ".join(self.include)
        return stmt

    def __str__(self):
        return "%s(%s)" % (self.table_name, ",".join(self.columns))
