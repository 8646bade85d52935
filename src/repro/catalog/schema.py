"""The catalog: tables, indexes, and partition layouts.

A :class:`Catalog` is cheap to copy (:meth:`clone`), which is how the
what-if component builds hypothetical configurations without mutating the
"real" database state — the Python analogue of the paper's modified
optimizer that sees simulated indexes and partitioned tables.
"""

from repro.catalog.index import Index
from repro.catalog.partition import HorizontalPartitioning, VerticalLayout
from repro.catalog.table import Table
from repro.catalog.types import DataType
from repro.util import CatalogError


class Catalog:
    """A named collection of tables plus their physical design."""

    def __init__(self):
        self._tables = {}
        self._indexes = {}
        self._layouts = {}
        self._horizontals = {}

    # ------------------------------------------------------------------
    # Tables.
    # ------------------------------------------------------------------

    def add_table(self, table):
        if not isinstance(table, Table):
            raise CatalogError("add_table expects a Table")
        if table.name in self._tables:
            raise CatalogError("table %r already exists" % (table.name,))
        self._tables[table.name] = table
        return table

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError("no table named %r" % (name,)) from None

    @property
    def tables(self):
        return list(self._tables.values())

    @property
    def table_names(self):
        return list(self._tables)

    # ------------------------------------------------------------------
    # Indexes.
    # ------------------------------------------------------------------

    def add_index(self, index):
        if not isinstance(index, Index):
            raise CatalogError("add_index expects an Index")
        table = self.table(index.table_name)
        for col in index.all_columns:
            if not table.has_column(col):
                raise CatalogError(
                    "index column %r not in table %r" % (col, table.name)
                )
        if index.name in self._indexes:
            existing = self._indexes[index.name]
            if existing == index:
                return index  # idempotent re-add of the same definition
            raise CatalogError("index name %r already in use" % (index.name,))
        self._indexes[index.name] = index
        return index

    def index(self, name):
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError("no index named %r" % (name,)) from None

    def has_index(self, index):
        """True if an identical index definition already exists."""
        return any(ix == index for ix in self._indexes.values())

    @property
    def indexes(self):
        return list(self._indexes.values())

    def indexes_on(self, table_name):
        return [ix for ix in self._indexes.values() if ix.table_name == table_name]

    # ------------------------------------------------------------------
    # Partitions.
    # ------------------------------------------------------------------

    def set_vertical_layout(self, layout):
        if not isinstance(layout, VerticalLayout):
            raise CatalogError("set_vertical_layout expects a VerticalLayout")
        layout.validate_covers(self.table(layout.table_name))
        self._layouts[layout.table_name] = layout
        return layout

    def vertical_layout(self, table_name):
        return self._layouts.get(table_name)

    @property
    def vertical_layouts(self):
        return dict(self._layouts)

    def set_horizontal_partitioning(self, part):
        if not isinstance(part, HorizontalPartitioning):
            raise CatalogError("expects a HorizontalPartitioning")
        table = self.table(part.table_name)
        if not table.has_column(part.column):
            raise CatalogError(
                "partition column %r not in table %r" % (part.column, table.name)
            )
        # Bounds are compared with the column's filter values.
        if table.column(part.column).dtype is not DataType.TEXT and any(
                isinstance(bound, str) for bound in part.bounds):
            raise CatalogError("text bounds on number column %r"
                               % (part.column,))
        self._horizontals[part.table_name] = part
        return part

    def horizontal_partitioning(self, table_name):
        return self._horizontals.get(table_name)

    # ------------------------------------------------------------------
    # Design-level accounting and cloning.
    # ------------------------------------------------------------------

    def design_size_pages(self):
        """Pages used by secondary structures: indexes + replicated columns."""
        pages = 0
        for ix in self._indexes.values():
            pages += ix.size_pages(self.table(ix.table_name))
        for layout in self._layouts.values():
            pages += layout.replication_pages(self.table(layout.table_name))
        return pages

    def clone(self):
        """Shallow-copy the catalog: shares Table objects (they are not
        mutated by design changes) but copies the design dictionaries."""
        other = Catalog()
        other._tables = dict(self._tables)
        other._indexes = dict(self._indexes)
        other._layouts = dict(self._layouts)
        other._horizontals = dict(self._horizontals)
        return other

    def describe(self):
        """Human-readable one-screen summary used by example scripts."""
        lines = []
        for table in self.tables:
            lines.append(
                "%s: %d rows, %d pages, %d columns"
                % (table.name, table.row_count, table.pages, len(table.columns))
            )
            for ix in self.indexes_on(table.name):
                lines.append("  index %s (%d pages)" % (ix, ix.size_pages(table)))
            layout = self.vertical_layout(table.name)
            if layout is not None:
                frags = ", ".join(
                    "{%s}" % ",".join(f.columns) for f in layout.fragments
                )
                lines.append("  vertical layout: %s" % frags)
            horiz = self.horizontal_partitioning(table.name)
            if horiz is not None:
                lines.append(
                    "  horizontal: %s into %d ranges"
                    % (horiz.column, horiz.partition_count)
                )
        return "\n".join(lines)
