"""Table definitions with the heap size model attached."""

from dataclasses import dataclass, field

from repro.catalog.column import Column
from repro.catalog import pagemodel
from repro.util import CatalogError


@dataclass
class Table:
    """A base table: columns plus cardinality, with derived page counts.

    A table's row count and column statistics are fixed once it is
    built: every size and price derived from them is memoized without a
    re-check, here and in :mod:`repro.evaluation.memos`.  A re-``ANALYZE``
    builds a new catalog (new ``Table`` objects) and a new evaluator.
    """

    name: str
    columns: list[Column]
    row_count: int = 0

    _by_name: dict = field(init=False, repr=False, compare=False)
    _full_width: int = field(init=False, repr=False, compare=False)
    pages: int = field(init=False, repr=False, compare=False)
    # projected column names -> pages; a partition search asks for the
    # same few fragments' sizes once per candidate layout.
    _projection_pages: dict = field(init=False, repr=False, compare=False)
    # index columns -> btree shape; an index's size reads nothing else,
    # so indexes minted per probe share an entry.
    _index_shapes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name or not self.name.islower():
            raise CatalogError("table names must be non-empty lower-case: %r" % (self.name,))
        if self.row_count < 0:
            raise CatalogError("row_count must be non-negative")
        self._by_name = {}
        for col in self.columns:
            if not isinstance(col, Column):
                raise CatalogError("columns must be Column instances")
            if col.name in self._by_name:
                raise CatalogError("duplicate column %r in table %r" % (col.name, self.name))
            self._by_name[col.name] = col
        self._full_width = sum(c.width for c in self.columns)
        self.pages = pagemodel.heap_pages(self.row_count, self._full_width)
        self._projection_pages = {}
        self._index_shapes = {}

    # ------------------------------------------------------------------

    def column(self, name):
        """Look up a column by name, raising :class:`CatalogError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError("no column %r in table %r" % (name, self.name)) from None

    def has_column(self, name):
        return name in self._by_name

    @property
    def column_names(self):
        return [c.name for c in self.columns]

    def row_width(self, column_names=None):
        """Average data width of a full row, or of a projection."""
        if column_names is None:
            return self._full_width
        return sum(self.column(n).width for n in column_names)

    def projection_pages(self, column_names):
        """Heap pages a vertical fragment holding *column_names* would use
        (includes the 8-byte row id that stitches fragments back together)."""
        key = tuple(column_names)
        pages = self._projection_pages.get(key)
        if pages is None:
            width = self.row_width(key) + 8
            pages = self._projection_pages[key] = pagemodel.heap_pages(
                self.row_count, width
            )
        return pages

    def index_shape(self, index):
        """``(total_pages, height, leaf_pages)`` of *index* on this
        table (``pagemodel.btree_shape`` of its key width)."""
        key = index.all_columns
        shape = self._index_shapes.get(key)
        if shape is None:
            shape = self._index_shapes[key] = pagemodel.btree_shape(
                self.row_count, index.key_width(self)
            )
        return shape

    # ------------------------------------------------------------------

    def build_stats(self, n_buckets=100):
        """Materialize synthetic statistics on every column."""
        for col in self.columns:
            col.build_stats(self.row_count, n_buckets=n_buckets)
        return self

    def stats(self, column_name):
        col = self.column(column_name)
        if col.stats is None:
            col.build_stats(self.row_count)
        return col.stats
