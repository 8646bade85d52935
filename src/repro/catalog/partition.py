"""Partition catalog objects: vertical fragments and horizontal range splits.

These model AutoPart's two design dimensions.  A :class:`VerticalLayout`
replaces a table's storage with a set of column fragments (each carrying an
implicit 8-byte row id used to stitch projections back together); a
:class:`HorizontalPartitioning` splits the rows by ranges of one column so
the optimizer can prune partitions against predicates.

Fragments and layouts are memo keys on the pricing hot path (the slot
memo probes ``layout_cover`` once per slot and design), and a frozen
dataclass re-hashes its whole tuple tree on every probe — so both compute
their field-tuple hash once, at construction.  The value is the one the
generated ``__hash__`` would return; equality, ordering and ``repr`` are
the dataclass's own.  Pickling goes through the constructor, because a
string hash belongs to the process that computed it.
"""

from dataclasses import dataclass

from repro.util import CatalogError


@dataclass(frozen=True)
class VerticalFragment:
    """One column group of a vertically partitioned table."""

    table_name: str
    columns: tuple
    name: str = ""

    def __post_init__(self):
        if isinstance(self.columns, list):
            object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise CatalogError("a fragment needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise CatalogError("duplicate column in fragment of %r" % (self.table_name,))
        if not self.name:
            object.__setattr__(
                self, "name", "%s__%s" % (self.table_name, "_".join(self.columns))
            )
        object.__setattr__(
            self, "_hash", hash((self.table_name, self.columns, self.name))
        )

    def __hash__(self):
        return self._hash

    def pages(self, table):
        return table.projection_pages(self.columns)


@dataclass(frozen=True)
class VerticalLayout:
    """A complete vertical partitioning of one table.

    Fragments must jointly cover every column; columns may appear in more
    than one fragment (AutoPart's *replication*), which trades storage for
    fewer stitch joins.
    """

    table_name: str
    fragments: tuple

    def __post_init__(self):
        if isinstance(self.fragments, list):
            object.__setattr__(self, "fragments", tuple(self.fragments))
        if not self.fragments:
            raise CatalogError("a layout needs at least one fragment")
        for frag in self.fragments:
            if frag.table_name != self.table_name:
                raise CatalogError(
                    "fragment of %r in layout of %r" % (frag.table_name, self.table_name)
                )
        object.__setattr__(
            self, "_hash", hash((self.table_name, self.fragments))
        )
        # Referenced columns -> (table, row_count, cover entry): see
        # cover().  Dies with the layout, as a search's candidates do.
        object.__setattr__(self, "_covers", {})

    def __hash__(self):
        return self._hash

    def cover(self, table, needed):
        """``(cover, (pages, fragment count))``: the fragments a scan of
        *table* reading the columns *needed* (a frozenset; empty reads
        every column) stitches — :meth:`fragments_for` — and the two
        numbers of the cover that access costs read.  Memoized by
        *needed*, so the statements of one template share one set
        cover, and validated against the table and its row count."""
        cached = self._covers.get(needed)
        if cached is None or cached[0] is not table \
                or cached[1] != table.row_count:
            cover = tuple(self.fragments_for(needed or table.column_names))
            pages = float(sum(f.pages(table) for f in cover))
            cached = self._covers[needed] = (
                table, table.row_count, (cover, (pages, len(cover))),
            )
        return cached[2]

    def validate_covers(self, table):
        covered = set()
        for frag in self.fragments:
            for col in frag.columns:
                if not table.has_column(col):
                    raise CatalogError(
                        "fragment column %r not in table %r" % (col, table.name)
                    )
                covered.add(col)
        missing = set(table.column_names) - covered
        if missing:
            raise CatalogError(
                "layout of %r misses columns: %s" % (table.name, sorted(missing))
            )

    def total_pages(self, table):
        return sum(f.pages(table) for f in self.fragments)

    def replication_pages(self, table):
        """Extra storage relative to the original unpartitioned table.

        Covers both genuinely replicated columns and per-fragment overhead
        (row ids, page headers) — the quantity AutoPart's replication
        budget constrains.
        """
        return max(0, self.total_pages(table) - table.pages)

    def fragments_for(self, needed_columns):
        """Greedy minimal-page set cover of *needed_columns* by fragments.

        Returns the chosen fragments; raises if the columns cannot be
        covered (which :meth:`validate_covers` should have prevented).
        """
        remaining = set(needed_columns)
        # Only a fragment holding a needed column can ever be chosen, so
        # the rest drop out up front (the survivors keep their order,
        # which is what breaks score ties).
        candidates = []  # (fragment, needed columns it holds, its width)
        for frag in self.fragments:
            useful = remaining.intersection(frag.columns)
            if useful:
                candidates.append((frag, useful, len(frag.columns)))
        chosen = []
        while remaining:
            best = None
            best_score = None
            for pos, (__, useful, width) in enumerate(candidates):
                gain = len(remaining & useful)
                if gain == 0:
                    continue
                score = (width - gain, width)
                if best is None or score < best_score:
                    best, best_score = pos, score
            if best is None:
                raise CatalogError(
                    "layout of %r cannot cover columns %s"
                    % (self.table_name, sorted(remaining))
                )
            frag, useful, __ = candidates.pop(best)
            chosen.append(frag)
            remaining -= useful
        return chosen


@dataclass(frozen=True)
class HorizontalPartitioning:
    """Range partitioning of a table on one column.

    ``bounds`` are the interior split points ``b_1 < b_2 < ... < b_k``,
    yielding ``k + 1`` partitions ``(-inf, b_1), [b_1, b_2), ..., [b_k, +inf)``.
    """

    table_name: str
    column: str
    bounds: tuple

    def __post_init__(self):
        if isinstance(self.bounds, list):
            object.__setattr__(self, "bounds", tuple(self.bounds))
        if not self.bounds:
            raise CatalogError("horizontal partitioning needs at least one bound")
        for a, b in zip(self.bounds, self.bounds[1:]):
            if not a < b:
                raise CatalogError("bounds must be strictly increasing")

    @property
    def partition_count(self):
        return len(self.bounds) + 1

    def partition_range(self, i):
        """Half-open range ``(low, high)`` of partition *i* (None = open)."""
        low = self.bounds[i - 1] if i > 0 else None
        high = self.bounds[i] if i < len(self.bounds) else None
        return low, high

    def matching_partitions(self, low=None, high=None):
        """Indexes of partitions intersecting the query interval [low, high]."""
        matches = []
        for i in range(self.partition_count):
            p_low, p_high = self.partition_range(i)
            if low is not None and p_high is not None and p_high <= low:
                continue
            if high is not None and p_low is not None and p_low > high:
                continue
            matches.append(i)
        return matches
