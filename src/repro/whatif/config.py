"""Hypothetical physical-design configurations.

A :class:`Configuration` is an immutable bundle of indexes and partition
layouts.  Designer components pass configurations around as values (sets,
dict keys), and :meth:`Configuration.apply` turns one into a catalog
overlay for the optimizer — the moral equivalent of HypoPG's hypothetical
catalog entries.
"""

from dataclasses import dataclass

from repro.catalog import HorizontalPartitioning, Index, VerticalLayout
from repro.util import DesignError


@dataclass(frozen=True)
class Configuration:
    """An immutable set of design features (indexes + partitions)."""

    indexes: frozenset[Index] = frozenset()
    layouts: tuple[VerticalLayout, ...] = ()
    horizontals: tuple[HorizontalPartitioning, ...] = ()

    def __post_init__(self):
        if not isinstance(self.indexes, frozenset):
            object.__setattr__(self, "indexes", frozenset(self.indexes))
        for ix in self.indexes:
            if not isinstance(ix, Index):
                raise DesignError("configuration indexes must be Index objects")
        layouts = tuple(sorted(self.layouts, key=lambda l: l.table_name))
        object.__setattr__(self, "layouts", layouts)
        seen = set()
        for layout in layouts:
            if not isinstance(layout, VerticalLayout):
                raise DesignError("layouts must be VerticalLayout objects")
            if layout.table_name in seen:
                raise DesignError(
                    "two vertical layouts for table %r" % (layout.table_name,)
                )
            seen.add(layout.table_name)
        horizontals = tuple(sorted(self.horizontals, key=lambda h: h.table_name))
        object.__setattr__(self, "horizontals", horizontals)
        seen = set()
        for horizontal in horizontals:
            if not isinstance(horizontal, HorizontalPartitioning):
                raise DesignError("horizontals must be HorizontalPartitioning objects")
            if horizontal.table_name in seen:
                raise DesignError(
                    "two horizontal partitionings for table %r"
                    % (horizontal.table_name,)
                )
            seen.add(horizontal.table_name)

    # ------------------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def of(cls, *indexes):
        """Convenience: a configuration of just these indexes."""
        return cls(indexes=frozenset(indexes))

    @property
    def is_empty(self):
        return not self.indexes and not self.layouts and not self.horizontals

    def with_indexes(self, *indexes):
        return Configuration(
            indexes=self.indexes | frozenset(indexes),
            layouts=self.layouts,
            horizontals=self.horizontals,
        )

    def with_layout(self, layout):
        others = tuple(l for l in self.layouts if l.table_name != layout.table_name)
        return Configuration(
            indexes=self.indexes,
            layouts=others + (layout,),
            horizontals=self.horizontals,
        )

    def with_horizontal(self, horizontal):
        others = tuple(
            h for h in self.horizontals if h.table_name != horizontal.table_name
        )
        return Configuration(
            indexes=self.indexes,
            layouts=self.layouts,
            horizontals=others + (horizontal,),
        )

    def union(self, other):
        merged = self
        for layout in other.layouts:
            merged = merged.with_layout(layout)
        for horizontal in other.horizontals:
            merged = merged.with_horizontal(horizontal)
        return Configuration(
            indexes=self.indexes | other.indexes,
            layouts=merged.layouts,
            horizontals=merged.horizontals,
        )

    # ------------------------------------------------------------------

    def apply(self, catalog):
        """Overlay this configuration on *catalog* (returns a clone)."""
        overlay = catalog.clone()
        for ix in sorted(self.indexes, key=lambda i: i.name):
            if not overlay.has_index(ix):
                overlay.add_index(ix)
        for layout in self.layouts:
            overlay.set_vertical_layout(layout)
        for horizontal in self.horizontals:
            overlay.set_horizontal_partitioning(horizontal)
        return overlay

    def build_cost(self, catalog):
        """Total estimated materialization cost of all features."""
        cost = 0.0
        for ix in self.indexes:
            if not catalog.has_index(ix):
                cost += ix.build_cost(catalog.table(ix.table_name))
        for layout in self.layouts:
            table = catalog.table(layout.table_name)
            # Rewriting a table into fragments: read once, write all fragments.
            cost += table.pages + layout.total_pages(table)
        for horizontal in self.horizontals:
            table = catalog.table(horizontal.table_name)
            cost += 2.0 * table.pages
        return cost

    def describe(self):
        lines = []
        for ix in sorted(self.indexes, key=lambda i: i.name):
            lines.append(ix.sql())
        for layout in self.layouts:
            frags = ", ".join("{%s}" % ",".join(f.columns) for f in layout.fragments)
            lines.append("PARTITION %s VERTICALLY AS %s" % (layout.table_name, frags))
        for horizontal in self.horizontals:
            lines.append(
                "PARTITION %s BY RANGE (%s) INTO %d"
                % (horizontal.table_name, horizontal.column, horizontal.partition_count)
            )
        return "\n".join(lines) if lines else "(empty configuration)"
