"""Catalog (de)serialization to plain JSON-compatible dictionaries.

The format captures the logical schema, the generative distributions
and the physical design (indexes + partitions); statistics are derived
from the distributions on load, exactly as a fresh ANALYZE would.  A
payload from outside is checked against its ``wire.SHAPES`` entry first.
A catalog or a design travels only inside a wire envelope, whose
version :func:`repro.evaluation.wire.check_version` checks, so it
carries no version of its own.

Indexes are emitted in a canonical order: their full identity key, not
just the name, because index *names* are only unique per catalog — a
configuration (or a tenant snapshot) may legally hold same-named
indexes on different tables.  So a dump is a function of the content,
never of insertion order, and survives round-trips byte-for-byte
(``dump(load(dump(c))) == dump(c)``).  Vertical fragments keep their
order within a layout, not canonicalized, because it is semantic — the
greedy set cover in ``fragments_for`` breaks ties by fragment order,
so reordering would change restored plans.  Files written when indexes
and fragments carried an ``"id"`` still load: no decoder reads one.
"""

from repro.catalog.column import Column
from repro.catalog.index import Index
from repro.catalog.partition import (
    HorizontalPartitioning,
    VerticalFragment,
    VerticalLayout,
)
from repro.catalog.schema import Catalog
from repro.catalog.stats import Distribution
from repro.catalog.table import Table
from repro.catalog.types import DataType
from repro.evaluation import wire


def index_sort_key(index):
    """Canonical ordering key: the index's full identity, so ordering
    never depends on insertion order or on name uniqueness across
    tables."""
    return (
        index.table_name,
        index.name,
        index.columns,
        index.include,
        index.unique,
    )


def catalog_to_dict(catalog):
    """Serializable snapshot of *catalog*."""
    return {
        "tables": [_table_to_dict(t) for t in catalog.tables],
        "indexes": [
            index_to_dict(ix)
            for ix in sorted(catalog.indexes, key=index_sort_key)
        ],
        "vertical_layouts": [
            _layout_to_dict(layout)
            for layout in sorted(
                catalog.vertical_layouts.values(),
                key=lambda l: l.table_name,
            )
        ],
        "horizontal_partitionings": [
            _horizontal_to_dict(h)
            for h in map(catalog.horizontal_partitioning, catalog.table_names)
            if h is not None
        ],
    }


def catalog_from_dict(payload):
    """Rebuild a catalog (with fresh synthetic statistics).  A payload
    without the catalog shape raises :class:`~repro.util.WireFormatError`;
    one whose design does not fit its tables,
    :class:`~repro.util.CatalogError`."""
    wire.conform(payload, wire.SHAPES[wire.CATALOG], wire.CATALOG)
    catalog = Catalog()
    for tdict in payload["tables"]:
        catalog.add_table(_table_from_dict(tdict).build_stats())
    for ixdict in payload["indexes"]:
        catalog.add_index(index_from_dict(ixdict))
    for ldict in payload["vertical_layouts"]:
        catalog.set_vertical_layout(_layout_from_dict(ldict))
    for hdict in payload["horizontal_partitionings"]:
        catalog.set_horizontal_partitioning(_horizontal_from_dict(hdict))
    return catalog


def configuration_to_dict(configuration):
    """Serializable snapshot of a hypothetical design (a tuning session's
    outcome): indexes + partition layouts, independent of any catalog.

    Indexes sort by full identity, not name: a configuration may hold
    same-named indexes on different tables, and the dump must still be
    deterministic and loss-free."""
    return {
        "indexes": [
            index_to_dict(ix)
            for ix in sorted(configuration.indexes, key=index_sort_key)
        ],
        "vertical_layouts": [
            _layout_to_dict(layout) for layout in configuration.layouts
        ],
        "horizontal_partitionings": [
            _horizontal_to_dict(h) for h in configuration.horizontals
        ],
    }


def configuration_from_dict(payload):
    from repro.whatif import Configuration

    wire.conform(payload, wire.SHAPES[wire.CONFIGURATION],
                 wire.CONFIGURATION)
    return Configuration(
        indexes=frozenset(index_from_dict(d) for d in payload["indexes"]),
        layouts=tuple(
            _layout_from_dict(d) for d in payload["vertical_layouts"]
        ),
        horizontals=tuple(
            _horizontal_from_dict(d)
            for d in payload["horizontal_partitionings"]
        ),
    )


# ----------------------------------------------------------------------


def _table_to_dict(table):
    return {
        "name": table.name,
        "row_count": table.row_count,
        "columns": [
            {
                "name": col.name,
                "type": col.dtype.value,
                "width": col.width,
                "nullable": col.nullable,
                "distribution": (None if col.distribution is None else
                                 wire.record_to_wire(col.distribution)),
            }
            for col in table.columns
        ],
    }


def _table_from_dict(payload):
    columns = [
        Column(
            cdict["name"],
            DataType(cdict["type"]),
            distribution=(None if cdict["distribution"] is None else
                          wire.record_from_wire(Distribution,
                                                cdict["distribution"])),
            width=cdict["width"],
            nullable=cdict["nullable"],
        )
        for cdict in payload["columns"]
    ]
    return Table(payload["name"], columns, row_count=payload["row_count"])


def index_to_dict(index):
    """Self-contained index payload."""
    return {
        "table": index.table_name,
        "columns": list(index.columns),
        "include": list(index.include),
        "unique": index.unique,
        "name": index.name,
    }


def index_from_dict(payload):
    return Index(
        payload["table"],
        tuple(payload["columns"]),
        include=tuple(payload["include"]),
        unique=payload["unique"],
        name=payload["name"],
    )


def _layout_to_dict(layout):
    return {
        "table": layout.table_name,
        "fragments": [
            {"columns": list(f.columns), "name": f.name}
            for f in layout.fragments
        ],
    }


def _layout_from_dict(payload):
    fragments = tuple(
        VerticalFragment(
            payload["table"], tuple(f["columns"]), name=f["name"]
        )
        for f in payload["fragments"]
    )
    return VerticalLayout(payload["table"], fragments)


def _horizontal_to_dict(h):
    return {"table": h.table_name, "column": h.column,
            "bounds": list(h.bounds)}


def _horizontal_from_dict(payload):
    return HorizontalPartitioning(
        payload["table"], payload["column"], tuple(payload["bounds"])
    )
