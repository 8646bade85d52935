"""Catalog (de)serialization to plain JSON-compatible dictionaries.

A catalog's payload is ``{"tables": [...], "design": ...}``: its tables
(the logical schema and the generative distributions) and its physical
design as a :class:`~repro.whatif.Configuration`, each a record of the
one wire codec (:func:`repro.evaluation.wire.record_to_wire`), so a dump
is a function of the content.  A layout's fragments keep their order:
the greedy set cover in ``fragments_for`` breaks ties by it.
Statistics are derived from the distributions on load, exactly as a
fresh ANALYZE would.  A payload from outside is checked against its
``wire.SHAPES`` entry first.  A catalog travels only inside a wire
envelope, whose version :func:`repro.evaluation.wire.check_version`
checks, so it carries no version of its own.
"""

from repro.catalog.schema import Catalog
from repro.catalog.table import Table
from repro.evaluation import wire
from repro.whatif import Configuration


def catalog_to_dict(catalog):
    """Serializable snapshot of *catalog*."""
    design = Configuration(
        indexes=catalog.indexes,
        layouts=tuple(catalog.vertical_layouts.values()),
        horizontals=tuple(filter(None, map(catalog.horizontal_partitioning,
                                           catalog.table_names))),
    )
    return {"tables": [wire.record_to_wire(t) for t in catalog.tables],
            "design": wire.record_to_wire(design)}


def catalog_from_dict(payload):
    """Rebuild a catalog (with fresh synthetic statistics).  A payload
    without the catalog shape raises :class:`~repro.util.WireFormatError`;
    one whose design does not fit its tables, a
    :class:`~repro.util.ReproError`."""
    wire.conform(payload, wire.SHAPES[wire.CATALOG], wire.CATALOG)
    catalog = Catalog()
    for table in payload["tables"]:
        catalog.add_table(wire.record_from_wire(Table, table).build_stats())
    design = wire.record_from_wire(Configuration, payload["design"])
    return design.apply(catalog)
