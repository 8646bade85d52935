"""Tests for catalog serialization: round trips and compatibility, and
catalog contents as a trust boundary (the catalog shape of
``wire.SHAPES``, fuzzed by ``tests/shapes.py``)."""

import copy
import json
import math
from functools import partial

import pytest
from hypothesis import event, given

from repro.catalog import (
    HorizontalPartitioning,
    Index,
    VerticalFragment,
    VerticalLayout,
)
from repro.catalog.serialize import (
    catalog_from_dict,
    catalog_to_dict,
)
from repro.evaluation import wire
from repro.optimizer import CostService
from repro.util import CatalogError, ReproError, WireFormatError
from repro.workloads import sdss_catalog, sdss_workload, tpch_catalog

from shapes import conforms, edited, neighbours


def rich_catalog():
    catalog = sdss_catalog(scale=0.02)
    catalog.add_index(Index("photoobj", ("ra", "dec")))
    catalog.add_index(Index("specobj", ("z",), include=("bestobjid",)))
    catalog.set_vertical_layout(
        VerticalLayout(
            "specobj",
            (
                VerticalFragment("specobj", ("specid", "bestobjid", "z")),
                VerticalFragment(
                    "specobj",
                    ("zerr", "zconf", "specclass", "plate", "mjd", "sn_median"),
                ),
            ),
        )
    )
    catalog.set_horizontal_partitioning(
        HorizontalPartitioning("photoobj", "ra", (90.0, 180.0, 270.0))
    )
    return catalog


# Catalog contents a loader used to accept (or fail on untyped): each
# is one WireFormatError now, on every path a catalog arrives by.
_DIST = ("tables", 0, "columns", 1, "distribution")
MALFORMED_CATALOGS = [
    ("correlation-nan", _DIST + ("correlation",), math.nan),
    ("correlation-5", _DIST + ("correlation",), 5.0),
    ("low-nan", _DIST + ("low",), math.nan),
    ("null-frac-nan", _DIST + ("null_frac",), math.nan),
    ("row-count-bool", ("tables", 0, "row_count"), True),
    ("row-count-1e300", ("tables", 0, "row_count"), 1e300),
    ("unknown-type", ("tables", 0, "columns", 1, "dtype"), "varchar2"),
    ("string-bounds", ("design", "horizontals"),
     [{"table_name": "photoobj", "column": "ra", "bounds": "abc"}]),
    ("not-an-object", (), [1]),
]


class TestRoundTrip:
    def test_schema_preserved(self):
        original = rich_catalog()
        restored = catalog_from_dict(catalog_to_dict(original))
        assert restored.table_names == original.table_names
        for name in original.table_names:
            a, b = original.table(name), restored.table(name)
            assert a.row_count == b.row_count
            assert a.column_names == b.column_names
            assert a.row_width() == b.row_width()

    def test_design_preserved(self):
        original = rich_catalog()
        restored = catalog_from_dict(catalog_to_dict(original))
        assert set(ix.name for ix in restored.indexes) == set(
            ix.name for ix in original.indexes
        )
        assert restored.vertical_layout("specobj") is not None
        horizontal = restored.horizontal_partitioning("photoobj")
        assert horizontal.bounds == (90.0, 180.0, 270.0)

    def test_costs_identical_after_round_trip(self):
        """The real contract: the optimizer sees the same database."""
        original = rich_catalog()
        restored = catalog_from_dict(catalog_to_dict(original))
        workload = sdss_workload(n_queries=10, seed=4)
        a = CostService(original).workload_cost(workload)
        b = CostService(restored).workload_cost(workload)
        assert a == pytest.approx(b, rel=1e-9)

    def test_tpch_round_trip(self):
        original = tpch_catalog(scale=0.01)
        restored = catalog_from_dict(catalog_to_dict(original))
        assert restored.table_names == original.table_names

    def test_json_serializable(self):
        payload = catalog_to_dict(rich_catalog())
        text = json.dumps(payload)
        assert catalog_from_dict(json.loads(text)).table_names

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(catalog_to_dict(rich_catalog()), indent=2,
                                   sort_keys=True))
        restored = catalog_from_dict(json.loads(path.read_text()))
        assert "photoobj" in restored.table_names
        assert len(restored.indexes) == 2


class TestValidation:
    @pytest.mark.parametrize("path, value", [case[1:] for case in
                                             MALFORMED_CATALOGS],
                             ids=[case[0] for case in MALFORMED_CATALOGS])
    def test_malformed_contents_are_one_typed_error(
            self, tmp_path, path, value):
        payload = edited(catalog_to_dict(sdss_catalog(scale=0.01)),
                         path, value)
        with pytest.raises(WireFormatError):
            catalog_from_dict(copy.deepcopy(payload))
        file = tmp_path / "catalog.json"
        file.write_text(json.dumps(payload))
        with pytest.raises((CatalogError, WireFormatError)):
            catalog_from_dict(json.loads(file.read_text()))

    def test_stats_rebuilt_on_load(self):
        restored = catalog_from_dict(catalog_to_dict(rich_catalog()))
        stats = restored.table("photoobj").stats("ra")
        assert stats.n_distinct > 1
        assert stats.histogram


class TestCanonicalDump:
    """A dump is a function of the content — indexes in their canonical
    order — even when index names collide across tables."""

    def test_dump_is_stable_across_round_trips(self):
        """dump(load(dump(c))) == dump(c): ordering is a function of the
        content, not of insertion order."""
        first = catalog_to_dict(rich_catalog())
        second = catalog_to_dict(catalog_from_dict(first))
        assert first == second

    def test_dump_is_insertion_order_invariant(self):
        """Catalogs given the same indexes in opposite orders dump alike,
        listing them by their JSON text, whatever order their set
        iterates in."""
        from repro.workloads import sdss_catalog as make_sdss

        indexes = [Index(table, (column,)) for table, column in (
            ("photoobj", "ra"), ("specobj", "z"), ("photoobj", "dec"),
            ("photoobj", "type"), ("specobj", "zerr"), ("photoobj", "rmag"),
            ("photoobj", "gmag"), ("photoobj", "zmag"))]
        a = make_sdss(scale=0.02)
        b = make_sdss(scale=0.02)
        for index in indexes:
            a.add_index(index)
        for index in reversed(indexes):
            b.add_index(index)
        dump = catalog_to_dict(a)
        assert dump == catalog_to_dict(b)
        listed = dump["design"]["indexes"]
        assert listed == sorted(listed, key=partial(json.dumps,
                                                    sort_keys=True))

    def test_colliding_names_across_tables_round_trip(self):
        """Regression: a configuration may hold same-named indexes on
        different tables; the dump must keep both, deterministically."""
        from repro.whatif import Configuration

        collide_a = Index("photoobj", ("ra",), name="k")
        collide_b = Index("specobj", ("z",), name="k")
        config = Configuration.of(collide_a, collide_b)
        payload = wire.record_to_wire(config)
        assert [entry["table_name"] for entry in payload["indexes"]] == \
            ["photoobj", "specobj"]
        restored = wire.record_from_wire(Configuration, payload)
        assert restored.indexes == config.indexes
        assert wire.record_to_wire(restored) == payload

    def test_keys_nothing_reads_are_ignored(self):
        """An ``"id"`` on indexes and fragments, a column's ``width`` or
        ``nullable``: nothing reads them, and the catalog is the same."""
        payload = catalog_to_dict(rich_catalog())
        extra = copy.deepcopy(payload)
        for position, entry in enumerate(extra["design"]["indexes"]):
            entry["id"] = position
        for layout in extra["design"]["layouts"]:
            for position, fragment in enumerate(layout["fragments"]):
                fragment["id"] = position
        for column in extra["tables"][0]["columns"]:
            column.update(width=-3, nullable=False)
        assert catalog_to_dict(catalog_from_dict(extra)) == payload


RICH = catalog_to_dict(rich_catalog())
WORKLOAD = list(sdss_workload(n_queries=3, seed=4))


class TestCatalogFuzz:
    @given(payload=neighbours(RICH, wire.SHAPES[wire.CATALOG]))
    def test_loads_typed_or_prices(self, payload):
        """A catalog's one-mutation neighbours either fail typed — with a
        WireFormatError whenever the shape refuses them — or load into a
        catalog the optimizer prices."""
        try:
            catalog = catalog_from_dict(copy.deepcopy(payload))
        except ReproError as exc:
            event("refused: %s" % type(exc).__name__)
            assert conforms(payload, wire.SHAPES[wire.CATALOG]) \
                or isinstance(exc, WireFormatError)
            return
        event("loaded")
        assert conforms(payload, wire.SHAPES[wire.CATALOG])
        try:
            assert CostService(catalog).workload_cost(WORKLOAD) >= 0
        except ReproError as exc:  # e.g. a table the workload reads dropped
            event("priced: %s" % type(exc).__name__)
