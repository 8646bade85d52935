"""Shared fixtures: a small SDSS-like catalog used across the test suite."""

import pytest
from hypothesis import settings as hypothesis_settings

from repro.catalog import Catalog, Column, DataType, Distribution, Index, Table

# Property tests written without ``max_examples`` take their budget from
# the profile: ``default`` is hypothesis's own 100 examples, ``ci`` ten
# times that (``--hypothesis-profile=ci``); the BIP property tests state
# theirs as a ``share()`` of it (``test_backward_and_solver_props.py``),
# so they scale with the profile too.  No deadline in either: a
# wall-clock verdict on a shared box is noise, and an example here is a
# whole planner run.
hypothesis_settings.register_profile("default", max_examples=100, deadline=None)
hypothesis_settings.register_profile("ci", max_examples=1000, deadline=None)
hypothesis_settings.load_profile("default")


def make_sdss_catalog(photo_rows=1_000_000, spec_rows=80_000):
    """A two-table astronomy catalog with realistic shapes: one wide,
    clustered-on-ra fact table and a smaller spectroscopic table."""
    catalog = Catalog()
    photoobj = Table(
        "photoobj",
        [
            Column("objid", DataType.BIGINT, Distribution(kind="sequence")),
            Column(
                "ra",
                DataType.DOUBLE,
                Distribution(kind="uniform", low=0.0, high=360.0, correlation=0.95),
            ),
            Column("dec", DataType.DOUBLE, Distribution(kind="uniform", low=-90.0, high=90.0)),
            Column("rmag", DataType.FLOAT, Distribution(kind="normal", mu=20.0, sigma=2.0)),
            Column("gmag", DataType.FLOAT, Distribution(kind="normal", mu=21.0, sigma=2.0)),
            Column("type", DataType.INT, Distribution(kind="zipf", n_values=6, s=1.2)),
            Column("flags", DataType.BIGINT, Distribution(kind="uniform_int", low=0, high=2**20)),
            Column("status", DataType.INT, Distribution(kind="uniform_int", low=0, high=100)),
        ],
        row_count=photo_rows,
    ).build_stats()
    catalog.add_table(photoobj)
    specobj = Table(
        "specobj",
        [
            Column("specid", DataType.BIGINT, Distribution(kind="sequence")),
            Column(
                "objid",
                DataType.BIGINT,
                Distribution(kind="uniform_int", low=0, high=photo_rows - 1),
            ),
            Column("z", DataType.FLOAT, Distribution(kind="uniform", low=0.0, high=7.0)),
            Column("zerr", DataType.FLOAT, Distribution(kind="uniform", low=0.0, high=0.1)),
            Column("class", DataType.INT, Distribution(kind="zipf", n_values=3, s=1.0)),
        ],
        row_count=spec_rows,
    ).build_stats()
    catalog.add_table(specobj)
    return catalog


@pytest.fixture
def sdss_catalog():
    return make_sdss_catalog()


@pytest.fixture
def sdss_with_indexes(sdss_catalog):
    catalog = sdss_catalog.clone()
    catalog.add_index(Index("photoobj", ("ra",)))
    catalog.add_index(Index("photoobj", ("objid",)))
    catalog.add_index(Index("specobj", ("z",)))
    return catalog
