"""SDSS-like scientific schema and astronomy workload generator.

The demo evaluates against the Sloan Digital Sky Survey: very wide
photometric tables with selective sky-coordinate and magnitude predicates,
joins to the spectroscopic table, and aggregation over object classes.
This module synthesizes that shape (a substitute for the real SDSS data):
``photoobj`` is wide (30 columns) so vertical partitioning pays off,
``ra`` is the physical clustering key, magnitudes are normal-distributed,
and object types are Zipf-skewed.
"""

import random

from repro.catalog import Catalog, Column, DataType, Distribution, Table
from repro.workloads.workload import Workload

# Photometric magnitude bands as in SDSS (u, g, r, i, z).
BANDS = ("u", "g", "r", "i", "z")


def sdss_catalog(scale=1.0):
    """Build the SDSS-like catalog.  ``scale=1.0`` is ~2M photo objects."""
    photo_rows = max(1000, int(2_000_000 * scale))
    spec_rows = max(200, int(150_000 * scale))
    field_rows = max(50, int(20_000 * scale))
    neighbor_rows = max(500, int(800_000 * scale))

    catalog = Catalog()

    photo_columns = [
        Column("objid", DataType.BIGINT, Distribution(kind="sequence")),
        Column("skyversion", DataType.INT, Distribution(kind="uniform_int", low=0, high=2)),
        Column("run", DataType.INT, Distribution(kind="uniform_int", low=94, high=8162)),
        Column("camcol", DataType.INT, Distribution(kind="uniform_int", low=1, high=6)),
        Column("fieldid", DataType.INT,
               Distribution(kind="uniform_int", low=0, high=field_rows - 1, correlation=0.8)),
        Column("ra", DataType.DOUBLE,
               Distribution(kind="uniform", low=0.0, high=360.0, correlation=0.95)),
        Column("dec", DataType.DOUBLE, Distribution(kind="uniform", low=-25.0, high=85.0)),
        Column("type", DataType.INT, Distribution(kind="zipf", n_values=6, s=1.1)),
        Column("mode", DataType.INT, Distribution(kind="zipf", n_values=3, s=1.5)),
        Column("status", DataType.INT, Distribution(kind="uniform_int", low=0, high=255)),
        Column("flags", DataType.BIGINT, Distribution(kind="uniform_int", low=0, high=2**30)),
        Column("rowc", DataType.FLOAT, Distribution(kind="uniform", low=0.0, high=1489.0)),
        Column("colc", DataType.FLOAT, Distribution(kind="uniform", low=0.0, high=2048.0)),
        Column("petror50", DataType.FLOAT, Distribution(kind="normal", mu=3.0, sigma=1.5)),
        Column("petror90", DataType.FLOAT, Distribution(kind="normal", mu=7.0, sigma=3.0)),
    ]
    for band in BANDS:
        photo_columns.append(
            Column(
                band + "mag",
                DataType.FLOAT,
                Distribution(kind="normal", mu=20.0 + BANDS.index(band) * 0.4, sigma=2.0),
            )
        )
        photo_columns.append(
            Column(
                band + "err",
                DataType.FLOAT,
                Distribution(kind="uniform", low=0.0, high=0.5),
            )
        )
        photo_columns.append(
            Column(
                "extinction_" + band,
                DataType.FLOAT,
                Distribution(kind="uniform", low=0.0, high=1.2),
            )
        )
    catalog.add_table(Table("photoobj", photo_columns, row_count=photo_rows).build_stats())

    catalog.add_table(
        Table(
            "specobj",
            [
                Column("specid", DataType.BIGINT, Distribution(kind="sequence")),
                Column("bestobjid", DataType.BIGINT,
                       Distribution(kind="uniform_int", low=0, high=photo_rows - 1)),
                Column("z", DataType.FLOAT, Distribution(kind="uniform", low=0.0, high=7.0)),
                Column("zerr", DataType.FLOAT, Distribution(kind="uniform", low=0.0, high=0.01)),
                Column("zconf", DataType.FLOAT, Distribution(kind="uniform", low=0.0, high=1.0)),
                Column("specclass", DataType.INT, Distribution(kind="zipf", n_values=6, s=1.0)),
                Column("plate", DataType.INT, Distribution(kind="uniform_int", low=266, high=2974)),
                Column("mjd", DataType.INT,
                       Distribution(kind="uniform_int", low=51578, high=54663, correlation=0.9)),
                Column("sn_median", DataType.FLOAT, Distribution(kind="normal", mu=10.0, sigma=5.0)),
            ],
            row_count=spec_rows,
        ).build_stats()
    )

    catalog.add_table(
        Table(
            "field",
            [
                Column("fieldid", DataType.INT, Distribution(kind="sequence")),
                Column("run", DataType.INT, Distribution(kind="uniform_int", low=94, high=8162)),
                Column("camcol", DataType.INT, Distribution(kind="uniform_int", low=1, high=6)),
                Column("quality", DataType.INT, Distribution(kind="zipf", n_values=4, s=1.3)),
                Column("mjd", DataType.INT,
                       Distribution(kind="uniform_int", low=51075, high=54663)),
                Column("seeing", DataType.FLOAT, Distribution(kind="normal", mu=1.4, sigma=0.3)),
                Column("sky_r", DataType.FLOAT, Distribution(kind="normal", mu=21.0, sigma=0.5)),
            ],
            row_count=field_rows,
        ).build_stats()
    )

    catalog.add_table(
        Table(
            "neighbors",
            [
                Column("objid", DataType.BIGINT,
                       Distribution(kind="uniform_int", low=0, high=photo_rows - 1, correlation=0.9)),
                Column("neighborobjid", DataType.BIGINT,
                       Distribution(kind="uniform_int", low=0, high=photo_rows - 1)),
                Column("distance", DataType.FLOAT, Distribution(kind="uniform", low=0.0, high=0.5)),
                Column("neighbortype", DataType.INT, Distribution(kind="zipf", n_values=6, s=1.1)),
            ],
            row_count=neighbor_rows,
        ).build_stats()
    )
    return catalog


# ----------------------------------------------------------------------
# Query templates (the astronomy mix the demo motivates).
# ----------------------------------------------------------------------


def _cone_search(rng):
    ra = rng.uniform(0.0, 355.0)
    dec = rng.uniform(-25.0, 80.0)
    w = rng.uniform(0.2, 4.0)
    return (
        "SELECT objid, ra, dec, rmag FROM photoobj "
        "WHERE ra BETWEEN %.3f AND %.3f AND dec BETWEEN %.3f AND %.3f"
        % (ra, ra + w, dec, dec + w)
    )


def _magnitude_cut(rng):
    band = rng.choice(BANDS)
    mag = rng.uniform(14.0, 18.0)
    obj_type = rng.randint(1, 6)
    return (
        "SELECT objid, ra, dec, %smag, %serr FROM photoobj "
        "WHERE %smag < %.2f AND type = %d" % (band, band, band, mag, obj_type)
    )


def _color_cut(rng):
    g_hi = rng.uniform(15.0, 18.0)
    r_hi = g_hi - rng.uniform(0.1, 0.8)
    return (
        "SELECT objid, gmag, rmag FROM photoobj "
        "WHERE gmag < %.2f AND rmag < %.2f AND mode = 1" % (g_hi, r_hi)
    )


def _photo_spec_join(rng):
    z_lo = rng.uniform(0.0, 6.0)
    z_hi = z_lo + rng.uniform(0.02, 0.4)
    return (
        "SELECT p.objid, p.ra, p.dec, s.z FROM photoobj p, specobj s "
        "WHERE p.objid = s.bestobjid AND s.z BETWEEN %.3f AND %.3f" % (z_lo, z_hi)
    )


def _spec_quality_join(rng):
    sn = rng.uniform(18.0, 30.0)
    cls = rng.randint(1, 6)
    return (
        "SELECT p.objid, p.rmag, s.z, s.sn_median FROM photoobj p, specobj s "
        "WHERE p.objid = s.bestobjid AND s.sn_median > %.1f AND s.specclass = %d"
        % (sn, cls)
    )


def _type_histogram(rng):
    band = rng.choice(BANDS)
    mag = rng.uniform(15.0, 21.0)
    return (
        "SELECT type, COUNT(*) FROM photoobj "
        "WHERE %smag < %.2f GROUP BY type ORDER BY type" % (band, mag)
    )


def _field_join(rng):
    quality = rng.randint(1, 3)
    seeing = rng.uniform(1.0, 1.6)
    return (
        "SELECT p.objid, p.ra, f.seeing FROM photoobj p, field f "
        "WHERE p.fieldid = f.fieldid AND f.quality = %d AND f.seeing < %.2f"
        % (quality, seeing)
    )


def _neighbor_search(rng):
    dist = rng.uniform(0.005, 0.08)
    obj_type = rng.randint(1, 3)
    return (
        "SELECT p.objid, n.neighborobjid, n.distance FROM photoobj p, neighbors n "
        "WHERE p.objid = n.objid AND n.distance < %.4f AND p.type = %d"
        % (dist, obj_type)
    )


def _recent_plates(rng):
    mjd = rng.randint(54000, 54600)
    return (
        "SELECT plate, COUNT(*) FROM specobj WHERE mjd > %d "
        "GROUP BY plate ORDER BY plate LIMIT 20" % mjd
    )


def _status_update(rng):
    """Pipeline reprocessing: flag a run's objects (touches `status`)."""
    run = rng.randint(94, 8162)
    status = rng.randint(0, 255)
    return "UPDATE photoobj SET status = %d WHERE run = %d" % (status, run)


def _flags_update(rng):
    """Recalibration of one object (touches `flags` and one magnitude)."""
    objid = rng.randint(0, 10**6)
    band = rng.choice(BANDS)
    return (
        "UPDATE photoobj SET flags = %d, %smag = %.2f WHERE objid = %d"
        % (rng.randint(0, 2**30), band, rng.uniform(14.0, 26.0), objid)
    )


def _neighbor_insert(rng):
    """New cross-match results appended to the neighbors table."""
    rows = ", ".join(
        "(%d, %d, %.4f, %d)"
        % (
            rng.randint(0, 10**6),
            rng.randint(0, 10**6),
            rng.uniform(0.0, 0.5),
            rng.randint(1, 6),
        )
        for __ in range(rng.randint(1, 5))
    )
    return "INSERT INTO neighbors VALUES %s" % rows


TEMPLATES = (
    (_cone_search, 0.22),
    (_magnitude_cut, 0.18),
    (_color_cut, 0.10),
    (_photo_spec_join, 0.16),
    (_spec_quality_join, 0.08),
    (_type_histogram, 0.08),
    (_field_join, 0.08),
    (_neighbor_search, 0.06),
    (_recent_plates, 0.04),
)

WRITE_TEMPLATES = (
    (_status_update, 0.45),
    (_flags_update, 0.35),
    (_neighbor_insert, 0.20),
)

# Public registry: template name -> maker.  The makers above are module
# privates; everything outside this module (drift streams, tests, tenant
# mixes) addresses them by name through here, so the maker set can be
# reorganized without breaking consumers.
TEMPLATE_REGISTRY = {
    "cone_search": _cone_search,
    "magnitude_cut": _magnitude_cut,
    "color_cut": _color_cut,
    "photo_spec_join": _photo_spec_join,
    "spec_quality_join": _spec_quality_join,
    "type_histogram": _type_histogram,
    "field_join": _field_join,
    "neighbor_search": _neighbor_search,
    "recent_plates": _recent_plates,
    "status_update": _status_update,
    "flags_update": _flags_update,
    "neighbor_insert": _neighbor_insert,
}


def template(name):
    """The query maker registered under *name* (see TEMPLATE_REGISTRY)."""
    try:
        return TEMPLATE_REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown SDSS template %r (known: %s)"
            % (name, ", ".join(sorted(TEMPLATE_REGISTRY)))
        ) from None


def sdss_workload(n_queries=20, seed=42, write_fraction=0.0,
                  write_weight=1.0):
    """A seeded mix of astronomy queries.

    ``write_fraction`` (0..1) of the statements are drawn from the write
    templates (pipeline updates, cross-match inserts), each carrying
    ``write_weight`` — writes typically run far more often than ad-hoc
    analysis queries, which is what makes index maintenance matter.
    """
    rng = random.Random(seed)
    makers = [t for t, __ in TEMPLATES]
    weights = [w for __, w in TEMPLATES]
    write_makers = [t for t, __ in WRITE_TEMPLATES]
    write_weights = [w for __, w in WRITE_TEMPLATES]
    workload = Workload()
    for __ in range(n_queries):
        if write_fraction > 0.0 and rng.random() < write_fraction:
            maker = rng.choices(write_makers, weights=write_weights, k=1)[0]
            workload.add(maker(rng), write_weight)
        else:
            maker = rng.choices(makers, weights=weights, k=1)[0]
            workload.add(maker(rng))
    return workload
