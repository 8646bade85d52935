"""Drifting workload streams for the continuous-tuning scenario.

Scenario 3 needs "queries running on a database [that] evolve over time":
the stream moves through phases, each drawing from a different template
mix, so a design tuned for phase 1 turns stale in phase 2 — exactly the
situation COLT is built to detect.  Templates are addressed through the
public registries of :mod:`repro.workloads.sdss` and
:mod:`repro.workloads.tpch`, never their private makers.

The TPC-H phases exist for the multi-tenant tuning service: a mixed
tenant fleet streams astronomy and decision-support traffic against the
same service, each catalog on its own costing backplane.
"""

import random
from dataclasses import dataclass

from repro.util import DesignError
from repro.workloads import sdss, tpch


@dataclass(frozen=True)
class DriftPhase:
    """One stretch of the stream: ``length`` queries from ``templates``."""

    name: str
    length: int
    templates: tuple  # ((maker, weight), ...)

    def __post_init__(self):
        if self.length < 1:
            raise DesignError("drift phase %r needs at least one query, "
                              "got length %r" % (self.name, self.length))


def default_phases(length=200):
    """Three-phase astronomy drift: positional -> photometric -> spectral.

    Each phase is dominated by predicates on different columns, so the
    index set that helps one phase is nearly useless for the next.
    """
    positional = (
        (sdss.template("cone_search"), 0.8),
        (sdss.template("neighbor_search"), 0.2),
    )
    photometric = (
        (sdss.template("magnitude_cut"), 0.55),
        (sdss.template("color_cut"), 0.30),
        (sdss.template("type_histogram"), 0.15),
    )
    spectral = (
        (sdss.template("photo_spec_join"), 0.5),
        (sdss.template("spec_quality_join"), 0.3),
        (sdss.template("recent_plates"), 0.2),
    )
    return (
        DriftPhase("positional", length, positional),
        DriftPhase("photometric", length, photometric),
        DriftPhase("spectral", length, spectral),
    )


def tpch_phases(length=200):
    """Three-phase decision-support drift: pricing -> customers -> supply.

    The same stale-design dynamic as :func:`default_phases`, over the
    TPC-H-lite schema: each phase's predicates concentrate on different
    tables and columns.
    """
    pricing = (
        (tpch.template("pricing_summary"), 0.45),
        (tpch.template("shipping_window"), 0.55),
    )
    customers = (
        (tpch.template("customer_orders"), 0.6),
        (tpch.template("big_spenders"), 0.4),
    )
    supply = (
        (tpch.template("part_supplier"), 0.55),
        (tpch.template("order_lineitem_join"), 0.45),
    )
    return (
        DriftPhase("pricing", length, pricing),
        DriftPhase("customers", length, customers),
        DriftPhase("supply", length, supply),
    )


def drifting_stream(phases=None, seed=11):
    """Yield ``(phase_name, sql)`` pairs for the whole stream."""
    rng = random.Random(seed)
    for phase in phases or default_phases():
        makers = [t for t, __ in phase.templates]
        weights = [w for __, w in phase.templates]
        for __ in range(phase.length):
            maker = rng.choices(makers, weights=weights, k=1)[0]
            yield phase.name, maker(rng)
