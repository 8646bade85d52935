"""Small shared utilities: error types, math helpers, deterministic RNG."""

from repro.util.errors import (
    ReproError,
    CatalogError,
    ParseError,
    BindError,
    PlanningError,
    DesignError,
    WireFormatError,
    TransportError,
)
from repro.util.maths import align8, ceil_div, clamp, ndtri, safe_log2


def workload_pairs(workload):
    """Normalize a workload into ``(statement, weight)`` pairs.

    Accepts the protocol every costing API speaks: an iterable of
    ``(sql, weight)`` tuples, bare statements (weight 1.0), or a
    :class:`~repro.workloads.Workload`.
    """
    for entry in workload:
        if isinstance(entry, tuple) and len(entry) == 2:
            yield entry
        else:
            yield entry, 1.0


__all__ = [
    "workload_pairs",
    "ReproError",
    "CatalogError",
    "ParseError",
    "BindError",
    "PlanningError",
    "DesignError",
    "WireFormatError",
    "TransportError",
    "align8",
    "ceil_div",
    "clamp",
    "ndtri",
    "safe_log2",
]
