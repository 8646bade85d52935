"""INUM: the cache-based cost model (paper §3.2.1, reference [9]).

INUM observes that the optimal plan for a query changes only when the
*interesting orders* delivered by the access paths change.  It therefore
invokes the real optimizer once per interesting-order vector, caches each
plan's **internal** cost (everything above the base-table accesses), and
prices a candidate configuration by re-costing only the access slots
analytically — no further optimizer calls.

The paper extends INUM to cache **table partitions and partial plans**;
here that falls out naturally: access slots are re-costed against the
configuration's catalog overlay, so vertical fragments and pruned
horizontal partitions are priced by the same analytic path generator.
"""

from repro.inum.cache import (
    AccessSlot,
    CachedPlan,
    QueryCache,
    build_cache,
    extract_plan_terms,
)

__all__ = [
    "AccessSlot",
    "CachedPlan",
    "QueryCache",
    "build_cache",
    "extract_plan_terms",
]
