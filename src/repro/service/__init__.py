"""The multi-tenant online tuning service.

A long-lived layer hosting many concurrent tenant streams over shared
costing backplanes:

* :mod:`repro.service.service` — :class:`TuningService`: backplane
  registry (one sharded INUM cache pool + shared evaluator per
  catalog), warm-up, scheduler-driven per-tenant ingest (see
  :mod:`repro.runtime`), pause-point snapshots, merged status
  snapshots;
* :mod:`repro.service.tenant` — :class:`TenantSession`: streaming
  ingest decomposed into resumable steps
  (:meth:`~TenantSession.ingest_steps`), the COLT epoch loop, drift
  detection at phase boundaries, periodic full-advisor recommendation
  refreshes.
"""

from repro.service.service import Backplane, TuningService
from repro.service.tenant import (
    DriftEvent,
    RecommendationRecord,
    TenantSession,
)

__all__ = [
    "Backplane",
    "TuningService",
    "TenantSession",
    "DriftEvent",
    "RecommendationRecord",
]
