"""The telemetry backplane: one registry, one tracer, process-wide.

Every layer of the designer — the cache pool, the columnar kernel, the
cooperative scheduler, tenant sessions, BIP solves, the process
backplane — reports into the state this module owns:

* :func:`metrics` — the current :class:`~repro.obs.metrics.MetricsRegistry`
  (counters, gauges, log-bucket histograms, scrape-time collectors),
  whose families are the ones :mod:`repro.obs.catalogue` declares, as
  are the span names;
* :func:`tracer` — the current :class:`~repro.obs.trace.Tracer`
  (context-propagated spans with parent ids, stitched across process
  boundaries via the wire format);
* :func:`drain_deltas` / :func:`ingest_deltas` — the worker shipment:
  counter/histogram movement since the last drain plus the finished
  spans, JSON-safe, carried as a versioned wire-format section
  (:func:`repro.evaluation.wire.obs_to_wire`).  Both the process
  backplane and the network runner fleet (:mod:`repro.net`) ship
  through this seam, so remote spans stitch into the coordinator's
  traces and the fleet's health (the ``repro_remote_*`` families)
  lands in one registry.

Telemetry is always on; its cost is pinned as call counts
(``tests/test_obs.py::TestTelemetryBudget``).  Instrumentation resolves
the state *at call time* (``obs.metrics()`` / ``obs.tracer()``), never
caches it at import, so :func:`reset` takes effect everywhere at once.
Exports live in :mod:`repro.obs.export` (`/metrics` Prometheus text,
``/trace`` JSON; not imported here, so ``http.server`` loads only where
a server is started) and in :meth:`TuningService.status`, which merges
:meth:`MetricsRegistry.snapshot` into its payload.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "drain_deltas",
    "ingest_deltas",
    "metrics",
    "reset",
    "tracer",
]

_metrics = MetricsRegistry()
_tracer = Tracer()


def metrics():
    """The process-wide metrics registry."""
    return _metrics


def tracer():
    """The process-wide tracer."""
    return _tracer


def reset():
    """Replace the registry and tracer with fresh, empty ones (worker
    initializers after fork, tests needing isolation).  Returns the new
    registry."""
    global _metrics, _tracer
    _metrics = MetricsRegistry()
    _tracer = Tracer()
    return _metrics


def drain_deltas():
    """Everything this process accumulated since the last drain:
    counter/histogram deltas plus finished spans — the worker-side half
    of cross-process telemetry."""
    payload = _metrics.drain_deltas()
    payload["spans"] = _tracer.drain()
    return payload


def ingest_deltas(payload):
    """Fold a :func:`drain_deltas` payload from another process into
    the live registry and tracer."""
    _metrics.apply_deltas(payload)
    _tracer.ingest(payload.get("spans", ()))
