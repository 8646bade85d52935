"""The telemetry catalogue: every metric family and span name, declared once.

A metric family is a :class:`Family` — name, kind, help text, label
names — and every histogram buckets by :data:`DEFAULT_BUCKETS`.  Call
sites hand a constant of this module to
:meth:`~repro.obs.metrics.MetricsRegistry.family` (which creates the
family on its first touch) or to ``obs.tracer().span``, and restate no
help text or label.  A peer's telemetry delta may only name a family
declared here, shipped as declared
(:func:`~repro.evaluation.wire.obs_from_wire`);
``tests/option_census.py`` refuses a name literal anywhere else in
``src/repro``, and README's telemetry table is rendered from this
module (``tests/test_telemetry_catalogue.py``).
"""

from collections import namedtuple

__all__ = ["COUNTER", "DEFAULT_BUCKETS", "FAMILIES", "Family", "GAUGE",
           "HISTOGRAM", "SPANS"]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

# Powers of 4 from ~0.95us to ~67s: 13 finite upper bounds (+Inf is
# implicit), a fixed log-scale ladder shared by every histogram.
DEFAULT_BUCKETS = tuple(9.5367431640625e-07 * (4 ** i) for i in range(13))


class Family(namedtuple("Family", "name kind help labelnames")):
    """One metric family: its name, kind, help text and label names."""

    __slots__ = ()

    @property
    def buckets(self):
        """The histogram's upper bounds (none for a counter or gauge)."""
        return DEFAULT_BUCKETS if self.kind == HISTOGRAM else ()


FAMILIES = {}  # name -> Family, in declaration order
SPANS = []  # span names, in declaration order


def _family(kind, name, help_text, *labelnames):
    assert name not in FAMILIES, "metric %r declared twice" % name
    FAMILIES[name] = Family(name, kind, help_text, labelnames)
    return FAMILIES[name]


def _span(name):
    assert name not in SPANS, "span %r declared twice" % name
    SPANS.append(name)
    return name


# The INUM cache pool, mirrored per backplane at scrape time.
POOL_HITS = _family(COUNTER, "repro_pool_hits_total", "INUM cache pool hits",
                    "backplane")
POOL_MISSES = _family(COUNTER, "repro_pool_misses_total",
                      "INUM cache pool misses", "backplane")
POOL_EVICTIONS = _family(COUNTER, "repro_pool_evictions_total",
                         "INUM cache pool evictions", "backplane")
POOL_OPTIMIZER_CALLS = _family(COUNTER, "repro_pool_optimizer_calls_total",
                               "Optimizer calls spent building pool entries",
                               "backplane")
POOL_ENTRIES = _family(GAUGE, "repro_pool_entries",
                       "Resident INUM cache entries", "backplane")
POOL_BUILD_SECONDS = _family(
    HISTOGRAM, "repro_pool_build_seconds",
    "INUM cache build latency (one per pool miss)")
KERNEL_COMPILES = _family(COUNTER, "repro_kernel_compiles_total",
                          "Columnar statement kernels compiled")
KERNEL_COMPILE_SECONDS = _family(HISTOGRAM, "repro_kernel_compile_seconds",
                                 "Kernel compilation latency")

# Batched pricing, by mode (exactly ``kernel`` / ``delta``).
EVALUATE_BATCHES = _family(COUNTER, "repro_evaluate_batches_total",
                           "Batched evaluate calls", "mode")
EVALUATE_CELLS = _family(COUNTER, "repro_evaluate_cells_total",
                         "Workload-cost cells priced by batched evaluation",
                         "mode")
EVALUATE_SECONDS = _family(HISTOGRAM, "repro_evaluate_seconds",
                           "Batched evaluate latency", "mode")
RECOMMEND_MEMO = _family(COUNTER, "repro_recommend_memo_total",
                         "Designer.recommend calls by memo outcome", "result")

# The cooperative scheduler.
SCHEDULER_STEPS = _family(COUNTER, "repro_scheduler_steps_total",
                          "Scheduler steps dispatched", "kind")
SCHEDULER_STEP_SECONDS = _family(HISTOGRAM, "repro_scheduler_step_seconds",
                                 "Step dispatch latency", "kind")
SCHEDULER_SNAPSHOTS = _family(COUNTER, "repro_scheduler_snapshots_total",
                              "Service snapshots taken (pause points and "
                              "save_state)")
SCHEDULER_QUEUE_DEPTH = _family(GAUGE, "repro_scheduler_queue_depth",
                                "Buffered-but-not-ingested events per tenant",
                                "tenant")
SCHEDULER_EVENTS_STARTED = _family(GAUGE, "repro_scheduler_events_started",
                                   "Events whose ingest has started")
SCHEDULER_SNAPSHOT_AGE = _family(GAUGE, "repro_scheduler_snapshot_age_seconds",
                                 "Seconds since the last service snapshot")

# Tenant sessions.
TENANT_QUERIES = _family(COUNTER, "repro_tenant_queries_total",
                         "Query events ingested per tenant", "tenant")
TENANT_EVENTS = _family(COUNTER, "repro_tenant_events_total",
                        "Observe steps run per tenant", "tenant")
TENANT_DRIFT = _family(COUNTER, "repro_tenant_drift_total",
                       "Phase boundaries observed per tenant", "tenant")
TENANT_REFRESHES = _family(COUNTER, "repro_tenant_refreshes_total",
                           "Full-advisor refreshes by trigger", "trigger")
TENANT_REFRESH_SECONDS = _family(HISTOGRAM, "repro_tenant_refresh_seconds",
                                 "Full-advisor refresh latency")

# CoPhy's solvers.
BIP_SOLVES = _family(COUNTER, "repro_bip_solves_total",
                     "Physical-design solves by solver backend", "solver")
BIP_SOLVE_SECONDS = _family(HISTOGRAM, "repro_bip_solve_seconds",
                            "Physical-design solve latency", "solver")
COLGEN_ROUNDS = _family(COUNTER, "repro_colgen_rounds_total",
                        "Column-generation greedy rounds")
COLGEN_ACTIVATED = _family(COUNTER, "repro_colgen_activated_total",
                           "Candidates activated into the restricted master")
COLGEN_PRICED = _family(COUNTER, "repro_colgen_priced_total",
                        "Slot-candidate pairs priced by the candidate pricer")

# The runner fleet, forked (``worker-N``) or dialled (``host:port``).
REMOTE_TASKS = _family(COUNTER, "repro_remote_tasks_total",
                       "Tasks completed by each runner node", "node", "op")
REMOTE_RETRIES = _family(COUNTER, "repro_remote_retries_total",
                         "Per-node reconnect-and-retry attempts", "node")
REMOTE_NODE_DEATHS = _family(COUNTER, "repro_remote_node_deaths_total",
                             "Nodes declared dead after exhausting retries",
                             "node")
REMOTE_FALLBACK = _family(COUNTER, "repro_remote_fallback_total",
                          "Tasks executed locally because no runner survived",
                          "op")
REMOTE_INFLIGHT = _family(GAUGE, "repro_remote_inflight_tasks",
                          "Tasks submitted to the fleet and not yet installed")
REMOTE_COLLECT_WAIT = _family(
    HISTOGRAM, "repro_remote_collect_wait_seconds",
    "Time collect() was parked on an entry still being built")

# Spans, outermost first where they nest.
SPAN_SCHEDULER_STEP = _span("scheduler.step")
SPAN_TENANT_REFRESH = _span("tenant.refresh")
SPAN_EVALUATE_BATCH = _span("evaluate.batch")
SPAN_EVALUATE_DELTAS = _span("evaluate.deltas")
SPAN_EVALUATOR_WARM_UP = _span("evaluator.warm_up")
SPAN_POOL_BUILD = _span("pool.build")
SPAN_KERNEL_COMPILE = _span("kernel.compile")
SPAN_COPHY_SOLVE = _span("cophy.solve")
SPAN_COPHY_SOLVE_COLGEN = _span("cophy.solve_colgen")
SPAN_EXECUTOR_REFILL = _span("executor.refill")
SPAN_EXECUTOR_PREPARE = _span("executor.prepare")
SPAN_BACKPLANE_WARM_UP = _span("backplane.warm_up")
SPAN_WORKER_WARM_UP = _span("worker.warm_up")
