"""The one table of layer boundaries, and the per-layer metric list.

Layer names are the ``src/repro`` packages.  Each boundary is a public
callable of its layer; ``trace.install`` wraps every one of them (and
every ``from x import f`` re-binding of it).  The fourth column lists
the workloads on which the boundary must record at least one span — the
coverage self-test of the traced run fails loudly if it records none
there, which is how a renamed function or a missed binding shows up.
``BYPASSED`` is the converse: a layer that must record *no* span on a
workload (the ∅ predictions).
"""

from common import WORKLOADS

W, R, I, E, F = WORKLOADS
ALL = WORKLOADS
ONLINE = (I, E, F)
NOT_FLEET = (W, R, I, E)

LAYERS = (
    "sql", "optimizer", "inum",
    "evaluation.pool", "evaluation.kernel", "evaluation.wire",
    "evaluation.process",
    "whatif", "cophy", "autopart", "interaction", "colt", "designer",
    "service", "runtime", "net",
)

# The harness's own work inside the timed region (speed probes): not a
# layer of the program, but covered wall all the same.
HARNESS = "harness"

# (module, attribute, layer, workloads where >= 1 span is expected)
BOUNDARIES = (
    ("repro.sql.parser", "parse_statement", "sql", ALL),
    ("repro.sql.binder", "bind_statement", "sql", ALL),
    ("repro.optimizer.planner", "plan_query", "optimizer", ALL),
    ("repro.inum.cache", "build_cache", "inum", ALL),
    ("repro.evaluation.pool", "InumCachePool.get_or_build",
     "evaluation.pool", ALL),
    ("repro.evaluation.pool", "InumCachePool.kernel_for",
     "evaluation.pool", ALL),
    ("repro.evaluation.sharded", "ShardedInumCachePool.get_or_build",
     "evaluation.pool", ONLINE),
    ("repro.evaluation.sharded", "ShardedInumCachePool.kernel_for",
     "evaluation.pool", ONLINE),
    ("repro.evaluation.evaluator", "WorkloadEvaluator.evaluate_many",
     "evaluation.kernel", ALL),
    ("repro.evaluation.evaluator", "WorkloadEvaluator.evaluate_deltas",
     "evaluation.kernel", ALL),
    ("repro.evaluation.evaluator",
     "WorkloadEvaluator.evaluate_configurations", "evaluation.kernel", ALL),
    ("repro.evaluation.evaluator", "WorkloadEvaluator.workload_costs",
     "evaluation.kernel", (R, I, E, F)),
    ("repro.evaluation.evaluator",
     "WorkloadEvaluator.workload_cost_with_usage_batch",
     "evaluation.kernel", ()),  # no workload's path reaches it today
    ("repro.cophy.bip", "BipProblem.config_costs",
     "evaluation.kernel", (R, I, E, F)),
    ("repro.cophy.bip", "BipProblem.config_costs_delta",
     "evaluation.kernel", (R, I, E, F)),
    ("repro.evaluation.wire", "dumps", "evaluation.wire", ()),
    ("repro.evaluation.wire", "loads", "evaluation.wire", (F,)),
    ("repro.evaluation.process", "ProcessPoolBackplane.warm_up",
     "evaluation.process", (F,)),
    ("repro.whatif.session", "WhatIfSession.evaluate", "whatif", (W,)),
    ("repro.whatif.session", "WhatIfSession.cost", "whatif", ONLINE),
    ("repro.evaluation.evaluator", "WorkloadEvaluator.exact_service",
     "whatif", ALL),
    ("repro.cophy.candidates", "candidate_indexes", "cophy", (R, I, E, F)),
    ("repro.cophy.bip", "build_bip", "cophy", (R, I, E, F)),
    ("repro.cophy.greedy", "greedy_select", "cophy", (R, I, E, F)),
    ("repro.cophy.solvers", "solve_bip", "cophy", (R,)),
    ("repro.cophy.colgen", "solve_colgen", "cophy", (R,)),
    ("repro.autopart.advisor", "AutoPartAdvisor.recommend",
     "autopart", (R,)),
    ("repro.interaction.doi", "InteractionAnalyzer.interaction_graph",
     "interaction", ALL),
    ("repro.interaction.schedule", "schedule_optimal", "interaction", (R,)),
    ("repro.interaction.schedule", "schedule_naive", "interaction", (R,)),
    ("repro.colt.tuner", "ColtTuner.observe", "colt", ONLINE),
    ("repro.colt.tuner", "ColtTuner.flush", "colt", ONLINE),
    ("repro.designer.facade", "Designer.evaluate_design", "designer", (W,)),
    ("repro.designer.facade", "Designer.recommend",
     "designer", (R, I, E, F)),
    ("repro.service.service", "TuningService.run_scheduled",
     "service", ONLINE),
    ("repro.service.service", "TuningService.status", "service", ONLINE),
    ("repro.runtime.steps", "TenantTask.run_step", "runtime", ONLINE),
    ("repro.runtime.scheduler", "Scheduler.run", "runtime", ONLINE),
    ("repro.runtime.executor", "StepExecutor.refill", "runtime", ONLINE),
    ("repro.runtime.executor", "StepExecutor.prepare", "runtime", ONLINE),
    ("repro.runtime.executor", "StepExecutor.close", "runtime", ONLINE),
    ("repro.runtime.executor", "ProcessStepExecutor.refill",
     "runtime", (F,)),
    ("repro.runtime.executor", "ProcessStepExecutor.prepare",
     "runtime", (F,)),
    ("repro.runtime.executor", "ProcessStepExecutor.close",
     "runtime", (F,)),
    ("repro.runtime.executor", "RemoteStepExecutor.refill",
     "runtime", (F,)),
    ("repro.runtime.executor", "RemoteStepExecutor.prepare",
     "runtime", (F,)),
    ("repro.runtime.executor", "RemoteStepExecutor.close",
     "runtime", (F,)),
    ("repro.net.client", "RemoteBackplane.warm_up", "net", (F,)),
    ("repro.net.frames", "send_frame", "net", (F,)),
    ("repro.net.frames", "recv_frame", "net", (F,)),
)

# boundary name -> function of the call's result, stored as the span's tag
TAGS = {
    "repro.runtime.steps:TenantTask.run_step": lambda step: step.kind,
}

# layer -> workloads that bypass it: any span there fails the traced run
BYPASSED = {
    "net": NOT_FLEET,
    "evaluation.process": NOT_FLEET,
    "evaluation.wire": NOT_FLEET,
    "cophy": (W,),
    "autopart": (W, I, E, F),
    "colt": (W, R),
    "service": (W, R),
    "runtime": (W, R),
}

REFILL_BOUNDARIES = tuple(
    "repro.runtime.executor:%s.%s" % (cls, method)
    for cls in ("StepExecutor", "ProcessStepExecutor", "RemoteStepExecutor")
    for method in ("refill", "prepare")
)

# ----------------------------------------------------------------------
# Per-layer metrics: (name, unit, better).  L.calls / L.busy_s / L.self_s
# for every layer, then the counts and ratios of ISSUE 11 — each read
# from public stats (PoolStats, service.status(), the obs registry) or
# from the harness's own spans.  README.md carries, for each, the
# end-to-end metric it is predicted to move and the workload that
# bypasses it.
# ----------------------------------------------------------------------

RECOMMEND_CLASSES = (
    "sdss-greedy", "sdss-milp", "sdss-colgen",
    "tpch-greedy", "tpch-milp", "tpch-colgen",
    "sdss-mixed-part", "tpch-part",
)

PER_LAYER = tuple(
    metric
    for layer in LAYERS + (HARNESS,)
    for metric in (
        (layer + ".calls", "count", "lower"),
        (layer + ".busy_s", "s", "lower"),
        (layer + ".self_s", "s", "lower"),
    )
) + (
    ("optimizer.plans", "count", "lower"),
    ("optimizer.plan_p50_ms", "ms", "lower"),
    ("whatif.exact_services", "count", "lower"),
    ("inum.builds", "count", "lower"),
    ("inum.optimizer_calls", "count", "lower"),
    ("inum.build_p50_ms", "ms", "lower"),
    ("evaluation.pool.hit_rate", "ratio", "higher"),
    ("evaluation.pool.misses", "count", "lower"),
    ("evaluation.pool.evictions", "count", "lower"),
    ("evaluation.pool.kernel_compiles", "count", "lower"),
    ("evaluation.kernel.cells", "count", "lower"),
    ("evaluation.kernel.cells_per_s", "1/s", "higher"),
    ("evaluation.kernel.sparse_cell_ratio", "ratio", "lower"),
    ("cophy.candidates", "count", "lower"),
    ("cophy.greedy.p50_ms", "ms", "lower"),
    ("cophy.milp.p50_ms", "ms", "lower"),
    ("cophy.colgen.p50_ms", "ms", "lower"),
    ("cophy.colgen.activated_ratio", "ratio", "lower"),
    ("interaction.graph_p50_ms", "ms", "lower"),
    ("interaction.schedule_p50_ms", "ms", "lower"),
    ("autopart.recommend_p50_ms", "ms", "lower"),
) + tuple(
    ("designer.recommend.%s.p50_ms" % cls, "ms", "lower")
    for cls in RECOMMEND_CLASSES
) + (
    ("colt.epochs", "count", "lower"),
    ("colt.whatif_probes", "count", "lower"),
    ("colt.probes_per_event", "ratio", "lower"),
    ("service.refreshes", "count", "lower"),
    ("service.refresh_p50_ms", "ms", "lower"),
    ("service.drift_events", "count", "lower"),
    ("runtime.steps", "count", "lower"),
    ("runtime.step.observe.p50_ms", "ms", "lower"),
    ("runtime.step.drift.p50_ms", "ms", "lower"),
    ("runtime.step.refresh.p95_ms", "ms", "lower"),
    ("runtime.refill_wait_s", "s", "lower"),
    ("runtime.inline.events_per_s", "1/s", "higher"),
    ("evaluation.process.events_per_s", "1/s", "higher"),
    ("net.events_per_s", "1/s", "higher"),
    ("net.tasks", "count", "lower"),
    ("evaluation.wire.encode_s", "s", "lower"),
    ("evaluation.wire.decode_s", "s", "lower"),
    ("evaluation.wire.bytes_per_entry", "B", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
)

PER_LAYER_UNITS = {name: unit for name, unit, __ in PER_LAYER}
