"""One workload, one fresh interpreter.

``run.py`` starts this file once per measurement so that nothing leaks
between workloads: module-level memo caches, the process-wide ``obs``
registry and its collectors, and ``ru_maxrss``.  The last line of
standard output is one JSON object with everything the run measured.

Set-up (what every CLI invocation pays: interpreter start, ``import
repro``, catalog build, input generation, spawning runners) is timed
from the moment the parent launched us — ``--t0`` is the parent's
``time.time()`` — to the start of the timed region.  GC stays enabled
(users run with it); it is collected once before the timed region.
"""

import argparse
import gc
import json
import os
import sys
import time

from common import (
    E2E_UNITS,
    P99_MIN_SAMPLES,
    SRC,
    WORKLOADS,
    SpeedMeter,
    box_speed,
    peak_rss_mb,
    percentile,
)

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("benchmarks/e2e: no program to measure at %s" % SRC)
sys.path.insert(0, SRC)

import layers  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402  (imports repro: part of set-up)


def end_to_end(outcome, setup_s):
    latencies_ms = [1000.0 * s for s in outcome.latencies]
    values = {
        "setup_s": setup_s,
        "ops_per_s": outcome.attempted / outcome.wall_s,
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p95_ms": percentile(latencies_ms, 95),
        "cpu_s": outcome.cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "fail_frac": outcome.failed / max(1, outcome.attempted),
    }
    if len(latencies_ms) >= P99_MIN_SAMPLES:
        values["op_p99_ms"] = percentile(latencies_ms, 99)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items() if name in values}


def coverage_errors(workload, rollup):
    """The boundary-coverage self-test: expected boundaries recorded,
    bypassed layers silent."""
    errors = []
    for module, attribute, __, expected in layers.BOUNDARIES:
        name = "%s:%s" % (module, attribute)
        if workload in expected and not rollup["boundaries"][name]["spans"]:
            errors.append("boundary %s recorded no span" % name)
    for layer, bypassing in layers.BYPASSED.items():
        spans = sum(b["spans"] for b in rollup["boundaries"].values()
                    if b["layer"] == layer)
        if workload in bypassing and spans:
            errors.append("bypassed layer %s recorded %d spans"
                          % (layer, spans))
    return errors


def per_layer(recorder, rollup, outcome):
    """Every per-layer metric but ``obs.trace_overhead_frac`` (the
    parent computes that from the traced and untraced walls)."""
    stats = outcome.stats
    spans = {name: b["spans"] for name, b in rollup["boundaries"].items()}
    values = {}
    for layer in layers.LAYERS + (layers.HARNESS,):
        for key in ("calls", "busy_s", "self_s"):
            values["%s.%s" % (layer, key)] = rollup["layers"][layer][key]

    plan = "repro.optimizer.planner:plan_query"
    build = "repro.inum.cache:build_cache"
    values["optimizer.plans"] = spans[plan]
    values["optimizer.plan_p50_ms"] = recorder.p(50, plan)
    values["whatif.exact_services"] = spans[
        "repro.evaluation.evaluator:WorkloadEvaluator.exact_service"]
    values["inum.builds"] = spans[build]
    values["inum.build_p50_ms"] = recorder.p(50, build)

    pool = stats["pool"]
    probes = pool["hits"] + pool["misses"]
    values["inum.optimizer_calls"] = pool["optimizer_calls"]
    values["evaluation.pool.hit_rate"] = pool["hits"] / max(1, probes)
    values["evaluation.pool.misses"] = pool["misses"]
    values["evaluation.pool.evictions"] = pool["evictions"]
    counter = workloads.counter_total
    values["evaluation.pool.kernel_compiles"] = counter(
        "repro_kernel_compiles_total")
    cells = counter("repro_evaluate_cells_total")
    kernel_busy = rollup["layers"]["evaluation.kernel"]["busy_s"]
    values["evaluation.kernel.cells"] = cells
    values["evaluation.kernel.cells_per_s"] = (
        cells / kernel_busy if kernel_busy else 0.0)
    values["evaluation.kernel.sparse_cell_ratio"] = (
        counter("repro_sparse_cells_total")
        / max(1, counter("repro_sparse_dense_equiv_cells_total")))

    values["cophy.candidates"] = stats.get("cophy.candidates", 0)
    for solver, boundary in (
        ("greedy", "repro.cophy.greedy:greedy_select"),
        ("milp", "repro.cophy.solvers:solve_bip"),
        ("colgen", "repro.cophy.colgen:solve_colgen"),
    ):
        values["cophy.%s.p50_ms" % solver] = recorder.p(50, boundary)
    values["cophy.colgen.activated_ratio"] = (
        counter("repro_colgen_activated_total")
        / max(1, counter("repro_colgen_priced_total")))
    values["interaction.graph_p50_ms"] = recorder.p(
        50, "repro.interaction.doi:InteractionAnalyzer.interaction_graph")
    values["interaction.schedule_p50_ms"] = recorder.p(
        50, "repro.interaction.schedule:schedule_optimal")
    values["autopart.recommend_p50_ms"] = recorder.p(
        50, "repro.autopart.advisor:AutoPartAdvisor.recommend")
    classes = stats.get("classes", {})
    for cls in layers.RECOMMEND_CLASSES:
        values["designer.recommend.%s.p50_ms" % cls] = 1000.0 * percentile(
            classes.get(cls, ()), 50)

    step = "repro.runtime.steps:TenantTask.run_step"
    events = outcome.attempted
    values["colt.epochs"] = stats.get("colt.epochs", 0)
    values["colt.whatif_probes"] = stats.get("colt.whatif_probes", 0)
    values["colt.probes_per_event"] = (
        stats.get("colt.whatif_probes", 0) / max(1, events))
    values["service.refreshes"] = stats.get("service.refreshes", 0)
    # Every Designer.recommend of an online workload is a tenant refresh.
    values["service.refresh_p50_ms"] = (
        recorder.p(50, "repro.designer.facade:Designer.recommend")
        if spans[step] else 0.0)
    values["service.drift_events"] = stats.get("service.drift_events", 0)
    values["runtime.steps"] = spans[step]
    values["runtime.step.observe.p50_ms"] = recorder.p(50, step, "observe")
    values["runtime.step.drift.p50_ms"] = recorder.p(50, step, "drift")
    values["runtime.step.refresh.p95_ms"] = recorder.p(95, step, "refresh")
    values["runtime.refill_wait_s"] = sum(
        rollup["boundaries"][name]["total_s"]
        for name in layers.REFILL_BOUNDARIES)
    # The inline online workloads *are* the inline executor's rate.
    values["runtime.inline.events_per_s"] = stats.get(
        "runtime.inline.events_per_s",
        events / outcome.wall_s if spans[step] else 0.0)
    for name in ("evaluation.process.events_per_s", "net.events_per_s",
                 "evaluation.wire.encode_s",
                 "evaluation.wire.decode_s",
                 "evaluation.wire.bytes_per_entry"):
        values[name] = stats.get(name, 0)
    values["net.tasks"] = counter("repro_remote_tasks_total")
    return {name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]}
            for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    setup, run, epilogue, teardown = workloads.REGISTRY[args.workload]
    meter = SpeedMeter()
    recorder = None
    if args.traced:
        recorder = trace.Recorder()
        trace.install(recorder, layers.BOUNDARIES, layers.TAGS)
        # The harness's own work inside the region is a layer too, or
        # the probes would pass as scheduler self time.
        meter.tick = recorder.wrap(meter.tick, "common:SpeedMeter.tick",
                                   layers.HARNESS)
    ctx = setup(args.seed, args.scale)
    try:
        gc.collect()
        setup_s = (time.time() - args.t0) * box_speed()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if recorder is not None:
            recorder.enabled = True
        outcome = run(ctx, meter)
        if recorder is not None:
            recorder.enabled = False
            recorder.time_scale = outcome.speed
        if epilogue is not None:
            epilogue(ctx, outcome, meter)
    finally:
        if teardown is not None:
            teardown(ctx)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": args.traced,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "op_samples": len(outcome.latencies),
        "wall_s": outcome.wall_s,
        "region_s": outcome.region_s,
        "speed": outcome.speed,
        "result_digest": outcome.result_digest,
        "end_to_end": end_to_end(outcome, setup_s),
    }
    if recorder is not None:
        rollup = recorder.rollup()
        result["coverage_errors"] = coverage_errors(args.workload, rollup)
        result["covered_s"] = rollup["covered_s"]
        result["per_layer"] = per_layer(recorder, rollup, outcome)
        result["boundaries"] = rollup["boundaries"]
        result["offthread_s"] = {
            layer: entry["offthread_s"]
            for layer, entry in rollup["layers"].items()
            if entry["offthread_s"]
        }
        if args.spans_out:
            recorder.dump(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
