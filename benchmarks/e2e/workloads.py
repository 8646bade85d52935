"""The five scenario workloads of the e2e ledger.

Each workload is a ``setup(seed, scale)`` that generates every input
from the seed (catalogs, SQL, designs, streams — the program only ever
sees generated inputs) and a ``run(ctx)`` that drives the program
through its public entry points inside the timed region, checks every
output, and returns a :class:`Outcome`.  Closed loop, one client: the
next operation is issued when the previous one returns; fan-out under
test is fixed at two workers / two loopback runners.

Imported by ``child.py`` only, in a fresh interpreter per workload, so
module-level memo caches, the process-wide ``obs`` registry and
``ru_maxrss`` never leak from one workload into the next.
"""

import gc
import math
import os
import random
import re
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro import (
    ColtSettings,
    Designer,
    ProcessStepExecutor,
    TuningService,
    VerticalFragment,
    VerticalLayout,
    drifting_stream,
    obs,
    sdss_catalog,
    sdss_workload,
    tpch_catalog,
    tpch_workload,
)
from repro.cophy import candidate_indexes
from repro.evaluation import InumCachePool, wire
from repro.runtime import RemoteStepExecutor
from repro.workloads import sdss
from repro.workloads.drift import DriftPhase, default_phases, tpch_phases

from common import FAN_OUT, SRC, Region, digest
from layers import RECOMMEND_CLASSES

clock = time.perf_counter

@dataclass
class Outcome:
    """What one workload run hands back to ``child.py``."""

    attempted: int = 0
    failed: int = 0
    # Times are reference seconds (see common.SpeedMeter).
    wall_s: float = 0.0  # the wall ``ops_per_s`` divides by
    cpu_s: float = 0.0
    region_s: float = 0.0  # the whole timed region (trace overhead base)
    speed: float = 1.0  # the box's mean speed over the region, 1 = reference
    latencies: list = field(default_factory=list)  # seconds, one per op
    failures: list = field(default_factory=list)  # first few messages
    outputs: object = None  # canonicalised outputs, digested by the child
    stats: dict = field(default_factory=dict)  # counts from public stats

    def close(self, region, meter, spans):
        """Take wall, CPU and per-op latencies (``(start, end)`` clock
        pairs) from a finished single-region run."""
        self.wall_s = self.region_s = region.wall_s
        self.cpu_s = region.cpu_s
        self.speed = region.speed
        self.latencies = [meter.reference_seconds(a, b) for a, b in spans]

    def fail(self, message, ops=1):
        self.failed = min(self.attempted, self.failed + ops)
        if len(self.failures) < 5:
            self.failures.append(message)

    @property
    def result_digest(self):
        return digest(self.outputs)


def _pages(catalog):
    return sum(table.pages for table in catalog.tables)


# The program's cost is chaotic in its inputs: over workload seeds one
# MILP solve takes 0.3 to 2.6 s, the what-if p99 moves by 25 % and a
# thrashing pool rebuilds 800 or 1600 entries, so runs on two seeds
# whose inputs shared nothing could not be compared at all.  Every
# generated input sequence is therefore an *anchor* sequence (the same
# for every run) for its first three quarters and a sequence drawn from
# ``--seed`` for the last quarter.  A suffix, not an interleave: shared
# state (an LRU pool, a solver's search) forgets nothing, so one early
# difference would make the whole run differ.  Each run still prices
# inputs never seen before in a quarter of its work.
ANCHOR_SEED = 42


def _seeded_from(length):
    """First position of the seeded suffix of a *length*-long input."""
    return length - max(1, length // 4)


def _splice(anchor, seeded):
    """The anchor sequence with its last quarter replaced by the
    seeded sequence's."""
    anchor, seeded = list(anchor), list(seeded)
    cut = _seeded_from(len(anchor))
    return anchor[:cut] + seeded[cut:]


def _pool_stats(stats_list):
    """Sum ``PoolStats.as_dict()``-shaped snapshots."""
    total = {"hits": 0, "misses": 0, "evictions": 0, "optimizer_calls": 0}
    for stats in stats_list:
        for key in total:
            total[key] += stats[key]
    return total


def counter_total(name):
    """Sum of one counter family over all its label sets (0 if the
    family was never declared)."""
    family = obs.metrics().snapshot()["counters"].get(name)
    if family is None:
        return 0
    return sum(sample["value"] for sample in family["samples"])


# ----------------------------------------------------------------------
# 1. whatif_session — Scenario 1, the interactive tool.
# ----------------------------------------------------------------------


def _two_fragment_layout(catalog, rng):
    table = rng.choice(
        [t for t in catalog.tables if len(t.column_names) >= 4]
    )
    columns = list(table.column_names)
    rng.shuffle(columns)
    cut = rng.randint(1, len(columns) - 1)
    return VerticalLayout(
        table.name,
        (
            VerticalFragment(table.name, tuple(columns[:cut])),
            VerticalFragment(table.name, tuple(columns[cut:])),
        ),
    )


def setup_whatif(seed, scale):
    envs = []
    for catalog, maker, queries in (
        (sdss_catalog(scale=0.1), sdss_workload, 50),
        (tpch_catalog(scale=0.05), tpch_workload, 30),
    ):
        # Index 0: the anchor session's workload; 1: the seeded one's.
        sessions = [list(maker(queries, seed=s)) for s in (ANCHOR_SEED, seed)]
        envs.append({
            "catalog": catalog,
            "workloads": sessions,
            "designer": Designer(catalog),
            "candidates": [candidate_indexes(catalog, w) for w in sessions],
            "index_names": sorted(ix.name for ix in catalog.indexes),
            "design_pages": catalog.design_size_pages(),
        })
    # Op i alternates catalogs; every 5th op re-submits an earlier
    # design of the same catalog (the warm path) and must get
    # bit-identical totals back.  The last quarter of the ops is the
    # seeded session: new workload, new designs, same Designer.
    count = max(20, round(1500 * scale))
    rngs = (random.Random(ANCHOR_SEED), random.Random(seed))
    ops = []  # (env index, design id, session, indexes, layouts)
    earlier = ([], [])  # per catalog: the fresh designs submitted so far
    for i in range(count):
        e, session = i % 2, int(i >= _seeded_from(count))
        rng = rngs[session]
        if i % 5 == 4 and earlier[e]:
            ops.append(rng.choice(earlier[e]))
            continue
        env = envs[e]
        indexes = rng.sample(env["candidates"][session], rng.randint(1, 4))
        layouts = ()
        if rng.random() < 0.3:
            layouts = (_two_fragment_layout(env["catalog"], rng),)
        ops.append((e, i, session, tuple(indexes), layouts))
        earlier[e].append(ops[-1])
    return {"envs": envs, "ops": ops}


def run_whatif(ctx, meter):
    out = Outcome()
    envs = ctx["envs"]
    seen = {}  # design id -> (base_total, new_total)
    totals, spans = [], []
    with Region(meter) as region:
        for e, design_id, session, indexes, layouts in ctx["ops"]:
            env = envs[e]
            out.attempted += 1
            meter.tick()
            started = clock()
            try:
                evaluation = env["designer"].evaluate_design(
                    env["workloads"][session], indexes, layouts
                )
            except Exception:
                spans.append((started, clock()))
                out.fail(traceback.format_exc(limit=3))
                continue
            spans.append((started, clock()))
            report = evaluation.report
            pair = (report.base_total, report.new_total)
            totals.append((design_id, pair))
            if not all(
                math.isfinite(b.base_cost) and math.isfinite(b.new_cost)
                for b in report.per_query
            ):
                out.fail("design %d: non-finite cost" % design_id)
            elif seen.setdefault(design_id, pair) != pair:
                out.fail(
                    "design %d: re-submission returned different totals"
                    % design_id
                )
    out.close(region, meter, spans)
    for env in envs:
        catalog = env["catalog"]
        if (
            sorted(ix.name for ix in catalog.indexes) != env["index_names"]
            or catalog.design_size_pages() != env["design_pages"]
        ):
            out.fail("what-if evaluation changed the catalog's real design")
    out.outputs = totals
    out.stats = {
        "pool": _pool_stats(
            [env["designer"].evaluator.pool.stats.as_dict() for env in envs]
        ),
    }
    return out


# ----------------------------------------------------------------------
# 2. recommend_offline — Scenario 2, ``python -m repro recommend``.
# ----------------------------------------------------------------------

BUDGET_FRACTIONS = (0.1, 0.3, 1.0)
# HiGHS stops at a relative gap of 1e-4, so "optimal" may trail greedy
# by that much (seen: 338360.80 vs 338357.14 on a 0.1 budget).
MIP_GAP = 1e-4


def setup_recommend(seed, scale):
    sdss_cat = sdss_catalog(scale=0.1)
    tpch_cat = tpch_catalog(scale=0.05)
    ops = []  # (class, cycle, catalog, workload, budget, solver, partitions)
    cycles = max(1, round(7 * scale))
    for cycle in range(cycles):
        # A fresh workload seed per cycle: no cycle re-prices the
        # previous one's statements through a module-level memo.  The
        # last quarter of the cycles takes its workloads from --seed.
        base = seed if cycle >= _seeded_from(cycles) else ANCHOR_SEED
        wseed = base + cycle
        sdss_wl = list(sdss_workload(n_queries=50, seed=wseed))
        tpch_wl = list(tpch_workload(n_queries=30, seed=wseed))
        mixed_wl = list(sdss_workload(
            n_queries=20, seed=wseed, write_fraction=0.3, write_weight=5
        ))
        # Counted from the end, so the seeded tail is the cheap,
        # steady small-budget cycle whatever the cycle count.
        fraction = BUDGET_FRACTIONS[(cycles - 1 - cycle) % 3]
        sdss_budget = int(_pages(sdss_cat) * fraction)
        tpch_budget = int(_pages(tpch_cat) * fraction)
        for solver in ("greedy", "milp", "colgen"):
            ops.append(("sdss-" + solver, cycle, sdss_cat, sdss_wl,
                        sdss_budget, solver, False))
        for solver in ("greedy", "milp", "colgen"):
            ops.append(("tpch-" + solver, cycle, tpch_cat, tpch_wl,
                        tpch_budget, solver, False))
        ops.append(("sdss-mixed-part", cycle, sdss_cat, mixed_wl,
                    sdss_budget, "greedy", True))
        ops.append(("tpch-part", cycle, tpch_cat, tpch_wl,
                    tpch_budget, "greedy", True))
    return {"ops": ops}


def run_recommend(ctx, meter):
    out = Outcome()
    pools, candidates, outputs, spans = [], 0, [], []
    greedy = {}  # (cycle, catalog prefix) -> greedy's index recommendation
    with Region(meter) as region:
        for cls, cycle, catalog, workload, budget, solver, parts in ctx["ops"]:
            out.attempted += 1
            meter.tick()
            started = clock()
            try:
                # A fresh Designer per op: the cold pool the CLI pays.
                designer = Designer(catalog)
                rec = designer.recommend(
                    workload, budget, solver=solver, partitions=parts
                )
            except Exception:
                spans.append((started, clock()))
                out.fail(traceback.format_exc(limit=3))
                continue
            spans.append((started, clock()))
            index_rec = rec.index_recommendation
            names = [ix.name for ix in index_rec.indexes]
            pools.append(designer.evaluator.pool.stats.as_dict())
            candidates += index_rec.stats["n_candidates"]
            outputs.append((
                cls, cycle, names, index_rec.predicted_workload_cost,
                rec.combined_configuration.describe(),
                rec.base_workload_cost, rec.combined_workload_cost,
            ))
            where = "%s cycle %d" % (cls, cycle)
            if index_rec.size_pages > budget:
                out.fail("%s: indexes exceed the budget" % where)
            elif rec.combined_workload_cost > rec.base_workload_cost:
                out.fail("%s: recommended design costs more than none" % where)
            elif not parts:
                key = (cycle, cls.split("-")[0])
                if solver == "greedy":
                    greedy[key] = index_rec
                elif key not in greedy:
                    out.fail("%s: no greedy result to compare with" % where)
                elif solver == "colgen" and names != [
                    ix.name for ix in greedy[key].indexes
                ]:
                    out.fail("%s: colgen design differs from greedy's" % where)
                elif solver == "milp" and (
                    index_rec.predicted_workload_cost
                    > greedy[key].predicted_workload_cost * (1 + MIP_GAP)
                ):
                    out.fail("%s: milp objective worse than greedy's" % where)
    out.close(region, meter, spans)
    by_class = {name: [] for name in RECOMMEND_CLASSES}
    for op, latency in zip(ctx["ops"], out.latencies):
        by_class[op[0]].append(latency)
    out.outputs = outputs
    out.stats = {
        "pool": _pool_stats(pools),
        "cophy.candidates": candidates,
        "classes": by_class,
    }
    return out


# ----------------------------------------------------------------------
# 3 + 4. online_ingest / online_evict — Scenario 3 as ``serve`` runs it.
# ----------------------------------------------------------------------

LOOKAHEAD = 4  # per-tenant read-ahead (the scheduler's default, pinned)


def _stamped(events, stamps, meter):
    """Yield *events*, stamping the clock at every pull.  The scheduler
    is a closed loop — it pulls a tenant's next event when an earlier
    one has been ingested — so the gap between consecutive pulls is one
    event's ingest time (all of its steps), seen from the client.  The
    pull is also the only point inside ``run_scheduled`` where the
    harness gets to run, so the speed probe ticks here."""
    for event in events:
        meter.tick()
        stamps.append(clock())
        yield event


def _pull_gaps(stamps, tenants):
    """Per-event ``(start, end)`` spans from one leg's pull stamps,
    without the initial buffer fill (``tenants * LOOKAHEAD``
    back-to-back pulls)."""
    steady = stamps[tenants * LOOKAHEAD:]
    return list(zip(steady, steady[1:]))


def _tenant_outputs(service):
    """Canonical per-tenant results: what equivalence checks compare
    and the digest covers."""
    status = service.status()["tenants"]
    return {
        name: {
            "queries": status[name]["queries"],
            "epochs": status[name]["epochs"],
            "finished": status[name]["finished"],
            "configuration": list(status[name]["configuration"]),
            "observed_cost": status[name]["observed_cost"],
            "recommendations": [
                (r.at_query, r.phase, r.trigger, list(r.indexes),
                 r.improvement_pct)
                for r in service.tenant(name).recommendations
            ],
        }
        for name in status
    }


def _colt(catalog):
    return ColtSettings(
        epoch_length=25, space_budget_pages=int(_pages(catalog) * 0.5)
    )


def _setup_online(seed, phase_length, pool_capacity):
    service = TuningService(shards=4, pool_capacity=pool_capacity)
    service.add_backplane("sdss", sdss_catalog(scale=0.1))
    service.add_backplane("tpch", tpch_catalog(scale=0.1))
    phases = {"sdss": default_phases, "tpch": tpch_phases}
    streams, twins = {}, {}
    for i in range(8):
        key = "sdss" if i % 2 == 0 else "tpch"
        name = "%s-%d" % (key, i)
        session = service.add_tenant(
            name, key,
            colt_settings=_colt(service.backplane(key).catalog),
            recommend_every=40,
        )
        if session.partitions:
            raise AssertionError("tenant refreshes must run partitions off")
        # Not the CLI's one seed per catalog (that makes every
        # same-catalog tenant identical and the pool 100 % hits): two
        # tenants share each stream, so about half the lookups hit.
        offset = i // 4
        streams[name] = _splice(*(
            drifting_stream(phases[key](phase_length), seed=s + offset)
            for s in (ANCHOR_SEED, seed)
        ))
        twins.setdefault((key, offset), []).append(name)
    return {"service": service, "streams": streams,
            "twins": list(twins.values())}


def setup_ingest(seed, scale):
    return _setup_online(seed, max(10, round(300 * scale)), None)


def setup_evict(seed, scale):
    # Every event carries fresh constants, so the refresh window plus a
    # COLT epoch never fits in 64 entries: the pool thrashes by design.
    return _setup_online(seed, max(10, round(120 * scale)), 64)


def _service_stats(service):
    status = service.status()
    tenants = status["tenants"].values()
    return {
        "pool": _pool_stats(status["backplanes"].values()),
        "colt.epochs": sum(t["epochs"] for t in tenants),
        "colt.whatif_probes": sum(t["whatif_probes"] for t in tenants),
        "service.refreshes": sum(t["recommendations"] for t in tenants),
        "service.drift_events": sum(t["drift_events"] for t in tenants),
    }


def run_online(ctx, meter):
    out = Outcome()
    service, streams = ctx["service"], ctx["streams"]
    stamps = []
    out.attempted = sum(len(events) for events in streams.values())
    with Region(meter) as region:
        try:
            service.run_scheduled(
                {name: _stamped(events, stamps, meter)
                 for name, events in streams.items()},
                lookahead=LOOKAHEAD,
            )
        except Exception:
            out.fail(traceback.format_exc(limit=3), ops=out.attempted)
    out.close(region, meter, _pull_gaps(stamps, len(streams)))
    results = _tenant_outputs(service)
    if not out.failed:
        for name, events in streams.items():
            got = results[name]
            if not got["finished"] or got["queries"] != len(events):
                out.fail("%s: ingested %d of %d events"
                         % (name, got["queries"], len(events)),
                         ops=len(events))
        for first, second in ctx["twins"]:
            a, b = results[first], results[second]
            if (a["configuration"], a["recommendations"]) != (
                b["configuration"], b["recommendations"]
            ):
                out.fail("%s and %s share a stream but ended differently"
                         % (first, second), ops=len(streams[second]))
    out.outputs = results
    out.stats = _service_stats(service)
    return out


# ----------------------------------------------------------------------
# 5. fleet_offload — the executor seam: process workers, socket runners.
# ----------------------------------------------------------------------


def cross_match(rng):
    """A three-way spectroscopic cross-match: the heavy-build shape
    (~30 ms per INUM build), so shipping builds *could* win."""
    return (
        "SELECT p.objid, s.z, n.distance "
        "FROM photoobj p, specobj s, neighbors n "
        "WHERE p.objid = s.bestobjid AND p.objid = n.objid "
        "AND s.z > %.3f AND n.distance < %.4f AND p.rmag < %.2f "
        "ORDER BY p.ra LIMIT 500"
        % (
            rng.uniform(0.0, 5.0),
            rng.uniform(0.005, 0.08),
            rng.uniform(18.0, 23.0),
        )
    )


def _fleet_phases(length):
    return (
        DriftPhase("crossmatch", length, (
            (cross_match, 0.5),
            (sdss.template("photo_spec_join"), 0.3),
            (sdss.template("field_join"), 0.2),
        )),
        DriftPhase("quality", length, (
            (cross_match, 0.4),
            (sdss.template("spec_quality_join"), 0.4),
            (sdss.template("field_join"), 0.2),
        )),
    )


def spawn_runners(count):
    """Start *count* loopback ``python -m repro runner`` subprocesses;
    returns ``(processes, addresses)`` once each has printed its bound
    address, i.e. is accepting connections."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    processes, addresses = [], []
    try:
        for __ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "runner",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            processes.append(proc)
            line = proc.stdout.readline()
            match = re.search(r"listening on (\S+)", line)
            if not match:
                raise RuntimeError("runner failed to start: %r" % (line,))
            addresses.append(match.group(1))
    except BaseException:
        stop_runners(processes)
        raise
    return processes, addresses


def stop_runners(processes):
    """Terminate, never ``RunnerNode.stop()``: that blocks 5 s per node
    (ROADMAP 4e) and the clock has already stopped."""
    for proc in processes:
        proc.terminate()
    for proc in processes:
        proc.wait(timeout=30)
        proc.stdout.close()


def setup_fleet(seed, scale):
    length = max(10, round(80 * scale))
    streams = {
        "t%d" % i: _splice(*(
            drifting_stream(_fleet_phases(length), seed=s + i // 2)
            for s in (ANCHOR_SEED, seed)
        ))
        for i in range(4)
    }
    processes, addresses = spawn_runners(FAN_OUT)
    return {
        "catalog": sdss_catalog(scale=0.05),
        "streams": streams,
        "runners": processes,
        "addresses": addresses,
    }


def teardown_fleet(ctx):
    stop_runners(ctx["runners"])


REMOTE_FAILURE_COUNTERS = (
    "repro_remote_fallback_total",
    "repro_remote_node_deaths_total",
    "repro_remote_retries_total",
)


def _fleet_leg(ctx, meter, executor, pids=()):
    """One leg: a fresh service over the same streams, timed from
    ``run_scheduled`` to the executor's ``close()`` (which reaps the
    process workers, so their CPU lands in ``RUSAGE_CHILDREN``)."""
    catalog = ctx["catalog"]
    service = TuningService(shards=4)
    service.add_backplane("sdss", catalog)
    for name in ctx["streams"]:
        service.add_tenant(name, "sdss", colt_settings=_colt(catalog),
                           recommend_every=40)
    stamps = []
    gc.collect()
    with Region(meter, pids) as region:
        try:
            service.run_scheduled(
                {name: _stamped(events, stamps, meter)
                 for name, events in ctx["streams"].items()},
                executor=executor, lookahead=LOOKAHEAD,
            )
        finally:
            if executor is not None:
                executor.close()
    return {
        "service": service,
        "region": region,
        "spans": _pull_gaps(stamps, len(ctx["streams"])),
        "results": _tenant_outputs(service),
    }


def _wire_replay(service, catalog, meter):
    """Encode/decode cost of the leg's final pool entries, replayed
    outside the timed region: the JSON share to know before anyone
    builds a binary wire."""
    pool = service.backplane("sdss").pool
    entries = [(sig, pool.get(sig)) for sig in pool.signatures()]
    with Region(meter) as encode:
        texts = [wire.dumps(wire.entry_to_wire(sig, cache))
                 for sig, cache in entries]
    fresh = InumCachePool()
    with Region(meter) as decode:
        for text in texts:
            wire.loads(text, catalog, pool=fresh)
    return {
        "evaluation.wire.encode_s": encode.wall_s,
        "evaluation.wire.decode_s": decode.wall_s,
        "evaluation.wire.bytes_per_entry":
            sum(len(t) for t in texts) / max(1, len(texts)),
    }


def run_fleet(ctx, meter):
    out = Outcome()
    events = sum(len(stream) for stream in ctx["streams"].values())
    pids = [proc.pid for proc in ctx["runners"]]
    legs = {}
    for name, make, leg_pids in (
        ("inline", lambda: None, ()),
        ("process", lambda: ProcessStepExecutor(processes=FAN_OUT), ()),
        ("socket", lambda: RemoteStepExecutor(ctx["addresses"]), pids),
    ):
        try:
            legs[name] = _fleet_leg(ctx, meter, make(), leg_pids)
        except Exception:
            legs[name] = None
            out.failures.append(
                "%s leg: %s" % (name, traceback.format_exc(limit=3))
            )
    reference = legs["inline"]
    tasks = counter_total("repro_remote_tasks_total")
    broken = {n: counter_total(n) for n in REMOTE_FAILURE_COUNTERS}
    # ops_per_s and cpu_s cover the two fan-out legs only; the inline
    # leg is the reference their results must equal.
    for name in ("process", "socket"):
        leg = legs[name]
        out.attempted += events
        if leg is None:
            out.fail("%s leg raised" % name, ops=events)
            continue
        out.wall_s += leg["region"].wall_s
        out.cpu_s += leg["region"].cpu_s
        out.latencies += [meter.reference_seconds(a, b)
                          for a, b in leg["spans"]]
        if reference is None or leg["results"] != reference["results"]:
            out.fail("%s leg: results differ from inline" % name, ops=events)
        elif name == "socket" and (tasks == 0 or any(broken.values())):
            # A dead fleet silently falls back to local execution: that
            # leg is a failure, not a fast result.
            out.fail("socket leg: fleet did not do the work (tasks=%d, %s)"
                     % (tasks, broken), ops=events)
    out.outputs = {n: leg and leg["results"] for n, leg in legs.items()}
    for name, metric in (("inline", "runtime.inline.events_per_s"),
                         ("process", "evaluation.process.events_per_s"),
                         ("socket", "net.events_per_s")):
        leg = legs[name]
        out.stats[metric] = events / leg["region"].wall_s if leg else 0.0
    live = [leg for leg in legs.values() if leg is not None]
    if live:
        out.region_s = sum(leg["region"].wall_s for leg in live)
        out.speed = meter.speed(live[0]["region"].start,
                                live[-1]["region"].end)
        out.stats.update(_service_stats_sum([l["service"] for l in live]))
        ctx["last_service"] = live[-1]["service"]
    return out


def epilogue_fleet(ctx, out, meter):
    """Untimed, untraced: the wire replay over the last leg's pool."""
    if "last_service" in ctx:
        out.stats.update(
            _wire_replay(ctx["last_service"], ctx["catalog"], meter))


def _service_stats_sum(services):
    parts = [_service_stats(service) for service in services]
    total = {key: sum(p[key] for p in parts) for key in parts[0]
             if key != "pool"}
    total["pool"] = _pool_stats([p["pool"] for p in parts])
    return total


# ----------------------------------------------------------------------

# name -> (setup, run, epilogue or None, teardown or None).  The run is
# the timed, traced region; the epilogue adds untimed measurements.
REGISTRY = {
    "whatif_session": (setup_whatif, run_whatif, None, None),
    "recommend_offline": (setup_recommend, run_recommend, None, None),
    "online_ingest": (setup_ingest, run_online, None, None),
    "online_evict": (setup_evict, run_online, None, None),
    "fleet_offload": (setup_fleet, run_fleet, epilogue_fleet, teardown_fleet),
}
