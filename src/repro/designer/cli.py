"""Command-line front end: the demo's interface, in terminal form.

    python -m repro describe   [--workload sdss|tpch] [--scale S]
    python -m repro evaluate   --indexes photoobj:ra,dec specobj:z ...
    python -m repro recommend  [--budget-frac F] [--solver milp|greedy|colgen]
    python -m repro online     [--phase-length N] [--epoch N]
    python -m repro serve      [--tenants N] [--refresh-every N]
                               [--shards N] [--state-dir DIR]
                               [--snapshot-interval N]
                               [--offload N | --runners HOST:PORT,...]
    python -m repro runner     [--listen HOST:PORT]
    python -m repro explain    --sql "SELECT ..."

Each subcommand prints the same panels the demo UI shows (benefit tables,
interaction graphs, schedules, per-epoch traces).  ``online`` runs
COLT alone over a drifting stream; ``serve`` runs the multi-tenant
service, each tenant a streaming session (ingest + drift detection +
periodic design refreshes) whose per-epoch COLT panel and refreshes it
prints: a tenant fleet alternating ``--workload`` and the other mix
(``serve --tenants 1`` is one ``--workload`` session), advancing as
resumable steps on the cooperative scheduler over sharded, shared cache
pools — with periodic pause-point
snapshots (``--snapshot-interval``) and optional offload of INUM cache
builds through the one fan-out backplane, whose runners are either
worker processes forked here (``--offload N``) or ``runner`` nodes on
other machines (``--runners``; ``runner`` serves one such node).
"""

import argparse
import itertools
import json
import sys
import time

from repro.catalog import Index
from repro.colt import ColtSettings
from repro.cophy.advisor import SOLVERS, check_budget
from repro.designer.facade import Designer
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.service import TuningService
from repro.service.tenant import colt_budget_pages
from repro.util import ReproError
from repro.whatif import WhatIfSession
from repro.workloads import (
    sdss_catalog,
    sdss_workload,
    tpch_catalog,
    tpch_workload,
)
from repro.workloads.drift import default_phases, drifting_stream, tpch_phases


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="An automated, yet interactive and portable DB designer",
    )
    parser.add_argument(
        "--workload", choices=("sdss", "tpch"), default="sdss",
        help="built-in schema + query mix to operate on",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1, help="dataset scale factor"
    )
    parser.add_argument(
        "--queries", type=int, default=20,
        help="number of workload queries for describe, evaluate, recommend "
             "and drops (online and serve stream their own)",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload seed")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("describe", help="show the catalog and workload")

    evaluate = sub.add_parser(
        "evaluate", help="Scenario 1: what-if evaluate a user design"
    )
    evaluate.add_argument(
        "--indexes",
        nargs="+",
        required=True,
        metavar="TABLE:COL[,COL...]",
        help="candidate indexes, e.g. photoobj:ra,dec",
    )

    recommend = sub.add_parser(
        "recommend", help="Scenario 2: automatic design recommendation"
    )
    recommend.add_argument(
        "--budget-frac", type=float, default=0.3,
        help="storage budget as a fraction of total table pages",
    )
    recommend.add_argument(
        "--solver", choices=sorted(SOLVERS), default="milp",
    )
    recommend.add_argument(
        "--no-partitions", action="store_true", help="indexes only"
    )

    online = sub.add_parser(
        "online", help="Scenario 3: continuous tuning of a drifting stream"
    )
    online.add_argument("--phase-length", type=int, default=75)
    online.add_argument("--epoch", type=int, default=25)
    online.add_argument(
        "--no-adopt", action="store_true",
        help="alert only; leave adoption to the DBA",
    )

    serve = sub.add_parser(
        "serve", help="simulate the multi-tenant tuning service"
    )
    serve.add_argument(
        "--tenants", type=int, default=4,
        help="tenant count, alternating --workload and the other mix",
    )
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument(
        "--pool-capacity", type=int, default=None,
        help="resident cache-pool entries per backplane (default unbounded), "
        "one per distinct statement text, routed to a shard by a hash of "
        "the text. A statement that leaves the working set (none of the "
        "16 workloads priced most recently reads it) keeps only its bound "
        "AST, plan terms and pool entry, about 2 kB: its scan, plan and "
        "slot memos go, re-derived if it returns. A bound also "
        "evicts entries: an evicted statement is decoded from its terms, "
        "never re-planned",
    )
    serve.add_argument("--phase-length", type=int, default=30)
    serve.add_argument("--epoch", type=int, default=25)
    serve.add_argument("--refresh-every", type=int, default=40)
    serve.add_argument(
        "--state-dir", default=None,
        help="persist tenant state here (wire format) and resume from a "
        "previous snapshot on startup; streams continue mid-phase",
    )
    serve.add_argument(
        "--max-events", type=int, default=0,
        help="stop each tenant after N events this run (0 = run to the "
        "end of the stream); with --state-dir this simulates a service "
        "shutdown mid-stream that the next invocation resumes",
    )
    serve.add_argument(
        "--snapshot-interval", type=int, default=0,
        help="take a consistent service snapshot every N ingested events "
        "at a scheduler pause point, without stopping ingest (requires "
        "--state-dir; 0 disables periodic snapshots)",
    )
    serve.add_argument(
        "--offload", type=int, default=0,
        help="offload INUM cache builds to N runners forked on this "
        "machine (0/1 = build inline); mutually exclusive with "
        "--runners; results are identical to inline execution",
    )
    serve.add_argument(
        "--runners", default=None,
        help="offload INUM cache builds to runners on other machines "
        "(comma-separated host:port list, each started with "
        "'python -m repro runner') — the same backplane as --offload, "
        "dialled instead of forked; mutually exclusive with it; "
        "results are identical to inline execution",
    )
    serve.add_argument(
        "--remote-timeout", type=float, default=30.0,
        help="per-request timeout in seconds against each runner node",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve the telemetry backplane over HTTP on 127.0.0.1:PORT "
        "(GET /metrics Prometheus text, /trace span JSON, /status "
        "service snapshot; 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--metrics-hold", type=float, default=0.0,
        help="keep the metrics endpoint alive this many seconds after "
        "the run completes (so scrapers can read the final state)",
    )
    serve.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="final status output: the terminal panel (text) or the "
        "full status()+registry snapshot as JSON (for scripting)",
    )

    runner = sub.add_parser(
        "runner", help="serve as a remote costing node for serve --runners"
    )
    runner.add_argument(
        "--listen", default="127.0.0.1:0",
        help="host:port to listen on (port 0 binds an ephemeral port; "
        "the bound address is printed on startup)",
    )

    explain = sub.add_parser("explain", help="EXPLAIN one SQL statement")
    explain.add_argument("--sql", required=True)

    drops = sub.add_parser(
        "drops", help="flag existing indexes no workload plan uses"
    )
    drops.add_argument(
        "--indexes",
        nargs="*",
        default=(),
        metavar="TABLE:COL[,COL...]",
        help="pre-create these indexes before judging usage",
    )
    return parser


def parse_index_spec(spec):
    """``table:col1,col2`` -> Index; raises ReproError on malformed input."""
    table, sep, columns = spec.partition(":")
    if not sep or not columns.strip() or not table.strip():
        raise ReproError(
            "bad index spec %r (expected table:col1,col2)" % (spec,)
        )
    cols = tuple(c.strip() for c in columns.split(",") if c.strip())
    if not cols:
        raise ReproError("no columns in index spec %r" % (spec,))
    return Index(table.strip(), cols)


# Each ``--workload``: its catalog, its query mix and its drift phases.
_MIXES = {
    "sdss": (sdss_catalog, sdss_workload, default_phases),
    "tpch": (tpch_catalog, tpch_workload, tpch_phases),
}


# The subcommands that read the ``--queries`` workload.
_READ_WORKLOAD = ("describe", "evaluate", "recommend", "drops")


def load_environment(args):
    """``(catalog, workload)`` of ``--workload``; the workload is built
    only for a subcommand that reads it, else ``None``."""
    make_catalog, make_workload, __ = _MIXES[args.workload]
    workload = None
    if args.command in _READ_WORKLOAD:
        workload = make_workload(n_queries=args.queries, seed=args.seed)
    return make_catalog(scale=args.scale), workload


def main(argv=None, out=sys.stdout):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, out)
    except ReproError as exc:
        print("error: %s" % exc, file=out)
        return 2


def _dispatch(args, out):
    if args.command == "runner":
        # A runner is workload-agnostic — each connection ships its own
        # catalog — so skip the environment build entirely.
        from repro.net import RunnerNode, parse_listen_address

        host, port = parse_listen_address(args.listen)
        node = RunnerNode(host=host, port=port, ship_obs=True).start()
        print("runner listening on %s" % node.address, file=out, flush=True)
        try:
            node.wait()
        except KeyboardInterrupt:
            pass
        finally:
            node.stop()
        return 0

    catalog, workload = load_environment(args)

    if args.command == "describe":
        print(catalog.describe(), file=out)
        print("", file=out)
        print(workload.describe(), file=out)
        return 0

    if args.command == "evaluate":
        designer = Designer(catalog)
        indexes = [parse_index_spec(s) for s in args.indexes]
        evaluation = designer.evaluate_design(workload, indexes=indexes)
        print(evaluation.to_text(), file=out)
        return 0

    if args.command == "recommend":
        designer = Designer(catalog)
        budget = int(check_budget(
            sum(t.pages for t in catalog.tables) * args.budget_frac
        ))
        result = designer.recommend(
            workload,
            storage_budget_pages=budget,
            solver=args.solver,
            partitions=not args.no_partitions,
        )
        print("storage budget: %d pages" % budget, file=out)
        print(result.to_text(), file=out)
        return 0

    if args.command == "online":
        designer = Designer(catalog)
        settings = ColtSettings(
            epoch_length=args.epoch,
            space_budget_pages=colt_budget_pages(catalog),
            auto_adopt=not args.no_adopt,
        )
        report = designer.continuous(_stream(args), settings)
        print(report.to_text(), file=out)
        untuned = _untuned_cost(catalog, args)
        saved = 100.0 * (untuned - report.total_cost) / untuned
        print("untuned: %.1f  -> %.1f%% saved" % (untuned, saved), file=out)
        return 0

    if args.command == "serve":
        if args.snapshot_interval and not args.state_dir:
            raise ReproError("--snapshot-interval requires --state-dir")
        service = TuningService(
            shards=args.shards,
            pool_capacity=args.pool_capacity,
        )
        # Tenant i streams keys[i % 2]: --workload, then the other mix.
        # The --workload backplane is the catalog built above.
        keys = (args.workload, "tpch" if args.workload == "sdss" else "sdss")
        service.add_backplane(keys[0], catalog)
        service.add_backplane(keys[1], _MIXES[keys[1]][0](scale=args.scale))
        metrics_server = None
        if args.metrics_port is not None:
            from repro.obs.export import MetricsServer

            metrics_server = MetricsServer(
                port=args.metrics_port, status_fn=service.status
            ).start()
            print("metrics: %s/metrics" % metrics_server.url, file=out,
                  flush=True)
        mixes = {
            "sdss": (default_phases, args.seed),
            "tpch": (tpch_phases, args.seed + 1),
        }
        restored = {}
        if args.state_dir:
            restored = service.load_state(args.state_dir)
            if restored:
                print(
                    "restored %d tenant(s) from %s"
                    % (len(restored), args.state_dir),
                    file=out,
                )
        streams = {}
        for i in range(args.tenants):
            key = keys[i % 2]
            name = "%s-%d" % (key, i)
            plane = service.backplane(key)
            if name not in restored:
                service.add_tenant(
                    name,
                    key,
                    colt_settings=ColtSettings(
                        epoch_length=args.epoch,
                        space_budget_pages=colt_budget_pages(plane.catalog),
                    ),
                    recommend_every=args.refresh_every,
                )
            phases_fn, seed = mixes[key]
            # The stream is a deterministic function of its seed, so a
            # restored tenant resumes mid-stream by skipping the events
            # already accounted for before the snapshot (ingested plus
            # restored-but-pending scheduler buffers, which run_scheduled
            # re-queues ahead of this stream).
            stream = itertools.islice(
                drifting_stream(phases_fn(args.phase_length), seed=seed),
                service.stream_offset(name),
                None,
            )
            if args.max_events:
                stream = itertools.islice(stream, args.max_events)
            streams[name] = stream
        executor = None
        if args.runners and args.offload and args.offload > 1:
            raise ReproError(
                "--runners and --offload are mutually exclusive: pick "
                "process offload or the runner fleet"
            )
        if args.runners:
            from repro.runtime import RemoteStepExecutor

            executor = RemoteStepExecutor(
                [addr.strip() for addr in args.runners.split(",")
                 if addr.strip()],
                timeout=args.remote_timeout,
            )
        elif args.offload and args.offload > 1:
            from repro.runtime import ProcessStepExecutor

            executor = ProcessStepExecutor(processes=args.offload)
        try:
            # Warm only backplanes a tenant will actually stream against
            # (--tenants 1 leaves the TPC-H backplane empty).  With an
            # executor the pre-warm builds are offloaded through the
            # same seam run_scheduled uses — across worker processes or
            # the runner fleet — with identical entries.
            active = {key for key in mixes
                      if service.backplane(key).tenants}
            for key in active:
                phases_fn, seed = mixes[key]
                service.warm_up(
                    key,
                    [sql for __, sql in
                     drifting_stream(phases_fn(args.phase_length),
                                     seed=seed)],
                    executor=executor,
                )
            # A --max-events run is a simulated shutdown: leave epochs
            # open (no final refresh) so the next invocation resumes
            # seamlessly.
            service.run_scheduled(
                streams,
                executor=executor,
                finish=not args.max_events,
                snapshot_interval=args.snapshot_interval,
                state_dir=args.state_dir if args.snapshot_interval else None,
            )
        finally:
            if executor is not None:
                executor.close()
        if args.state_dir:
            path = service.save_state(args.state_dir)
            print("state saved to %s" % path, file=out)
        if args.format == "json":
            # status() already merges the telemetry registry snapshot
            # under its "obs" key — one JSON document for scripting.
            print(json.dumps(service.status(), default=str), file=out,
                  flush=True)
        else:
            for name in streams:
                session = service.tenant(name)
                print(session.report.to_text(), file=out)
                print("", file=out)
                for rec in session.recommendations:
                    print(
                        "refresh@%d (%s, %s): %s (%.1f%% better)"
                        % (
                            rec.at_query,
                            rec.phase,
                            rec.trigger,
                            ",".join(rec.indexes) or "(none)",
                            rec.improvement_pct,
                        ),
                        file=out,
                    )
                print("", file=out)
            print(service.status_text(), file=out, flush=True)
        if metrics_server is not None:
            if args.metrics_hold > 0:
                # Keep the scrape surface up past the run so external
                # scrapers (CI smoke, a curl in another terminal) can
                # read the final counters.
                time.sleep(args.metrics_hold)
            metrics_server.stop()
        return 0

    if args.command == "explain":
        service = CostService(catalog)
        print(service.explain(args.sql), file=out)
        return 0

    if args.command == "drops":
        working = catalog.clone()
        for spec in args.indexes:
            working.add_index(parse_index_spec(spec))
        designer = Designer(working)
        drops = designer.suggest_drops(workload)
        if not drops:
            print("every existing index is used by some plan", file=out)
        for index, pages in drops:
            print("DROP INDEX %s  -- reclaims %d pages" % (index.name, pages),
                  file=out)
        return 0

    raise ReproError("unknown command %r" % (args.command,))


def _stream(args):
    """The drifting stream ``online`` replays: the phases of
    ``--workload``."""
    phases = _MIXES[args.workload][2]
    return drifting_stream(phases(args.phase_length), seed=args.seed)


def _untuned_cost(catalog, args):
    session = WhatIfSession(WorkloadEvaluator(catalog))
    return sum(session.cost(sql) for __, sql in _stream(args))
