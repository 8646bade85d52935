"""The multi-tenant online tuning service.

Four tenants stream drifting workloads against one TuningService — two
astronomy tenants replaying a shared SDSS dashboard, two decision-support
tenants on a TPC-H mix.  Each tenant gets its own COLT epoch loop, drift
detection at phase boundaries, and periodic full-advisor design
refreshes; all of them price through shared, sharded INUM cache pools,
so plan caches built for one tenant are hits for its neighbors.

Run:  python examples/multi_tenant_service.py
"""

from repro import TuningService
from repro.workloads import sdss_catalog, tpch_catalog
from repro.workloads.drift import default_phases, drifting_stream, tpch_phases

PHASE_LENGTH = 20


def main():
    service = TuningService(shards=4)
    service.add_backplane("sdss", sdss_catalog(scale=0.05))
    service.add_backplane("tpch", tpch_catalog(scale=0.05))

    # Tenants within a group replay the same dashboard stream (the
    # common multi-tenant shape: many users, one set of saved queries).
    tenants = {
        "astro-1": ("sdss", default_phases, 11),
        "astro-2": ("sdss", default_phases, 11),
        "dss-1": ("tpch", tpch_phases, 7),
        "dss-2": ("tpch", tpch_phases, 7),
    }
    for name, (key, __, ___) in tenants.items():
        service.add_tenant(name, key, recommend_every=30, window=30)

    # Warm-up: pre-build each distinct query's INUM cache once per
    # backplane, before any tenant asks for it.
    for key, phases_fn, seed in {(k, p, s) for k, p, s in tenants.values()}:
        calls = service.warm_up(
            key,
            [sql for __, sql in
             drifting_stream(phases_fn(PHASE_LENGTH), seed=seed)],
        )
        print("warmed %s backplane: %d optimizer calls" % (key, calls))

    # Scheduled ingest: the cooperative scheduler pulls every tenant's
    # stream and advances it as resumable steps at an equal share, so no
    # tenant starves; per-tenant results are identical to draining each
    # stream on its own.
    streams = {
        name: drifting_stream(phases_fn(PHASE_LENGTH), seed=seed)
        for name, (key, phases_fn, seed) in tenants.items()
    }
    service.run_scheduled(streams)

    print()
    print(service.status_text())

    print()
    for name in tenants:
        session = service.tenant(name)
        last = session.recommendations[-1]
        print(
            "%s final design review: %s (%.1f%% better than untuned)"
            % (name, ",".join(last.indexes) or "(none)",
               last.improvement_pct)
        )

    # The service's whole point: tenants share builds.  Every hit in the
    # pool stats is a cache one tenant's traffic built and another (or a
    # later probe) reused without an optimizer call.
    print()
    for key in ("sdss", "tpch"):
        plane = service.backplane(key)
        stats = plane.pool.stats
        print(
            "%s pool: %d entries, %d builds, %d cross-probe hits "
            "(%.0f%% hit rate)"
            % (key, len(plane.pool), stats.optimizer_calls, stats.hits,
               100.0 * stats.hit_rate)
        )


if __name__ == "__main__":
    main()
