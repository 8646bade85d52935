"""Tuning a mixed read/write workload: indexes are not free.

Every index speeds some reads and taxes every write to its table.  This
walkthrough shows the advisor internalizing that tradeoff: as the update
storm grows, indexes on the updated columns disappear from the
recommendation while purely-read-serving indexes survive.

Run:  python examples/mixed_workload_tuning.py
"""

from repro import (
    CoPhyAdvisor,
    CostService,
    WorkloadEvaluator,
    sdss_catalog,
    sdss_workload,
)


def main():
    catalog = sdss_catalog(scale=0.1)
    inum = WorkloadEvaluator(catalog)
    advisor = CoPhyAdvisor(inum)
    budget = sum(t.pages for t in catalog.tables)

    reads = list(sdss_workload(n_queries=15, seed=42))
    reads += [
        ("SELECT objid FROM photoobj WHERE status = 17", 1.0),
        ("SELECT objid, flags FROM photoobj WHERE flags = 123456", 1.0),
    ]
    storm = [
        ("UPDATE photoobj SET status = 1, flags = 2 WHERE objid = 77", 0.0),
    ]

    print("What a single write statement costs under different designs:")
    update_sql = "UPDATE photoobj SET status = 1, flags = 2 WHERE objid = 77"
    bare = CostService(catalog)
    print("  no indexes:            %8.2f" % bare.cost(update_sql))
    from repro import Configuration, Index
    heavy = Configuration.of(
        Index("photoobj", ("status",)),
        Index("photoobj", ("flags",)),
        Index("photoobj", ("objid",)),
    )
    loaded = CostService(heavy.apply(catalog))
    print("  3 indexes on photoobj: %8.2f  (objid index speeds locate,"
          % loaded.cost(update_sql))
    print("                                   status/flags indexes add maintenance)")

    print("\nAdvisor recommendations as the update storm grows:")
    for weight in (0.0, 5_000.0, 50_000.0):
        workload = reads + [(storm[0][0], weight)] if weight else list(reads)
        rec = advisor.recommend(workload, budget)
        hit = [
            ix.name for ix in rec.indexes
            if {"status", "flags"} & set(ix.all_columns)
        ]
        print("  weight %8.0f -> %d indexes, %d on updated columns %s"
              % (weight, len(rec.indexes), len(hit), hit))


if __name__ == "__main__":
    main()
