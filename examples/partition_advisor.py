"""AutoPart in isolation: partitioning a wide scientific table (Figure 3).

Shows the full AutoPart pipeline — primary fragments, pairwise merging,
replication within a budget, horizontal pruning — plus query rewriting
onto the fragment tables.

Run:  python examples/partition_advisor.py
"""

from repro import (
    AutoPartAdvisor,
    WorkloadEvaluator,
    sdss_catalog,
    sdss_workload,
)
from repro.autopart import rewrite_for_layout


def main():
    catalog = sdss_catalog(scale=0.1)
    workload = sdss_workload(n_queries=20, seed=42)
    advisor = AutoPartAdvisor(WorkloadEvaluator(catalog))

    table = catalog.table("photoobj")
    print("photoobj: %d columns, %d rows, %d pages\n"
          % (len(table.columns), table.row_count, table.pages))

    for budget in (0, table.pages // 4, table.pages):
        rec = advisor.recommend(workload, replication_budget_pages=budget)
        print("replication budget %6d pages -> %5.1f%% improvement "
              "(%d layouts, %d horizontal)"
              % (budget, rec.improvement_pct,
                 len(rec.configuration.layouts),
                 len(rec.configuration.horizontals)))

    print()
    rec = advisor.recommend(workload, replication_budget_pages=table.pages // 4)
    print(rec.to_text())

    print("\n=== Merge/replication decisions ===")
    for line in rec.merge_log:
        print("  " + line)

    print("\n=== Rewritten queries (first 3 that change) ===")
    shown = 0
    for sql, __ in workload:
        rewritten = rewrite_for_layout(sql, catalog, rec.layouts)
        if rewritten != sql and shown < 3:
            print("  original : %s" % sql)
            print("  rewritten: %s\n" % rewritten)
            shown += 1


if __name__ == "__main__":
    main()
