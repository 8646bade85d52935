"""Scenario 2 — fully automatic tuning with a materialization schedule.

The tool recommends indexes (CoPhy's solver formulation) and partitions
(AutoPart) under a storage constraint, shows the interaction graph of the
suggested indexes, and produces an interaction-aware materialization
schedule compared against the naive benefit order.

Run:  python examples/auto_tuning_sdss.py
"""

from repro import Designer, sdss_catalog, sdss_workload
from repro.cophy import CoPhyAdvisor


def main():
    catalog = sdss_catalog(scale=0.1)
    workload = sdss_workload(n_queries=25, seed=7)
    designer = Designer(catalog)

    table_pages = sum(t.pages for t in catalog.tables)
    budget = int(table_pages * 0.35)
    print("Database: %d pages across %d tables; storage budget %d pages.\n"
          % (table_pages, len(catalog.tables), budget))

    result = designer.recommend(workload, storage_budget_pages=budget)
    print(result.to_text())

    # The quality-vs-time dial the paper highlights: the exact solver vs
    # the greedy heuristic commercial tools use, and column generation —
    # greedy's answer with candidates priced on demand.
    print("\n=== Solver comparison at this budget ===")
    advisor = CoPhyAdvisor(designer.evaluator)
    for solver in ("milp", "greedy", "colgen"):
        rec = advisor.recommend(workload, budget, solver=solver)
        print("  %-12s -> cost %10.1f (%.1f%% better), %d indexes, %.2fs"
              % (solver, rec.predicted_workload_cost, rec.improvement_pct,
                 len(rec.indexes), rec.solve_seconds))


if __name__ == "__main__":
    main()
