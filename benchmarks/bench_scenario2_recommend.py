"""SC2 — Scenario 2: automatic recommendation under size constraints.

The tool recommends indexes and partitions maximizing performance within
a storage budget, displays per-query and average benefit, interactions,
and a materialization schedule.

Expected shape: improvement grows monotonically with the budget; the
recommended schedule's cost-area never exceeds the naive order's; the
same machinery works on the TPC-H-style workload.
"""

from repro.designer import Designer

from conftest import assert_recommends, print_table


def test_scenario2_storage_sweep(sdss_env, benchmark):
    catalog, workload = sdss_env
    designer = Designer(catalog)
    table_pages = sum(t.pages for t in catalog.tables)
    budgets = [table_pages // 10, table_pages // 4, table_pages]

    recs = [
        designer.recommend(workload, storage_budget_pages=b, partitions=False)
        for b in budgets
    ]
    rows = [
        (
            b,
            rec.index_recommendation.size_pages,
            len(rec.index_recommendation.indexes),
            rec.combined_workload_cost,
            rec.improvement_pct,
        )
        for b, rec in zip(budgets, recs)
    ]
    print_table(
        "SC2: storage budget sweep (indexes only)",
        ("budget", "used", "#indexes", "cost", "gain%"),
        rows,
    )
    for (b, rec) in zip(budgets, recs):
        assert rec.index_recommendation.size_pages <= b
        assert_recommends(designer.evaluator, workload,
                          rec.index_recommendation)
    costs = [rec.combined_workload_cost for rec in recs]
    for tighter, looser in zip(costs, costs[1:]):
        assert looser <= tighter + 1e-6

    # A fresh Designer per round: a repeated call on one backplane is
    # answered from its recommendation memo and would time a dict probe.
    benchmark(
        lambda: Designer(catalog).recommend(
            workload, budgets[1], "milp", False
        )
    )


def test_scenario2_full_recommendation_with_schedule(sdss_env, benchmark):
    catalog, workload = sdss_env
    budget = sum(t.pages for t in catalog.tables) // 3

    rec = benchmark(lambda: Designer(catalog).recommend(workload, budget))

    print_table(
        "SC2: recommended indexes",
        ("index", "pages"),
        [
            (ix.name, ix.size_pages(catalog.table(ix.table_name)))
            for ix in rec.index_recommendation.indexes
        ],
    )
    if rec.schedule is not None:
        print_table(
            "SC2: materialization schedule (%s)" % rec.schedule.method,
            ("step", "index", "done@", "cost after"),
            [
                (k + 1, ix.name, rec.schedule.timeline[k + 1][0],
                 rec.schedule.timeline[k + 1][1])
                for k, ix in enumerate(rec.schedule.order)
            ],
        )
        print_table(
            "SC2: schedule quality (cost area, lower=better)",
            ("interaction-aware", "naive order"),
            [(rec.schedule.area, rec.naive_schedule.area)],
        )
        assert rec.schedule.area <= rec.naive_schedule.area + 1e-6
    assert rec.improvement_pct > 20.0
    assert rec.combined_workload_cost <= rec.index_recommendation.predicted_workload_cost + 1e-6


def test_scenario2_tpch_portability(tpch_env, benchmark):
    catalog, workload = tpch_env
    budget = sum(t.pages for t in catalog.tables) // 3

    rec = benchmark(
        lambda: Designer(catalog).recommend(workload, budget, "milp", False)
    )

    print_table(
        "SC2: TPC-H-lite recommendation",
        ("index", "pages"),
        [
            (ix.name, ix.size_pages(catalog.table(ix.table_name)))
            for ix in rec.index_recommendation.indexes
        ],
    )
    print_table(
        "SC2: TPC-H-lite workload",
        ("base", "new", "gain%"),
        [(rec.base_workload_cost, rec.combined_workload_cost, rec.improvement_pct)],
    )
    assert rec.improvement_pct > 5.0
    assert rec.index_recommendation.size_pages <= budget
