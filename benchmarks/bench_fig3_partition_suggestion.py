"""FIG3 — regenerate Figure 3: the automatic partition suggestion panel.

Paper artifact: "the list of suggested partitions is displayed in the
right panel ... the user can examine the individual query benefit and the
average workload benefit".

Output: the suggested fragments per table, the per-query benefit table,
and a replication-budget sweep.  Expected shape: benefit grows with the
replication budget and then saturates.
"""

from repro.autopart import AutoPartAdvisor

from conftest import print_table


def test_fig3_partition_panel(sdss_env, sdss_evaluator, benchmark):
    catalog, workload = sdss_env
    advisor = AutoPartAdvisor(sdss_evaluator)

    rec = benchmark(advisor.recommend, workload, 5_000)

    frag_rows = []
    for layout in rec.configuration.layouts:
        for frag in layout.fragments:
            frag_rows.append((layout.table_name, "{%s}" % ",".join(frag.columns)))
    for horizontal in rec.configuration.horizontals:
        frag_rows.append(
            (
                horizontal.table_name,
                "RANGE(%s) x%d" % (horizontal.column, horizontal.partition_count),
            )
        )
    print_table("FIG3: suggested partitions", ("table", "partition"), frag_rows)

    per_query = [
        ("q%d" % i, base, new, 100.0 * (base - new) / base if base else 0.0)
        for i, (__, base, new) in enumerate(rec.per_query)
    ]
    print_table(
        "FIG3: per-query benefit", ("query", "base", "new", "gain%"), per_query
    )
    print_table(
        "FIG3: workload summary",
        ("base", "new", "avg gain%"),
        [(rec.base_workload_cost, rec.predicted_workload_cost, rec.improvement_pct)],
    )

    assert rec.configuration.layouts, "wide SDSS table should get fragmented"
    assert rec.improvement_pct > 10.0
    assert all(new <= base + 1e-6 for __, base, new in rec.per_query)


def test_fig3_replication_budget_sweep(sdss_env, sdss_evaluator, benchmark):
    catalog, workload = sdss_env
    advisor = AutoPartAdvisor(sdss_evaluator)
    table_pages = catalog.table("photoobj").pages
    budgets = [0, table_pages // 8, table_pages // 2, 2 * table_pages]

    def sweep():
        return [
            advisor.recommend(workload, replication_budget_pages=b).improvement_pct
            for b in budgets
        ]

    gains = benchmark(sweep)
    print_table(
        "FIG3: replication budget sweep",
        ("budget pages", "improvement %"),
        list(zip(budgets, gains)),
    )
    # Shape: more replication allowance never hurts; curve saturates.
    for tighter, looser in zip(gains, gains[1:]):
        assert looser >= tighter - 0.5
    assert gains[-1] - gains[-2] <= gains[1] - gains[0] + 5.0
