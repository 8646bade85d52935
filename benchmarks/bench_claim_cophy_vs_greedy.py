"""CL-ILP — the paper's claim that solver-based selection beats the greedy
heuristics of commercial tools, which "prune away large fractions of the
search space and often suggest locally optimal solutions instead of the
globally optimal one" (§1).

Method: (a) a constructed instance where benefit-per-page greedy is
provably trapped by a knapsack interaction, and (b) storage-budget sweeps
on the SDSS and TPC-H workloads comparing the exact solver and greedy,
both over the identical INUM cost oracle.

Expected shape: MILP's proven lower bound <= greedy at every budget and
its returned design within HiGHS's relative gap of greedy's, with a
strict gap on the constructed instance (and typically at tight budgets
on real workloads).
"""

from repro.cophy import CoPhyAdvisor, greedy_select, solve_bip
from repro.cophy.bip import BipProblem, PlanTerm, QueryTerm, SlotOptions
from repro.cophy.solvers import MIP_REL_GAP
from repro.evaluation import WorkloadEvaluator
from repro.catalog import Index

from conftest import assert_recommends, print_table


def knapsack_trap():
    """One big index with the best ratio blocks two complementary ones."""
    candidates = [
        Index("t", ("a",), name="big_a"),
        Index("t", ("b",), name="small_b"),
        Index("t", ("c",), name="small_c"),
    ]
    problem = BipProblem(
        candidates=candidates, sizes=[10.0, 6.0, 6.0], budget_pages=12.0
    )

    def single_query(pos, improved_cost):
        return QueryTerm(
            weight=1.0,
            plans=[
                PlanTerm(
                    internal_cost=0.0,
                    slots=[
                        SlotOptions(options=[(-1, 100.0), (pos, improved_cost)])
                    ],
                )
            ],
        )

    problem.queries = [
        single_query(0, 5.0),  # big_a: benefit 95, ratio 9.5 (best ratio)
        single_query(1, 45.0),  # small_b: benefit 55, ratio 9.17
        single_query(2, 45.0),  # small_c: benefit 55, ratio 9.17
    ]
    return problem


def test_claim_greedy_trapped_on_constructed_instance(benchmark):
    problem = knapsack_trap()
    milp = benchmark(solve_bip, problem)
    greedy = greedy_select(problem)

    print_table(
        "CL-ILP: constructed knapsack trap (budget 12 pages)",
        ("solver", "cost", "chosen"),
        [
            ("milp", milp.objective,
             ",".join(problem.candidates[p].name for p in milp.chosen_positions)),
            ("greedy", greedy.objective,
             ",".join(problem.candidates[p].name for p in greedy.chosen_positions)),
        ],
    )
    # Optimal picks the two small complementary indexes (cost 190);
    # ratio-greedy grabs the big one and strands the rest (cost 205).
    assert milp.objective < greedy.objective - 1.0
    assert set(milp.chosen_positions) == {1, 2}
    assert greedy.chosen_positions == (0,)


def _sweep(catalog, workload, label, budgets):
    advisor = CoPhyAdvisor(WorkloadEvaluator(catalog))
    rows = []
    worst_gap = 0.0
    for budget in budgets:
        milp = advisor.recommend(workload, budget, solver="milp")
        greedy = advisor.recommend(workload, budget, solver="greedy")
        assert_recommends(advisor.evaluator, workload, milp)
        gap = (
            100.0
            * (greedy.predicted_workload_cost - milp.predicted_workload_cost)
            / milp.predicted_workload_cost
        )
        worst_gap = max(worst_gap, gap)
        rows.append(
            (
                budget,
                milp.predicted_workload_cost,
                greedy.predicted_workload_cost,
                gap,
                "%.1e" % milp.stats["gap"],
                milp.stats["nodes"],
            )
        )
        # HiGHS stops once its incumbent is within MIP_REL_GAP of its dual
        # bound, so the incumbent may trail greedy by that much; the bound
        # may not trail greedy at all.
        assert milp.stats["lower_bound"] <= greedy.predicted_workload_cost + 1e-6
        assert milp.predicted_workload_cost <= (
            greedy.predicted_workload_cost * (1 + MIP_REL_GAP)
        )
    print_table(
        "CL-ILP: %s budget sweep" % label,
        ("budget", "milp", "greedy", "greedy gap %", "milp proven gap",
         "milp nodes"),
        rows,
    )
    return worst_gap


def test_claim_milp_dominates_on_sdss(sdss_env, benchmark):
    catalog, workload = sdss_env
    pages = sum(t.pages for t in catalog.tables)
    budgets = [pages // 20, pages // 10, pages // 4, pages]
    worst_gap = _sweep(catalog, workload, "SDSS", budgets)
    print_table("CL-ILP: SDSS worst greedy gap", ("gap %",), [(worst_gap,)])

    advisor = CoPhyAdvisor(WorkloadEvaluator(catalog))
    benchmark(advisor.recommend, workload, pages // 10, None, "milp")


def test_claim_milp_dominates_on_tpch(tpch_env, benchmark):
    catalog, workload = tpch_env
    pages = sum(t.pages for t in catalog.tables)
    budgets = [pages // 20, pages // 8, pages // 2]
    _sweep(catalog, workload, "TPC-H", budgets)

    advisor = CoPhyAdvisor(WorkloadEvaluator(catalog))
    benchmark(advisor.recommend, workload, pages // 8, None, "milp")
