"""CL-SCHED — the paper's claim that "an appropriately scheduled
materialization of indexes can lead to higher benefit in contrast with a
schedule that does not take into account index interaction" (§3.5).

Method: take the recommended index set for the SDSS workload, evaluate
the cost-area (workload cost integrated over build time) of the naive
benefit-order schedule, the interaction-aware greedy schedule, and the
exact DP optimum.

Expected shape: optimal <= interaction-aware greedy <= naive, with a
gap of at least ``MIN_GAIN_PCT`` of the naive area whenever the set
contains interacting (e.g. mutually subsuming) indexes.
"""

from repro.catalog import Index
from repro.interaction import (
    InteractionAnalyzer,
    schedule_greedy,
    schedule_naive,
    schedule_optimal,
)

from conftest import print_table

MIN_GAIN_PCT = 1.0  # optimal's area saved against the naive order


def interacting_set():
    """A recommendation-shaped set with deliberate interactions: the
    single-column positional index is subsumed by the composite, and the
    covering z-index overlaps the plain one."""
    return [
        Index("photoobj", ("ra",)),
        Index("photoobj", ("ra", "dec")),
        Index("photoobj", ("type", "rmag")),
        Index("specobj", ("z",)),
        Index("specobj", ("z",), include=("bestobjid",)),
    ]


def test_claim_schedule_quality(sdss_env, sdss_evaluator, benchmark):
    catalog, workload = sdss_env
    analyzer = InteractionAnalyzer(sdss_evaluator, workload)
    indexes = interacting_set()

    naive = schedule_naive(indexes, analyzer.cost, catalog)
    greedy = schedule_greedy(indexes, analyzer.cost, catalog)
    optimal = benchmark(schedule_optimal, indexes, analyzer.cost, catalog)

    print_table(
        "CL-SCHED: cost area by scheduler (lower = benefit arrives earlier)",
        ("scheduler", "area", "order"),
        [
            ("naive-benefit", naive.area, " -> ".join(i.name for i in naive.order)),
            ("greedy-interaction", greedy.area,
             " -> ".join(i.name for i in greedy.order)),
            ("optimal-dp", optimal.area,
             " -> ".join(i.name for i in optimal.order)),
        ],
    )
    print_table(
        "CL-SCHED: timeline of the optimal schedule",
        ("elapsed", "workload cost"),
        optimal.timeline,
    )

    assert optimal.area <= greedy.area + 1e-6
    assert optimal.area <= naive.area + 1e-6
    gain_vs_naive = 100.0 * (naive.area - optimal.area) / naive.area
    print_table("CL-SCHED: optimal vs naive", ("area saved %",), [(gain_vs_naive,)])
    # The claim itself: on an interacting set, scheduling for the
    # interactions saves area (3.89 % here); a schedule that prices each
    # index alone saves almost none.
    assert gain_vs_naive >= MIN_GAIN_PCT
    # Final design is order-independent; only the path differs.
    assert naive.timeline[-1][1] == optimal.timeline[-1][1]
    # The cost curve of the optimal schedule is non-increasing over time.
    costs = [c for __, c in optimal.timeline]
    assert all(b <= a + 1e-6 for a, b in zip(costs, costs[1:]))


def test_claim_schedule_interaction_awareness_matters(sdss_env, sdss_evaluator):
    """With two subsuming indexes, building the composite first makes the
    single-column index nearly worthless — the naive order ignores that."""
    catalog, workload = sdss_env
    analyzer = InteractionAnalyzer(sdss_evaluator, workload)
    ra = Index("photoobj", ("ra",))
    ra_dec = Index("photoobj", ("ra", "dec"))

    marginal_alone = analyzer.benefit(ra, ())
    marginal_after = analyzer.benefit(ra, (ra_dec,))
    print_table(
        "CL-SCHED: why order matters (benefit of ra index)",
        ("context", "benefit"),
        [("alone", marginal_alone), ("after (ra,dec) built", marginal_after)],
    )
    assert marginal_after < marginal_alone * 0.5
