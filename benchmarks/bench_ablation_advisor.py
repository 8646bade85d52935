"""Ablation: advisor design choices.

* candidate cap — CoPhy's main quality/solve-time dial: more candidates
  widen the search space the solver can exploit;
* workload compression — clustering same-shaped statements should cut
  solve time at (near-)zero quality loss;
* composite/covering candidate generation — turning the richer candidate
  classes off should cost quality on this workload (covering indexes
  enable index-only scans the SDSS mix loves).
"""

import time

from repro.cophy import CoPhyAdvisor, candidate_indexes
from repro.cophy.compression import compress_workload
from repro.evaluation import WorkloadEvaluator
from repro.workloads import sdss_workload

from conftest import assert_recommends, print_table


def recommend_compressed(advisor, workload, budget):
    """The advisor's recommendation for *workload* compressed first:
    ``(recommendation, seconds, compression stats)``, the seconds
    counting the compression as well as ``solve_seconds``."""
    started = time.perf_counter()
    compressed, stats = compress_workload(workload)
    recommendation = advisor.recommend(compressed, budget)
    return recommendation, time.perf_counter() - started, stats


def test_ablation_candidate_cap(sdss_env, benchmark):
    catalog, workload = sdss_env
    advisor = CoPhyAdvisor(WorkloadEvaluator(catalog))
    budget = sum(t.pages for t in catalog.tables) // 4

    rows = []
    for cap in (4, 8, 16, 32, 60):
        rec = advisor.recommend(workload, budget, max_candidates=cap)
        assert_recommends(advisor.evaluator, workload, rec)
        rows.append(
            (cap, rec.predicted_workload_cost, rec.improvement_pct,
             rec.solve_seconds)
        )
    print_table(
        "ABL-ADV: candidate cap vs quality",
        ("max candidates", "cost", "gain %", "solve s"),
        rows,
    )
    costs = [r[1] for r in rows]
    for smaller, larger in zip(costs, costs[1:]):
        assert larger <= smaller + 1e-6  # more candidates never hurt

    benchmark(advisor.recommend, workload, budget, None, "milp", 16)


def test_ablation_candidate_classes(sdss_env):
    catalog, workload = sdss_env
    advisor = CoPhyAdvisor(WorkloadEvaluator(catalog))
    budget = sum(t.pages for t in catalog.tables) // 4

    variants = [
        ("single-column only", dict(composite_pairs=False, include_covering=False)),
        ("+ composites", dict(composite_pairs=True, include_covering=False)),
        ("+ covering", dict(composite_pairs=True, include_covering=True)),
    ]
    rows = []
    costs = []
    for label, kwargs in variants:
        candidates = candidate_indexes(catalog, workload, max_candidates=60, **kwargs)
        rec = advisor.recommend(workload, budget, candidates=candidates)
        assert_recommends(advisor.evaluator, workload, rec)
        rows.append((label, len(candidates), rec.predicted_workload_cost,
                     rec.improvement_pct))
        costs.append(rec.predicted_workload_cost)
    print_table(
        "ABL-ADV: candidate classes",
        ("class", "#cands", "cost", "gain %"),
        rows,
    )
    assert costs[2] <= costs[0] + 1e-6  # richer classes can only help


def test_ablation_workload_compression(sdss_env, benchmark):
    catalog, __ = sdss_env
    big_workload = sdss_workload(n_queries=120, seed=5)
    advisor = CoPhyAdvisor(WorkloadEvaluator(catalog))
    budget = sum(t.pages for t in catalog.tables) // 4

    full = advisor.recommend(big_workload, budget)
    compressed, compressed_seconds, stats = recommend_compressed(
        advisor, big_workload, budget
    )

    print_table(
        "ABL-ADV: workload compression (120-statement workload)",
        ("variant", "statements", "solve s", "chosen indexes"),
        [
            ("full", 120, full.solve_seconds, len(full.indexes)),
            ("compressed", stats.compressed_statements,
             compressed_seconds, len(compressed.indexes)),
        ],
    )
    assert_recommends(advisor.evaluator, big_workload, full)
    assert_recommends(advisor.evaluator, big_workload, compressed)
    assert stats.ratio > 2.0
    assert compressed_seconds < full.solve_seconds
    # Quality check on the *full* workload: the compressed choice must be
    # within a few percent of the full-workload choice.
    inum = advisor.evaluator
    cost_full_choice = inum.workload_cost(big_workload, full.configuration)
    cost_comp_choice = inum.workload_cost(big_workload, compressed.configuration)
    print_table(
        "ABL-ADV: compression quality on full workload",
        ("full choice", "compressed choice", "penalty %"),
        [(
            cost_full_choice,
            cost_comp_choice,
            100.0 * (cost_comp_choice - cost_full_choice) / cost_full_choice,
        )],
    )
    assert cost_comp_choice <= cost_full_choice * 1.10

    benchmark(recommend_compressed, advisor, big_workload, budget)
