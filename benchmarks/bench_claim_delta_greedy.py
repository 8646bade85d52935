"""CL-DELTA — delta-kernel pricing of a greedy index-selection sweep.

Greedy advisors spend their rounds pricing one-index extensions of the
configuration chosen so far — near-identical siblings that a full
columnar sweep (``greedy_select_reference`` in ``tests/oracle.py``, the
baseline here) re-prices from scratch every round.  The shipped sweep
(:meth:`~repro.evaluation.kernel.BipKernel.evaluate_delta`) captures the
parent's slot winners and per-plan sums once per round and re-minimizes
only the statements a candidate actually improves, so each round costs
O(affected plans) instead of O(grid).

Method: a greedy sweep (benefit/size ratio, half-budget knapsack) over a
50-query SDSS workload with 16 candidates, one warm pricing surface for
both engines, then one timed full run per engine — best-of-N so a noisy
sample cannot decide the claim.  Delta mode must be at least 3x faster
and **decision-identical**: same chosen positions in the same order,
same objective, same round count, and the winning configuration's
per-statement usage sets (vectorized argmin-witness batch vs. the serial
reference walk) must match exactly.
"""

import os
import random
import time

from repro.cophy import candidate_indexes
from repro.cophy.bip import build_bip
from repro.cophy.greedy import greedy_select
from repro.evaluation import WorkloadEvaluator
from repro.whatif import Configuration
from repro.workloads import sdss_catalog, sdss_workload

from conftest import print_table
from oracle import greedy_select_reference

N_QUERIES = 50
N_CANDIDATES = 64

# The claim is >=3x on quiet hardware; CI smoke jobs on shared runners
# relax the floor (they check decision identity, not magnitude).
SPEEDUP_FLOOR = float(os.environ.get("DELTA_GREEDY_SPEEDUP_FLOOR", "3.0"))


def make_problem(seed=5):
    catalog = sdss_catalog(scale=0.1)
    workload = list(sdss_workload(n_queries=N_QUERIES, seed=11))
    candidates = candidate_indexes(
        catalog, workload, max_candidates=N_CANDIDATES
    )
    evaluator = WorkloadEvaluator(catalog)
    evaluator.warm_up(workload)
    budget = sum(
        ix.size_pages(catalog.table(ix.table_name)) for ix in candidates
    ) // 2
    problem = build_bip(evaluator, workload, candidates, budget_pages=budget)
    return evaluator, workload, candidates, problem


def timed(fn, repeats=5):
    # Best-of-N: one noisy sample must not decide a timing claim.
    best = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_claim_delta_greedy_speedup(benchmark):
    evaluator, workload, candidates, problem = make_problem()

    # Populate both engines' derived state (compiled kernel, per-position
    # delta plans), then time the steady state of a whole greedy run.
    delta_warm = greedy_select(problem)
    full_warm = greedy_select_reference(problem)
    assert delta_warm.chosen_positions == full_warm.chosen_positions

    t_delta, delta_result = timed(lambda: greedy_select(problem))
    t_full, full_result = timed(lambda: greedy_select_reference(problem))

    speedup = t_full / max(t_delta, 1e-9)
    print_table(
        "CL-DELTA: greedy sweep, %d queries x %d candidates"
        % (N_QUERIES, N_CANDIDATES),
        ("engine", "milliseconds", "extensions priced"),
        [
            ("full batch", t_full * 1e3, full_result.nodes_explored),
            ("delta kernel", t_delta * 1e3, delta_result.nodes_explored),
        ],
    )
    print_table(
        "CL-DELTA: decision identity",
        ("speedup x", "chosen", "objective"),
        [(speedup, len(delta_result.chosen_positions),
          delta_result.objective)],
    )

    # Decision-identical: same indexes in the same order, same objective
    # (bit-exact, not a tolerance), same number of pricing rounds.
    assert delta_result.chosen_positions == full_result.chosen_positions
    assert delta_result.objective == full_result.objective
    assert delta_result.nodes_explored == full_result.nodes_explored

    # The winning configuration's usage sets come out identical through
    # the vectorized argmin-witness batch and the serial reference walk.
    chosen = Configuration(indexes=frozenset(
        candidates[pos] for pos in delta_result.chosen_positions
    ))
    family = [chosen, Configuration.empty()] + [
        chosen.without_indexes(candidates[pos])
        for pos in delta_result.chosen_positions
    ]
    serial = [
        evaluator.workload_cost_with_usage(workload, config)
        for config in family
    ]
    vectorized = evaluator.workload_cost_with_usage_batch(
        workload, family, parent=chosen
    )
    assert vectorized == serial

    assert speedup >= SPEEDUP_FLOOR, (
        "delta-mode greedy must be at least %.1fx faster than the "
        "full-batch sweep (got %.1fx)" % (SPEEDUP_FLOOR, speedup)
    )

    benchmark(greedy_select, problem)


def test_claim_delta_rounds_match_full_batch():
    """Round-by-round: every extension cost the delta kernel reports
    during the sweep equals the full-batch number exactly, so no round
    can ever flip its winner."""
    __, __, __, problem = make_problem(seed=9)
    rng = random.Random(3)
    n = problem.n_candidates
    rows = []
    for chosen_size in (0, 2, 4):
        chosen = rng.sample(range(n), chosen_size)
        extensions = [pos for pos in range(n) if pos not in chosen]
        full = problem.config_costs([chosen + [pos] for pos in extensions])
        delta = problem.config_costs_delta(chosen, extensions)
        assert delta == full
        rows.append((chosen_size, len(extensions), True))
    print_table(
        "CL-DELTA: per-round equivalence",
        ("|chosen|", "extensions", "identical"),
        rows,
    )
