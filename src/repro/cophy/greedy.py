"""Greedy index selection: the baseline the paper's introduction targets.

This is the classic advisor loop (DTA-style): repeatedly add the candidate
with the best benefit-per-page ratio until the budget is exhausted or no
candidate helps.  It uses the *same* cost oracle as the exact solvers
(:meth:`BipProblem.config_cost`), so any quality gap measured against the
BIP optimum is attributable purely to greedy search, not to cost-model
differences — the comparison the CL-ILP experiment reports.
"""

import time

from repro.cophy.solvers import SolveResult, observed_solve


def greedy_select(problem, by_ratio=True):
    """Greedy selection over a :class:`~repro.cophy.bip.BipProblem`.

    ``by_ratio=True`` ranks candidates by benefit/size (the usual
    knapsack heuristic); ``False`` ranks by raw benefit.

    Each round prices its extensions as single-index deltas off the
    current ``chosen``
    (:meth:`~repro.cophy.bip.BipProblem.config_costs_delta`): the
    parent's slot winners and per-plan sums are captured once per round
    and only the plans a candidate offers an option to are re-summed.
    The chosen indexes, objective, and round-by-round decisions are
    bit-identical to the full-batch sweep the tests keep as the
    reference (``greedy_select_reference`` in ``tests/oracle.py``).
    """
    started = time.perf_counter()
    chosen = []
    used = 0.0
    current_cost = problem.config_cost(chosen)
    evaluations = 1
    remaining = set(range(problem.n_candidates))

    while remaining:
        if problem.max_indexes is not None and len(chosen) >= problem.max_indexes:
            break
        # Batched round: price every feasible one-index extension in a
        # single sweep through the problem's pricing surface.
        feasible = [
            pos for pos in sorted(remaining)
            if used + problem.sizes[pos] <= problem.budget_pages
        ]
        costs = problem.config_costs_delta(chosen, feasible)
        evaluations += len(feasible)
        best_pos = None
        best_score = 0.0
        best_cost = current_cost
        for pos, cost in zip(feasible, costs):
            benefit = current_cost - cost
            if benefit <= 1e-9:
                continue
            score = benefit / problem.sizes[pos] if by_ratio else benefit
            if score > best_score:
                best_pos, best_score, best_cost = pos, score, cost
        if best_pos is None:
            break
        chosen.append(best_pos)
        used += problem.sizes[best_pos]
        current_cost = best_cost
        remaining.discard(best_pos)

    return observed_solve(SolveResult(
        chosen_positions=tuple(chosen),
        objective=current_cost,
        status="heuristic",
        solver="greedy-%s" % ("ratio" if by_ratio else "benefit"),
        solve_seconds=time.perf_counter() - started,
        nodes_explored=evaluations,
    ))
