"""Greedy index selection: the baseline the paper's introduction targets.

This is the classic advisor loop (DTA-style): repeatedly add the candidate
with the best benefit-per-page ratio until the budget is exhausted or no
candidate helps.  It uses the *same* cost oracle as the exact solvers
(:meth:`BipProblem.config_cost`), so any quality gap measured against the
BIP optimum is attributable purely to greedy search, not to cost-model
differences — the comparison the CL-ILP experiment reports.

The round's decision is written once, in :func:`best_extension`:
:func:`greedy_select` applies it to every feasible extension, column
generation (:mod:`repro.cophy.colgen`) to the extensions its bound could
not rule out — which is why the two return the same design.
"""

import time

from repro.cophy.solvers import SolveResult, observed_solve

# A candidate must cut the workload cost by more than this to be chosen;
# column generation's bound prunes against the same constant.
BENEFIT_EPS = 1e-9


def best_extension(current_cost, priced, sizes):
    """One round's decision over *priced*, ``(position, cost of chosen +
    [position])`` pairs in ascending position: extensions whose benefit
    does not exceed :data:`BENEFIT_EPS` are skipped, the rest rank by
    benefit per page (the usual knapsack heuristic), and the maximum is
    strict, so the first best wins ties.  Returns ``(position, score,
    cost)`` — ``(None, 0.0, current_cost)`` when nothing helps."""
    best_pos, best_score, best_cost = None, 0.0, current_cost
    for pos, cost in priced:
        benefit = current_cost - cost
        if benefit <= BENEFIT_EPS:
            continue
        score = benefit / sizes[pos]
        if score > best_score:
            best_pos, best_score, best_cost = pos, score, cost
    return best_pos, best_score, best_cost


def greedy_select(problem):
    """Greedy selection over a :class:`~repro.cophy.bip.BipProblem`.

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
        best_pos, __, best_cost = best_extension(
            current_cost, zip(feasible, costs), problem.sizes
        )
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
        solver="greedy-ratio",
        solve_seconds=time.perf_counter() - started,
        nodes_explored=evaluations,
    ))
