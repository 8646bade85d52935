"""Reference implementations the shipped code is pinned against.

Shipped code has one pricing path per job; the slow, obviously-right
forms it replaced live here, where only tests can reach them (ROADMAP
item 3).  Nothing in this file is tuned, batched or memoized on purpose.

* :class:`ScalarAutoPartAdvisor` — AutoPart's merge / replication /
  horizontal search as it ran before it moved onto the evaluation
  backplane: one scalar ``workload_cost`` walk per candidate, ``2N + 2``
  scalar calls for the report.  Works over a plain ``InumCostModel``.
* :func:`fragments_for_reference` — the greedy fragment set cover
  without the up-front filtering of useless fragments.
* :func:`solve_bip_all_integer` / :func:`relaxation_value` — the
  all-integer MILP and the ``(z, x)`` LP under a fixed binary ``y``,
  the two ends the y-only MILP is checked against.
* :func:`used_positions_reference` — the argmin witness of
  ``config_cost`` as a scalar first-strict-less walk.
* :func:`per_call_matrix` — a workload × configuration grid as one
  ``model.cost`` call per cell (``inum/cache.py:evaluate_terms``), the
  reference every batched evaluate is pinned against.
* :func:`config_costs_reference` — the BIP objective as a scalar walk
  over the option lists, what ``BipKernel.evaluate`` vectorizes.
* :func:`greedy_select_reference` — greedy selection re-pricing every
  extension as a full batch each round, what the delta sweep replaced.
* :func:`check_solution` — the program's constraints stated once, the
  one specification every solver backend's output is held to.
* :func:`threaded_warm_up` — not a reference but a vehicle: a warm-up
  whose builds race on real threads, for the tests that pin the pool's
  single-flight and shard locking.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import optimize

from repro.autopart.advisor import (
    AutoPartAdvisor,
    PartitionRecommendation,
    _bound_queries,
)
from repro.catalog import HorizontalPartitioning, VerticalFragment, VerticalLayout
from repro.cophy.solvers import SolveResult, _assemble
from repro.util import CatalogError, DesignError, workload_pairs
from repro.whatif import Configuration


class ScalarAutoPartAdvisor(AutoPartAdvisor):
    """The scalar search: candidate enumeration is the shipped class's
    (``_usage_signatures``, ``_primary_layout``, ``_merge_fragments``,
    ``_quantile_bounds``); every price is a ``workload_cost`` walk and
    every selection rule is spelled out again here."""

    def __init__(self, catalog, cost_model):
        self.catalog = catalog
        self.cost_model = cost_model  # any InumCostModel

    def recommend(self, workload, replication_budget_pages=0, vertical=True,
                  horizontal=True, max_merge_rounds=50):
        workload = list(workload)
        if not workload:
            raise DesignError("cannot partition for an empty workload")
        if replication_budget_pages < 0:
            raise DesignError("replication budget must be non-negative")

        merge_log = []
        config = Configuration.empty()
        if vertical:
            config = self._vertical_phase(
                workload, replication_budget_pages, max_merge_rounds, merge_log
            )
        if horizontal:
            config = self._horizontal_phase(workload, config, merge_log)

        base_cost = self.cost_model.workload_cost(workload)
        new_cost = self.cost_model.workload_cost(workload, config)
        per_query = []
        for sql, weight in workload_pairs(workload):
            per_query.append(
                (
                    sql,
                    weight * self.cost_model.cost(sql),
                    weight * self.cost_model.cost(sql, config),
                )
            )
        return PartitionRecommendation(
            configuration=config,
            base_workload_cost=base_cost,
            predicted_workload_cost=new_cost,
            replication_pages=sum(
                l.replication_pages(self.catalog.table(l.table_name))
                for l in config.layouts
            ),
            per_query=per_query,
            merge_log=merge_log,
        )

    def _vertical_phase(self, workload, replication_budget, max_rounds, merge_log):
        usage = self._usage_signatures(workload)
        config = Configuration.empty()
        for table_name, column_usage in sorted(usage.items()):
            table = self.catalog.table(table_name)
            layout = self._primary_layout(table, column_usage)
            if len(layout.fragments) <= 1:
                continue
            config = config.with_layout(layout)

        if not config.layouts:
            return config

        current_cost = self.cost_model.workload_cost(workload, config)
        for round_no in range(max_rounds):
            best = None  # (cost, new_config, description)
            for layout in config.layouts:
                frags = layout.fragments
                for i in range(len(frags)):
                    for j in range(i + 1, len(frags)):
                        merged = self._merge_fragments(layout, i, j)
                        candidate = config.with_layout(merged)
                        cost = self.cost_model.workload_cost(workload, candidate)
                        if cost < current_cost - 1e-9 and (
                            best is None or cost < best[0]
                        ):
                            best = (
                                cost,
                                candidate,
                                "merge %s: {%s}+{%s}"
                                % (
                                    layout.table_name,
                                    ",".join(frags[i].columns),
                                    ",".join(frags[j].columns),
                                ),
                            )
            if best is None:
                break
            current_cost, config, note = best
            merge_log.append(
                "round %d: %s -> cost %.1f" % (round_no, note, current_cost)
            )

        if replication_budget > 0:
            config, current_cost = self._replication_phase(
                workload, config, current_cost, replication_budget, merge_log
            )
        kept = tuple(l for l in config.layouts if len(l.fragments) > 1)
        return Configuration(
            indexes=config.indexes, layouts=kept, horizontals=config.horizontals
        )

    def _replication_phase(self, workload, config, current_cost, budget, merge_log):
        layout_by_table = {l.table_name: l for l in config.layouts}
        candidates = []
        for bq, __ in _bound_queries(workload, self.catalog):
            for alias in bq.aliases:
                table = bq.table_for(alias)
                layout = layout_by_table.get(table.name)
                if layout is None:
                    continue
                needed = tuple(sorted(bq.referenced_columns(alias)))
                if not needed or len(layout.fragments_for(needed)) <= 1:
                    continue
                candidates.append((table.name, needed))
        seen = set()
        for table_name, needed in candidates:
            if (table_name, needed) in seen:
                continue
            seen.add((table_name, needed))
            layout = layout_by_table[table_name]
            extra = VerticalFragment(table_name, needed)
            widened = VerticalLayout(table_name, layout.fragments + (extra,))
            candidate = config.with_layout(widened)
            replication = sum(
                l.replication_pages(self.catalog.table(l.table_name))
                for l in candidate.layouts
            )
            if replication > budget:
                continue
            cost = self.cost_model.workload_cost(workload, candidate)
            if cost < current_cost - 1e-9:
                config, current_cost = candidate, cost
                layout_by_table[table_name] = widened
                merge_log.append(
                    "replicate %s: {%s} -> cost %.1f"
                    % (table_name, ",".join(needed), cost)
                )
        return config, current_cost

    def _horizontal_phase(self, workload, config, merge_log):
        stats_by_table = {}
        for bq, weight in _bound_queries(workload, self.catalog):
            for alias in bq.aliases:
                table = bq.table_for(alias)
                for f in bq.filters_for(alias):
                    if f.kind in ("range", "eq"):
                        counts = stats_by_table.setdefault(table.name, {})
                        counts[f.column] = counts.get(f.column, 0.0) + weight

        current_cost = self.cost_model.workload_cost(workload, config)
        for table_name, counts in sorted(stats_by_table.items()):
            column = max(sorted(counts), key=lambda c: counts[c])
            bounds = self._quantile_bounds(table_name, column)
            if len(bounds) < 1:
                continue
            candidate = config.with_horizontal(
                HorizontalPartitioning(table_name, column, bounds)
            )
            cost = self.cost_model.workload_cost(workload, candidate)
            if cost < current_cost - 1e-9:
                merge_log.append(
                    "horizontal %s on %s (%d parts) -> cost %.1f"
                    % (table_name, column, len(bounds) + 1, cost)
                )
                config, current_cost = candidate, cost
        return config


def fragments_for_reference(layout, needed_columns):
    """``VerticalLayout.fragments_for`` as first written: every fragment
    is re-examined in every greedy step."""
    chosen = []
    remaining = set(needed_columns)
    candidates = list(layout.fragments)
    while remaining:
        best = None
        best_score = None
        for frag in candidates:
            gain = len(remaining & set(frag.columns))
            if gain == 0:
                continue
            score = (len(frag.columns) - gain, len(frag.columns))
            if best is None or score < best_score:
                best, best_score = frag, score
        if best is None:
            raise CatalogError("cannot cover %s" % sorted(remaining))
        chosen.append(best)
        remaining -= set(best.columns)
        candidates.remove(best)
    return chosen


def solve_bip_all_integer(problem):
    """The BIP with *every* variable declared integer, as ``solve_bip``
    posed it before only ``y`` was: returns ``(chosen positions, true
    objective)``."""
    mats = _assemble(problem)
    res = optimize.milp(
        c=mats.c,
        constraints=[
            optimize.LinearConstraint(mats.a_eq, mats.b_eq, mats.b_eq),
            optimize.LinearConstraint(mats.a_ub, -np.inf, mats.b_ub),
        ],
        integrality=np.ones(len(mats.c)),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    assert res.x is not None, res.message
    chosen = tuple(p for p in range(mats.n_y) if res.x[p] > 0.5)
    return chosen, problem.config_cost(chosen)


def relaxation_value(problem, chosen_positions):
    """Optimum of the LP over ``(z, x)`` with ``y`` fixed to the
    indicator of *chosen_positions* — plain ``linprog``, no MILP
    machinery.  Excludes ``write_base_cost`` (a constant outside the
    matrices), includes the chosen indexes' penalties."""
    mats = _assemble(problem)
    n = len(mats.c)
    lower = np.zeros(n)
    upper = np.ones(n)
    upper[: mats.n_y] = 0.0
    for pos in chosen_positions:
        lower[pos] = upper[pos] = 1.0
    res = optimize.linprog(
        c=mats.c,
        A_eq=mats.a_eq,
        b_eq=mats.b_eq,
        A_ub=mats.a_ub,
        b_ub=mats.b_ub,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    assert res.x is not None, res.message
    return float(res.fun)


def used_positions_reference(problem, chosen_positions):
    """The members of *chosen_positions* some query's first cheapest
    plan reads, where each slot reads its first cheapest applicable
    option — the scalar walk ``BipKernel.used_positions`` vectorizes."""
    chosen = set(chosen_positions)
    used = set()
    for query in problem.queries:
        best, best_reads = None, ()
        for plan in query.plans:
            cost, reads = plan.internal_cost, []
            for slot in plan.slots:
                winner = None
                for pos, option_cost in slot.options:
                    if (pos == -1 or pos in chosen) and (
                        winner is None or option_cost < winner[0]
                    ):
                        winner = (option_cost, pos)
                if winner is None:
                    cost = None
                    break
                cost += winner[0]
                reads.append(winner[1])
            if cost is not None and (best is None or cost < best):
                best, best_reads = cost, reads
        used.update(pos for pos in best_reads if pos != -1)
    return tuple(pos for pos in chosen_positions if pos in used)


def per_call_matrix(model, workload, configurations):
    """``matrix[c][s]``: one ``model.cost`` call per cell — the shape of
    ``BatchEvaluation.matrix``, priced without any batch machinery."""
    statements = [query for query, __ in workload_pairs(workload)]
    return [[model.cost(q, c) for q in statements] for c in configurations]


def config_costs_reference(problem, batch):
    """Objective values for a batch of candidate-position sets, one
    scalar walk each: per slot the cheapest applicable option (the
    default plus the chosen candidates), per plan the sum in slot
    order, per query the cheapest feasible plan, accumulated onto the
    write base plus the chosen indexes' penalties."""
    totals = []
    for chosen_positions in batch:
        chosen = set(chosen_positions)
        total = problem.write_base_cost
        if problem.index_penalties:
            total += sum(problem.index_penalties[pos] for pos in chosen)
        for query in problem.queries:
            best = math.inf
            for plan in query.plans:
                cost = plan.internal_cost
                for slot in plan.slots:
                    applicable = [
                        option_cost for pos, option_cost in slot.options
                        if pos == -1 or pos in chosen
                    ]
                    if not applicable:
                        cost = math.inf
                        break
                    cost += min(applicable)
                if cost < best:
                    best = cost
            if not math.isfinite(best):
                raise RuntimeError("BIP has an infeasible query term")
            total += query.weight * best
        totals.append(total)
    return totals


def greedy_select_reference(problem):
    """``greedy_select`` with every round's extensions priced as a full
    ``config_costs`` batch of ``chosen + [pos]`` sets instead of deltas
    off ``chosen`` — same ranking rule, same tie-breaks, same result
    fields (no telemetry, no timing)."""
    chosen = []
    used = 0.0
    current_cost = problem.config_cost(chosen)
    evaluations = 1
    remaining = set(range(problem.n_candidates))
    while remaining:
        if problem.max_indexes is not None and len(chosen) >= problem.max_indexes:
            break
        feasible = [
            pos for pos in sorted(remaining)
            if used + problem.sizes[pos] <= problem.budget_pages
        ]
        costs = problem.config_costs([chosen + [pos] for pos in feasible])
        evaluations += len(feasible)
        best_pos = None
        best_score = 0.0
        best_cost = current_cost
        for pos, cost in zip(feasible, costs):
            benefit = current_cost - cost
            if benefit <= 1e-9:
                continue
            score = benefit / problem.sizes[pos]
            if score > best_score:
                best_pos, best_score, best_cost = pos, score, cost
        if best_pos is None:
            break
        chosen.append(best_pos)
        used += problem.sizes[best_pos]
        current_cost = best_cost
        remaining.discard(best_pos)
    return SolveResult(
        chosen_positions=tuple(chosen),
        objective=current_cost,
        status="heuristic",
        solver="greedy-ratio",
        nodes_explored=evaluations,
    )


def check_solution(problem, result):
    """Assert that *result* is a solution of *problem*: what the BIP's
    constraints say of the ``y`` variables, plus the reporting contract
    every backend shares (the objective is the true cost of the returned
    set, and choosing nothing is always available).  Solver-agnostic —
    it reads nothing but ``chosen_positions`` and ``objective``."""
    chosen = list(result.chosen_positions)
    assert len(set(chosen)) == len(chosen), "duplicate position"
    assert all(0 <= pos < problem.n_candidates for pos in chosen), \
        "position out of range"
    assert sum(problem.sizes[pos] for pos in chosen) <= problem.budget_pages, \
        "over the storage budget"
    if problem.max_indexes is not None:
        assert len(chosen) <= problem.max_indexes, "over max_indexes"
    assert result.objective == problem.config_cost(chosen), \
        "objective is not the cost of the chosen set"
    assert result.objective <= problem.config_cost(()) + 1e-6, \
        "worse than choosing nothing"


def threaded_warm_up(evaluator, workload, threads=4):
    """Build *workload*'s caches by calling ``evaluator.cache_for`` from
    *threads* threads at once; returns the optimizer calls spent, like
    ``evaluator.warm_up``.  Binding happens up front on this thread."""
    before = evaluator.precompute_calls
    targets = [bq for bq, __, __ in evaluator.warm_targets(workload)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(evaluator.cache_for, targets))  # re-raises failures
    return evaluator.precompute_calls - before
