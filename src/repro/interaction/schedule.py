"""Index materialization scheduling (the demo's second interaction tool).

Building an index set takes real time; while index ``k+1`` is being built
the workload runs under the design containing only the first ``k``.  A
schedule is judged by the *cost area*: the workload cost integrated over
the build timeline — lower area means benefit arrives earlier.

    area(order) = Σ_k  W(prefix_k) · build_time(index_{k+1})

Three schedulers:

* :func:`schedule_naive` — interaction-oblivious: sort by standalone
  benefit (what a DBA without interaction data would do),
* :func:`schedule_greedy` — interaction-aware: each step picks the index
  with the best marginal-benefit-per-build-second given what is already
  materialized,
* :func:`schedule_optimal` — exact subset DP (for ≤ ~12 indexes).
"""

import itertools
import math
from dataclasses import dataclass, field

# The subset DP prices 2^n designs; past this many indexes
# schedule_optimal returns the greedy schedule instead.
MAX_EXACT = 12


@dataclass
class Schedule:
    """A materialization order with its evaluated timeline."""

    order: list
    area: float
    total_build_time: float
    timeline: list = field(default_factory=list)  # (elapsed, workload_cost)
    method: str = ""

    def to_text(self):
        lines = ["Materialization schedule (%s): area=%.1f" % (self.method, self.area)]
        elapsed = 0.0
        for step, ix in enumerate(self.order):
            elapsed = self.timeline[step + 1][0]
            lines.append(
                "  %d. %-45s done@%.0f cost->%.1f"
                % (step + 1, ix.name, elapsed, self.timeline[step + 1][1])
            )
        return "\n".join(lines)


def _build_time(index, catalog):
    return index.build_cost(catalog.table(index.table_name))


def evaluate_schedule(order, cost_fn, catalog, method="given"):
    """Timeline and area of a specific materialization *order*.

    ``cost_fn(frozenset_of_indexes)`` must return the workload cost under
    exactly that index set (e.g. ``InteractionAnalyzer.cost``).
    """
    order = list(order)
    area = 0.0
    elapsed = 0.0
    built = frozenset()
    timeline = [(0.0, cost_fn(built))]
    for index in order:
        duration = _build_time(index, catalog)
        area += cost_fn(built) * duration
        elapsed += duration
        built = built | {index}
        timeline.append((elapsed, cost_fn(built)))
    return Schedule(
        order=order,
        area=area,
        total_build_time=elapsed,
        timeline=timeline,
        method=method,
    )


def schedule_naive(indexes, cost_fn, catalog):
    """Sort by standalone benefit, descending — ignores interactions."""
    empty_cost = cost_fn(frozenset())
    ranked = sorted(
        indexes,
        key=lambda ix: -(empty_cost - cost_fn(frozenset((ix,)))),
    )
    return evaluate_schedule(ranked, cost_fn, catalog, method="naive-benefit")


def schedule_greedy(indexes, cost_fn, catalog):
    """Interaction-aware greedy: maximize marginal benefit per build second."""
    remaining = set(indexes)
    built = frozenset()
    order = []
    while remaining:
        current = cost_fn(built)
        best = None
        best_score = -math.inf
        for ix in sorted(remaining, key=lambda i: i.name):
            gain = current - cost_fn(built | {ix})
            score = gain / _build_time(ix, catalog)
            if score > best_score:
                best, best_score = ix, score
        order.append(best)
        built = built | {best}
        remaining.discard(best)
    return evaluate_schedule(order, cost_fn, catalog, method="greedy-interaction")


def schedule_optimal(indexes, cost_fn, catalog):
    """Exact minimum-area schedule by DP over subsets.

    State: the set of already-built indexes; transition: which index to
    build next.  Falls back to the greedy schedule beyond
    :data:`MAX_EXACT` indexes.
    """
    indexes = sorted(set(indexes), key=lambda i: i.name)
    n = len(indexes)
    if n > MAX_EXACT:
        return schedule_greedy(indexes, cost_fn, catalog)
    if n == 0:
        return evaluate_schedule([], cost_fn, catalog, method="optimal-dp")

    build = [_build_time(ix, catalog) for ix in indexes]
    cost_of = {}
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            mask = 0
            for i in combo:
                mask |= 1 << i
            cost_of[mask] = cost_fn(frozenset(indexes[i] for i in combo))

    full = (1 << n) - 1
    best_area = {0: 0.0}
    best_prev = {}
    masks_by_bits = sorted(range(full + 1), key=lambda m: bin(m).count("1"))
    for mask in masks_by_bits:
        if mask not in best_area:
            continue
        base_area = best_area[mask]
        running_cost = cost_of[mask]
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            nxt = mask | bit
            area = base_area + running_cost * build[i]
            if area < best_area.get(nxt, math.inf) - 1e-12:
                best_area[nxt] = area
                best_prev[nxt] = i

    order_rev = []
    mask = full
    while mask:
        i = best_prev[mask]
        order_rev.append(indexes[i])
        mask ^= 1 << i
    order = list(reversed(order_rev))
    return evaluate_schedule(order, cost_fn, catalog, method="optimal-dp")
