"""Reference implementations the shipped code is pinned against.

Shipped code has one pricing path per job; the slow, obviously-right
forms it replaced live here, where only tests can reach them (ROADMAP
item 3).  Nothing in this file is tuned, batched or memoized on purpose.

* :class:`PerTextEvaluator` — the per-call route without the pool: an
  evaluator whose ``cache_for`` builds one entry per statement text
  with ``build_cache``, keeping nothing in the pool and decoding
  nothing.  Equivalence pins price their reference on it.
* :class:`ScalarAutoPartAdvisor` — AutoPart's merge / replication /
  horizontal search as it ran before it moved onto the evaluation
  backplane: one scalar ``workload_cost`` walk per candidate, ``2N + 2``
  scalar calls for the report.
* :func:`fragments_for_reference` — the greedy fragment set cover
  without the up-front filtering of useless fragments.
* :func:`assemble_reference` — the BIP's matrices as ``solve_bip``
  stated them before a query's plans shared slot rows: one equality row
  and one set of option columns per (plan, slot) pair; with
  ``shared_slots`` the shipped program, row by row, as two scipy blocks.
* :func:`milp_reference` — ``solve_bip`` as ``scipy.optimize.milp`` ran
  it on those blocks; :func:`solve_bip_held` runs ``solve_bip`` and
  asserts that HiGHS got the same matrix and gave the same answer,
  bound and node count.
* :func:`solve_bip_all_integer` — the all-integer MILP over
  :func:`assemble_reference`, one end the y-only MILP is checked
  against; :func:`relaxation_value` — the ``(z, x)`` LP of the *shipped*
  matrices (read back into row blocks by :func:`row_blocks`) under a
  fixed binary ``y``, the exactness proof of the shared-row form.
* :func:`used_positions_reference` — the argmin witness of
  ``config_cost`` as a scalar first-strict-less walk.
* :func:`per_call_matrix` — a workload × configuration grid as one
  ``model.cost`` call per cell (``inum/cache.py:evaluate_terms``) on a
  :class:`PerTextEvaluator`, the reference every batched evaluate is
  pinned against.
* :func:`config_costs_reference` — the BIP objective as a scalar walk
  over the option lists, what ``BipKernel.evaluate`` vectorizes.
* :func:`greedy_select_reference` — greedy selection re-pricing every
  extension as a full batch each round, what the delta sweep replaced.
* :func:`solve_branch_and_bound` — the program solved by an LP-bounded
  branch-and-bound over ``linprog`` alone on :func:`assemble_reference`,
  run to completion: the cross-check of the HiGHS backend.
* :func:`dominated_reference` — the candidates ``solve_bip``'s
  presolve may fix to 0, from the dominance rule over every (plan,
  slot) occurrence, the pair test run both ways.
* :func:`check_solution` — the program's constraints stated once, the
  one specification every solver backend's output is held to;
  :func:`check_milp_bound` — what HiGHS's dual bound proves of it.
* :class:`PathSetReference` (over :func:`admits_reference`) and
  :func:`join_pair_reference` — join enumeration as it ran before
  ISSUE 24: a dominance test that scans the whole set, an ``add`` that
  appends and re-sorts, and every join method costed from scratch per
  (outer, inner) pair by its own constructor;
  :func:`nestloop_path`, :func:`hashjoin_path` and
  :func:`mergejoin_path` are the shipped ``joins.JoinCosting`` applied
  to one pair, held to those references bit for bit;
  :func:`reference_planning` runs the shipped planner over them, every
  relation subset enumerated afresh per call (:func:`build_with_plans`
  shows what a build planned, either way).
* the per-text forms of what a statement template
  (``repro/sql/template.py``) holds once per shape, each computed from
  one bound statement alone: :func:`referenced_reference`,
  :func:`scan_context_reference` (every ``ScanContext`` field),
  :func:`match_index_reference` (``_match_index`` over filter objects
  and a selectivity callback), :func:`reaching_reference` (one
  ``offers_*`` predicate call per index), :func:`order_vectors_reference`
  with :func:`build_cache_reference`,
  :func:`candidate_indexes_reference` and :func:`harvest_reference`;
  ``tests/test_statement_templates.py`` holds the template path to them.
* :class:`IndexBenefitGraph` — the interaction paper's own exact
  degree of interaction, maximized over the graph's node contexts; the
  shipped subset enumeration (``interaction/doi.py``) is held to it.
* :func:`threaded_warm_up` — not a reference but a vehicle: a warm-up
  whose builds race on real threads, for the tests that pin the pool's
  and the shards' locking.
* :func:`ingest`, :func:`finish` and :func:`drain` — a tenant session
  driven without the scheduler, each event's steps run back to back:
  the reference scheduled ingest is pinned against.
* :func:`best` — a batch's cheapest configuration, and
  :func:`metric_value` — one series of a registry, read off its
  ``snapshot()``: what tests assert on.
"""

import itertools
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
from scipy import optimize, sparse

from repro.autopart.advisor import (
    AutoPartAdvisor,
    PartitionRecommendation,
    _bound_queries,
)
from repro.catalog import (
    HorizontalPartitioning, Index, VerticalFragment, VerticalLayout)
from repro.cophy.candidates import MAX_INCLUDE_COLUMNS
from repro.cophy import solvers
from repro.cophy.solvers import MIP_REL_GAP, SolveResult
from repro.evaluation import WorkloadEvaluator
from repro.inum import cache as inum_cache
from repro.optimizer import joins as J
from repro.optimizer import paths as P
from repro.optimizer import planner
from repro.optimizer.plan import HashJoin, Materialize, MergeJoin, NestLoop
from repro.optimizer.selectivity import equality_fraction, filter_selectivity
from repro.optimizer.settings import DISABLE_COST
from repro.sql.astnodes import ColumnRef
from repro.sql.binder import bind_statement
from repro.util import CatalogError, DesignError, workload_pairs
from repro.whatif import Configuration


class PerTextEvaluator(WorkloadEvaluator):
    """An evaluator whose entries never touch its pool: ``cache_for``
    calls ``build_cache`` once per statement text and keeps the entry
    here — no pool, no plan-term decode, no kernel.  The per-call walk
    (``cost``, ``workload_cost``, ``cost_with_usage``) and the slot memo
    are the shipped ones."""

    def __init__(self, catalog, settings=None):
        super().__init__(catalog, settings)
        self._caches = {}

    def cache_for(self, query):
        key = query if isinstance(query, str) else query.sql
        cache = self._caches.get(key)
        if cache is None:
            bq = self.bound(query)
            cache = inum_cache.build_cache(bq, self.catalog, self.settings)
            self._caches[key] = cache
            self._caches[bq.sql] = cache
        return cache

    @property
    def precompute_calls(self):
        return sum(c.build_optimizer_calls for c in self._caches.values())


class ScalarAutoPartAdvisor(AutoPartAdvisor):
    """The scalar search: candidate enumeration is the shipped class's
    (``_usage_signatures``, ``_primary_layout``, ``_merge_fragments``,
    ``_quantile_bounds``); every price is a ``workload_cost`` walk and
    every selection rule is spelled out again here."""

    def _bind(self, sql):
        # The reference binds afresh against the catalog, sharing no
        # bound query with the backplane it is compared with.
        return bind_statement(sql, self.catalog)

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

        base_cost = self.evaluator.workload_cost(workload)
        new_cost = self.evaluator.workload_cost(workload, config)
        per_query = []
        for sql, weight in workload_pairs(workload):
            per_query.append(
                (
                    sql,
                    weight * self.evaluator.cost(sql),
                    weight * self.evaluator.cost(sql, config),
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

        current_cost = self.evaluator.workload_cost(workload, config)
        for round_no in range(max_rounds):
            best = None  # (cost, new_config, description)
            for layout in config.layouts:
                frags = layout.fragments
                for i in range(len(frags)):
                    for j in range(i + 1, len(frags)):
                        merged = self._merge_fragments(layout, i, j)
                        candidate = config.with_layout(merged)
                        cost = self.evaluator.workload_cost(workload, candidate)
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
        for bq, __ in _bound_queries(workload, self._bind):
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
            cost = self.evaluator.workload_cost(workload, candidate)
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
        for bq, weight in _bound_queries(workload, self._bind):
            for alias in bq.aliases:
                table = bq.table_for(alias)
                for f in bq.filters_for(alias):
                    if f.kind in ("range", "eq"):
                        counts = stats_by_table.setdefault(table.name, {})
                        counts[f.column] = counts.get(f.column, 0.0) + weight

        current_cost = self.evaluator.workload_cost(workload, config)
        for table_name, counts in sorted(stats_by_table.items()):
            column = max(sorted(counts), key=lambda c: counts[c])
            bounds = self._quantile_bounds(table_name, column)
            if len(bounds) < 1:
                continue
            candidate = config.with_horizontal(
                HorizontalPartitioning(table_name, column, bounds)
            )
            cost = self.evaluator.workload_cost(workload, candidate)
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


Program = namedtuple("Program", "c a_eq b_eq a_ub b_ub n_y")
Program.__doc__ = """The BIP as two row-wise blocks, ``a_eq x = b_eq`` and
``a_ub x <= b_ub`` (scipy sparse matrices), the form ``linprog`` and
``milp`` take."""


def assemble_reference(problem, shared_slots=False):
    """The program in matrix form with a row per (plan, slot) pair:
    ``Σ_o x_qeso − z_qe = 0`` and ``x_qeso ≤ y_o`` for every slot of
    every plan, however many plans of the query read the same slot.

    With *shared_slots* a query's plans share the row and option columns
    of a slot object they read (its k-th occurrence in a plan takes the
    slot's k-th row): the program ``solvers._assemble`` writes, stated
    row by row, and stacked by ``milp`` into the same column-wise matrix
    (``solve_bip_held`` checks both)."""
    n_y = problem.n_candidates
    c = [0.0] * n_y
    if problem.index_penalties:
        for pos in range(n_y):
            c[pos] = problem.index_penalties[pos]
    eq_rows, eq_cols, eq_vals, b_eq = [], [], [], []
    ub_rows, ub_cols, ub_vals, b_ub = [], [], [], []

    def new_var(coef):
        c.append(coef)
        return len(c) - 1

    for q in problem.queries:
        z_vars = []
        rows = {}
        for i, plan in enumerate(q.plans):
            z = new_var(q.weight * plan.internal_cost)
            z_vars.append(z)
            occurrences = {}
            for j, slot in enumerate(plan.slots):
                key = (i, j)
                if shared_slots:
                    occurrences[id(slot)] = occurrences.get(id(slot), -1) + 1
                    key = (id(slot), occurrences[id(slot)])
                row = rows.get(key)
                if row is None:
                    row = rows[key] = len(b_eq)
                    for pos, cost in slot.options:
                        x = new_var(q.weight * cost)
                        eq_rows.append(row), eq_cols.append(x), eq_vals.append(1.0)
                        if pos != -1:
                            ub_row = len(b_ub)
                            ub_rows.append(ub_row), ub_cols.append(x), ub_vals.append(1.0)
                            ub_rows.append(ub_row), ub_cols.append(pos), ub_vals.append(-1.0)
                            b_ub.append(0.0)
                    b_eq.append(0.0)
                eq_rows.append(row), eq_cols.append(z), eq_vals.append(-1.0)
        row = len(b_eq)
        for z in z_vars:
            eq_rows.append(row), eq_cols.append(z), eq_vals.append(1.0)
        b_eq.append(1.0)

    ub_row = len(b_ub)
    for pos in range(n_y):
        ub_rows.append(ub_row), ub_cols.append(pos), ub_vals.append(problem.sizes[pos])
    b_ub.append(problem.budget_pages)
    if problem.max_indexes is not None:
        ub_row = len(b_ub)
        for pos in range(n_y):
            ub_rows.append(ub_row), ub_cols.append(pos), ub_vals.append(1.0)
        b_ub.append(float(problem.max_indexes))

    n = len(c)
    return Program(
        c=np.array(c),
        a_eq=sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), n)),
        b_eq=np.array(b_eq),
        a_ub=sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(b_ub), n)),
        b_ub=np.array(b_ub),
        n_y=n_y,
    )


def row_blocks(mats):
    """``solvers._assemble``'s column-wise matrix as a :class:`Program`:
    its first ``n_eq`` rows are the equalities, the rest the ``≤``
    rows."""
    a = sparse.csc_array((mats.value, mats.index, mats.start),
                         shape=(len(mats.row_upper), len(mats.c)))
    n_eq = mats.n_eq
    return Program(c=mats.c, a_eq=a[:n_eq], b_eq=mats.row_upper[:n_eq],
                   a_ub=a[n_eq:], b_ub=mats.row_upper[n_eq:], n_y=mats.n_y)


def milp_reference(problem):
    """``solve_bip`` as ``scipy.optimize.milp`` ran it: the shared-slot
    program of :func:`assemble_reference`, only ``y`` integer, every
    candidate of :func:`dominated_reference` fixed to 0 and HiGHS's time
    limit; the result read as ``solve_bip`` reads it."""
    mats = assemble_reference(problem, shared_slots=True)
    n = len(mats.c)
    integrality = np.zeros(n)
    integrality[: mats.n_y] = 1
    upper = np.ones(n)
    upper[sorted(dominated_reference(problem))] = 0.0
    res = optimize.milp(
        c=mats.c,
        constraints=[
            optimize.LinearConstraint(mats.a_eq, mats.b_eq, mats.b_eq),
            optimize.LinearConstraint(mats.a_ub, -np.inf, mats.b_ub),
        ],
        integrality=integrality,
        bounds=optimize.Bounds(0.0, upper),
        options={"time_limit": solvers.TIME_LIMIT_S},
    )
    if res.x is None:
        raise RuntimeError("MILP solver failed: %s" % (res.message,))
    chosen = problem.used_positions(
        tuple(pos for pos in range(mats.n_y) if res.x[pos] > 0.5))
    bound = res.fun if res.mip_dual_bound is None else res.mip_dual_bound
    return SolveResult(
        chosen_positions=chosen,
        objective=problem.config_cost(chosen),
        lower_bound=float(bound) + problem.write_base_cost,
        status="optimal" if res.success else str(res.status),
        solver="milp-highs",
        nodes_explored=int(res.mip_node_count or 0),
        n_variables=n,
        n_constraints=mats.a_eq.shape[0] + mats.a_ub.shape[0],
    )


def solve_bip_held(problem):
    """``solvers.solve_bip(problem)``, held to :func:`milp_reference`:
    HiGHS is handed the same matrix (``_assemble``'s columns equal the
    reference's stacked rows, entry for entry, with the same row
    bounds) and reports the same answer, bound, node count and status."""
    mats = solvers._assemble(problem)
    reference = assemble_reference(problem, shared_slots=True)
    stacked = sparse.csc_array(sparse.vstack([reference.a_eq, reference.a_ub]))
    assert np.array_equal(mats.start, stacked.indptr)
    assert np.array_equal(mats.index, stacked.indices)
    assert np.array_equal(mats.value, stacked.data)
    assert np.array_equal(mats.c, reference.c)
    assert np.array_equal(mats.row_upper,
                          np.concatenate([reference.b_eq, reference.b_ub]))
    assert np.array_equal(mats.row_lower, np.concatenate(
        [reference.b_eq, np.full(len(reference.b_ub), -np.inf)]))
    result = solvers.solve_bip(problem)
    expected = milp_reference(problem)
    fields = ("chosen_positions", "objective", "lower_bound",
              "nodes_explored", "status", "n_variables", "n_constraints")
    assert [getattr(result, name) for name in fields] == \
        [getattr(expected, name) for name in fields]
    return result


def solve_bip_all_integer(problem):
    """The BIP with *every* variable declared integer, as ``solve_bip``
    posed it before only ``y`` was, over the per-(plan, slot) matrices:
    returns ``(chosen positions, true objective)``."""
    mats = assemble_reference(problem)
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
    """Optimum of the LP over ``(z, x)`` of ``solve_bip``'s own matrices
    with ``y`` fixed to the indicator of *chosen_positions* — plain
    ``linprog``, no MILP machinery.  Excludes ``write_base_cost`` (a
    constant outside the matrices), includes the chosen indexes'
    penalties."""
    mats = row_blocks(solvers._assemble(problem))
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


def _lp_relax(mats, fixed_zero=(), fixed_one=()):
    n = len(mats.c)
    lower = np.zeros(n)
    upper = np.ones(n)
    for pos in fixed_zero:
        upper[pos] = 0.0
    for pos in fixed_one:
        lower[pos] = 1.0
    return optimize.linprog(
        c=mats.c,
        A_eq=mats.a_eq,
        b_eq=mats.b_eq,
        A_ub=mats.a_ub,
        b_ub=mats.b_ub,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )


def solve_branch_and_bound(problem):
    """Depth-first branch-and-bound on the ``y`` variables, bounded by
    the LP relaxation and run to completion: the program solved with
    nothing but ``linprog``, the cross-check of ``solve_bip``'s MILP.
    Branches on the most fractional ``y``; every node's rounded ``y``
    that fits the budget and the cap is an incumbent candidate.  Runs on
    :func:`assemble_reference`, not the shipped matrices."""
    mats = assemble_reference(problem)
    best_obj = math.inf
    best_chosen = ()
    nodes = 0
    root_bound = math.nan
    stack = [((), ())]  # (fixed_zero, fixed_one)
    while stack:
        fixed_zero, fixed_one = stack.pop()
        nodes += 1
        res = _lp_relax(mats, fixed_zero, fixed_one)
        if res.x is None:
            continue  # infeasible branch
        bound = float(res.fun) + problem.write_base_cost
        if nodes == 1:
            root_bound = bound
        if bound >= best_obj - 1e-9:
            continue
        y = res.x[: mats.n_y]
        frac_pos = None
        frac_dist = 1.0
        for pos in range(mats.n_y):
            if pos in fixed_zero or pos in fixed_one:
                continue
            dist = abs(y[pos] - 0.5)
            if 1e-6 < y[pos] < 1.0 - 1e-6 and dist < frac_dist:
                frac_pos, frac_dist = pos, dist
        rounded = [pos for pos in range(mats.n_y) if y[pos] > 0.5]
        count_ok = (problem.max_indexes is None
                    or len(rounded) <= problem.max_indexes)
        if count_ok and problem.config_size(rounded) <= problem.budget_pages:
            obj = problem.config_cost(rounded)
            if obj < best_obj:
                best_obj, best_chosen = obj, tuple(rounded)
        if frac_pos is None:
            continue  # integral node; incumbent already recorded
        stack.append((fixed_zero + (frac_pos,), fixed_one))
        stack.append((fixed_zero, fixed_one + (frac_pos,)))
    # No incumbent leaves best_chosen empty, and the empty set's witness
    # is empty.
    best_chosen = problem.used_positions(best_chosen)
    return SolveResult(
        chosen_positions=best_chosen,
        objective=problem.config_cost(best_chosen),
        lower_bound=root_bound,
        solver="branch-and-bound",
        nodes_explored=nodes,
        n_variables=len(mats.c),
        n_constraints=mats.a_eq.shape[0] + mats.a_ub.shape[0],
    )


def dominated_reference(problem):
    """Positions *j* some other candidate *i* dominates: *i* is no
    larger, has no higher write penalty and, for every option of *j* on
    any slot of any plan, has an option on that slot at no higher cost.
    When *i* and *j* dominate each other only the higher position is
    dominated."""
    n = problem.n_candidates
    penalties = problem.index_penalties or [0.0] * n
    slots = [slot for query in problem.queries for plan in query.plans
             for slot in plan.slots]

    def dominates(i, j):
        if problem.sizes[i] > problem.sizes[j] or penalties[i] > penalties[j]:
            return False
        return all(
            any(other == i and other_cost <= cost
                for other, other_cost in slot.options)
            for slot in slots
            for pos, cost in slot.options
            if pos == j
        )

    return {
        j for j in range(n) for i in range(n)
        if i != j and dominates(i, j) and (i < j or not dominates(j, i))
    }


def check_milp_bound(result):
    """Assert what ``solve_bip`` reports of the proof behind *result*:
    HiGHS's dual bound lies below the returned objective by at most the
    relative gap HiGHS stops at (plus float slack — ``used_positions``
    can only lower the objective)."""
    assert result.lower_bound <= result.objective * (1 + 1e-9), \
        "bound above the objective"
    if result.lower_bound > 0:
        assert -1e-9 <= result.gap <= MIP_REL_GAP + 1e-6, result.gap


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


# ----------------------------------------------------------------------
# Join enumeration before ISSUE 24: per-pair costing, full-scan
# dominance, append-and-sort insertion.
# ----------------------------------------------------------------------


def admits_reference(paths, total_cost, ordering):
    """False when some member of *paths* costs no more and is ordered
    no worse — every member is asked, in whatever order they come."""
    for existing in paths:
        if (
            existing.total_cost <= total_cost
            and J.ordering_satisfies(existing.ordering, ordering)
        ):
            return False
    return True


class PathSetReference:
    """``planner._PathSet`` with nothing read off the order it keeps."""

    def __init__(self):
        self._paths = []

    def admits(self, total_cost, ordering):
        return admits_reference(self._paths, total_cost, ordering)

    def add(self, path):
        if path is None:
            return
        kept = []
        for existing in self._paths:
            if (
                existing.total_cost <= path.total_cost
                and J.ordering_satisfies(existing.ordering, path.ordering)
            ):
                return
            if (
                path.total_cost <= existing.total_cost
                and J.ordering_satisfies(path.ordering, existing.ordering)
            ):
                continue
            kept.append(existing)
        kept.append(path)
        kept.sort(key=lambda p: p.total_cost)
        del kept[planner.MAX_PATHS_PER_SET:]
        self._paths = kept

    def __iter__(self):
        return iter(self._paths)

    def __len__(self):
        return len(self._paths)

    def cheapest(self):
        return self._paths[0]


def materialize_reference(child, settings):
    rows = max(1.0, child.rows)
    total = child.total_cost + 2.0 * settings.cpu_operator_cost * rows
    return Materialize(
        startup_cost=child.startup_cost,
        total_cost=total,
        rows=child.rows,
        width=child.width,
        ordering=child.ordering,
        children=(child,),
    )


def nestloop_reference(outer, inner, join_clauses, rows_out, settings, admits,
                       rescan=None):
    outer_rows = max(1.0, outer.rows)
    if inner.is_parameterized:
        run_cost = outer.total_cost + outer_rows * inner.total_cost
        pair_evals = outer_rows * max(1.0, inner.rows)
    else:
        run_cost = (
            outer.total_cost + inner.total_cost
            + (outer_rows - 1.0) * (
                inner.rescan_cost() if rescan is None else rescan)
        )
        pair_evals = outer_rows * max(1.0, inner.rows)
    clause_cpu = (
        settings.cpu_operator_cost * max(1, len(join_clauses)) * pair_evals
    )
    output_cpu = settings.cpu_tuple_cost * max(1.0, rows_out)
    total = run_cost + clause_cpu + output_cpu
    if not settings.enable_nestloop:
        total += DISABLE_COST
    if not admits(total, outer.ordering):
        return None
    return NestLoop(
        startup_cost=outer.startup_cost + inner.startup_cost,
        total_cost=total,
        rows=rows_out,
        width=outer.width + inner.width,
        ordering=outer.ordering,
        children=(outer, inner),
        join_clauses=tuple(join_clauses),
    )


def hashjoin_reference(outer, inner, join_clauses, rows_out, settings, admits):
    inner_rows = max(1.0, inner.rows)
    outer_rows = max(1.0, outer.rows)
    inner_bytes = inner_rows * (inner.width + J.TUPLE_OVERHEAD)
    batches = 1
    io = 0.0
    if inner_bytes > settings.work_mem:
        batches = 2 ** math.ceil(math.log2(inner_bytes / settings.work_mem))
        inner_pages = inner_bytes / J.PAGE_BYTES
        outer_pages = outer_rows * (outer.width + J.TUPLE_OVERHEAD) / J.PAGE_BYTES
        io = 2.0 * (inner_pages + outer_pages) * settings.seq_page_cost
    n_clauses = max(1, len(join_clauses))
    build_cpu = (
        settings.cpu_operator_cost * n_clauses + settings.cpu_tuple_cost
    ) * inner_rows
    probe_cpu = settings.cpu_operator_cost * n_clauses * outer_rows
    output_cpu = settings.cpu_tuple_cost * max(1.0, rows_out)
    startup = inner.total_cost + build_cpu + outer.startup_cost
    total = (
        outer.total_cost + inner.total_cost + build_cpu + probe_cpu
        + output_cpu + io
    )
    if not settings.enable_hashjoin:
        total += DISABLE_COST
    if not admits(total, ()):
        return None
    return HashJoin(
        startup_cost=startup,
        total_cost=total,
        rows=rows_out,
        width=outer.width + inner.width,
        ordering=(),
        children=(outer, inner),
        join_clauses=tuple(join_clauses),
        batches=batches,
    )


def mergejoin_reference(outer, inner, join_clauses, merge_keys_outer,
                         merge_keys_inner, rows_out, settings, admits):
    sort_outer = not J.ordering_satisfies(outer.ordering, merge_keys_outer)
    sort_inner = not J.ordering_satisfies(inner.ordering, merge_keys_inner)
    outer_total = (
        J.sort_cost(outer, settings)[1] if sort_outer else outer.total_cost
    )
    inner_total = (
        J.sort_cost(inner, settings)[1] if sort_inner else inner.total_cost
    )
    outer_rows = max(1.0, outer.rows)
    inner_rows = max(1.0, inner.rows)
    n_clauses = max(1, len(join_clauses))
    scan_cpu = (
        settings.cpu_operator_cost * n_clauses * (outer_rows + inner_rows * 1.1)
    )
    output_cpu = settings.cpu_tuple_cost * max(1.0, rows_out)
    total = outer_total + inner_total + scan_cpu + output_cpu
    if not settings.enable_mergejoin:
        total += DISABLE_COST
    ordering = tuple(merge_keys_outer) if sort_outer else outer.ordering
    if not admits(total, ordering):
        return None
    if sort_outer:
        outer = J.sort_path(outer, merge_keys_outer, settings)
    if sort_inner:
        inner = J.sort_path(inner, merge_keys_inner, settings)
    return MergeJoin(
        startup_cost=max(outer.startup_cost, inner.startup_cost),
        total_cost=total,
        rows=rows_out,
        width=outer.width + inner.width,
        ordering=outer.ordering,
        children=(outer, inner),
        join_clauses=tuple(join_clauses),
    )


def nestloop_path(outer, inner, join_clauses, rows_out, settings):
    """Nested loop with *inner* rescanned per outer row.

    If the inner is parameterized its costs are already per probe; otherwise
    the rescan cost comes from :meth:`Plan.rescan_cost`.
    """
    costing = J.JoinCosting(join_clauses, (), (), rows_out, settings)
    o, i = costing.outer(outer), costing.inner(inner)
    return costing.nestloop(
        o, inner, costing.nestloop_cost(o, i, i.total, i.rescan)
    )


def hashjoin_path(outer, inner, join_clauses, rows_out, settings):
    """Hash join building on *inner*, probing with *outer*."""
    if not join_clauses:
        return None
    costing = J.JoinCosting(join_clauses, (), (), rows_out, settings)
    o, i = costing.outer(outer), costing.inner(inner)
    return costing.hashjoin(o, i, costing.hashjoin_cost(o, i))


def mergejoin_path(outer, inner, join_clauses, merge_keys_outer, merge_keys_inner,
                   rows_out, settings):
    """Merge join; an input not already ordered on its merge keys gets an
    explicit Sort."""
    if not join_clauses:
        return None
    costing = J.JoinCosting(
        join_clauses, merge_keys_outer, merge_keys_inner, rows_out, settings
    )
    o, i = costing.outer(outer), costing.inner(inner)
    return costing.mergejoin(o, i, costing.mergejoin_cost(o, i))


def join_pair_reference(self, sets, left, right, clauses, rows_out, pset):
    """``_Planner._join_pair`` as a loop of per-pair constructors:
    nothing is derived per path, every candidate re-reads both inputs.
    *self* is the planner (its settings, contexts and reaching
    indexes)."""
    settings = self.settings
    admits = pset.admits
    probes = ()
    if clauses and len(right) == 1:
        (inner_alias,) = right
        probes = P.probe_paths(
            self._ctx[inner_alias],
            self._indexes[inner_alias],
            settings,
            tuple(
                clause.side_for(inner_alias)[0]
                for clause in clauses
                if clause.involves(inner_alias)
            ),
        )
    inners = [
        (
            inner,
            materialize_reference(inner, settings)
            if not inner.is_parameterized else None,
        )
        for inner in sets[right]
    ]
    keys_outer, keys_inner = self._merge_keys(clauses, left)
    for outer in sets[left]:
        for inner, materialized in inners:
            pset.add(nestloop_reference(
                outer, inner, clauses, rows_out, settings, admits
            ))
            if materialized is not None:
                pset.add(nestloop_reference(
                    outer, materialized, clauses, rows_out, settings, admits,
                    rescan=Materialize.rescan_cost_of(materialized.rows),
                ))
            if clauses:
                pset.add(hashjoin_reference(
                    outer, inner, clauses, rows_out, settings, admits
                ))
                pset.add(mergejoin_reference(
                    outer, inner, clauses, keys_outer, keys_inner,
                    rows_out, settings, admits,
                ))
        for probe in probes:
            pset.add(nestloop_reference(
                outer, probe, clauses, rows_out, settings, admits
            ))


@contextmanager
def reference_planning():
    """Within the block the shipped planner enumerates joins the old
    way — :class:`PathSetReference`, :func:`join_pair_reference` — and
    an INUM build plans every order vector cold (no shared subsets)."""
    real_set, real_pair = planner._PathSet, planner._Planner._join_pair
    real_plan = inum_cache.plan_query

    def cold(bq, catalog, settings, subsets=None):
        return real_plan(bq, catalog, settings)

    planner._PathSet = PathSetReference
    planner._Planner._join_pair = join_pair_reference
    inum_cache.plan_query = cold
    try:
        yield
    finally:
        planner._PathSet, planner._Planner._join_pair = real_set, real_pair
        inum_cache.plan_query = real_plan


def build_with_plans(bq, catalog, settings):
    """``build_cache`` plus what it planned: ``(cache, [(explain(),
    total_cost), ...])``, one pair per order vector in planning order —
    a vehicle for comparing two builds plan by plan as well as term for
    term."""
    planned = []
    real = inum_cache.extract_plan_terms

    def spy(plan, *args):
        planned.append((plan.explain(), plan.total_cost))
        return real(plan, *args)

    inum_cache.extract_plan_terms = spy
    try:
        return inum_cache.build_cache(bq, catalog, settings), planned
    finally:
        inum_cache.extract_plan_terms = real


def threaded_warm_up(evaluator, workload, threads=4):
    """Build *workload*'s caches by calling ``evaluator.cache_for`` from
    *threads* threads at once; returns the optimizer calls spent, like
    ``evaluator.warm_up``.  Binding happens up front on this thread."""
    before = evaluator.precompute_calls
    targets = [bq for bq, __, __ in evaluator.warm_targets(workload)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(evaluator.cache_for, targets))  # re-raises failures
    return evaluator.precompute_calls - before


def ingest(session, event):
    """Ingest one ``(phase, sql)`` event (or plain SQL) into *session*:
    its steps run back to back."""
    for step in session.ingest_steps(event):
        step.run()


def finish(session):
    """Close *session*'s trailing COLT epoch and run its final design
    review (nothing once finished)."""
    for step in session.finish_steps():
        step.run()


def drain(session, stream):
    """Ingest every event of *stream* into *session*, then finish it;
    returns *session*."""
    for event in stream:
        ingest(session, event)
    finish(session)
    return session


def best(batch):
    """``(configuration, total)`` of a ``BatchEvaluation`` with the
    lowest workload cost (the first of equal ones)."""
    totals = batch.totals
    pos = min(range(len(totals)), key=totals.__getitem__)
    return batch.configurations[pos], totals[pos]


def metric_value(registry, name, **labels):
    """The current value of the counter or gauge series *name* with
    *labels* (0 when absent), read off ``registry.snapshot()`` — so
    the registry's collectors run first."""
    snap = registry.snapshot()
    family = snap["counters"].get(name) or snap["gauges"].get(name)
    wanted = {key: str(value) for key, value in labels.items()}
    for sample in family["samples"] if family else ():
        if sample["labels"] == wanted:
            return sample["value"]
    return 0


# ----------------------------------------------------------------------
# Per-text references of the statement template (repro/sql/template.py).
# Each computes from one bound statement alone, as the shipped code did
# before a template held what reads no constant.
# ----------------------------------------------------------------------


def referenced_reference(bq, alias):
    """The columns of *alias* a query touches, recomputed."""
    refs = set()
    table = bq.table_for(alias)
    if bq.has_star:
        refs.update(table.column_names)
    refs.update(c for a, c in bq.select_columns if a == alias)
    for agg in bq.aggregates:
        if isinstance(agg.arg, ColumnRef) and agg.arg.table == alias:
            refs.add(agg.arg.column)
    refs.update(f.column for f in bq.filters_for(alias))
    for join in bq.joins:
        if join.left_alias == alias:
            refs.add(join.left_column)
        if join.right_alias == alias:
            refs.add(join.right_column)
    refs.update(c for a, c in bq.group_by if a == alias)
    refs.update(c for a, c, __ in bq.order_by if a == alias)
    return frozenset(refs)


def scan_context_reference(bq, alias, catalog):
    """Every field of ``paths.scan_context(bq, alias, catalog)`` but the
    memos, computed from *bq* alone: a dict by field name."""
    table = bq.table_for(alias)
    layout = catalog.vertical_layout(table.name)
    cover = None if layout is None else layout.cover(
        table, referenced_reference(bq, alias))
    horizontal = catalog.horizontal_partitioning(table.name)
    geometry = P.relation_geometry(bq, alias, cover, horizontal)
    filters = bq.filters_for(alias)
    filter_sel, sel_all = {}, 1.0
    for f in filters:
        sel = filter_sel.get(f)
        if sel is None:
            sel = filter_sel[f] = filter_selectivity(f, table)
        sel_all *= sel
    sel_all = max(0.0, min(1.0, sel_all))
    needed = referenced_reference(bq, alias)
    join_columns = [c.side_for(alias)[0] for c in bq.joins_for(alias)]
    return dict(
        geometry=geometry,
        needed=needed,
        filters=filters,
        sels=tuple(filter_sel[f] for f in filters),
        eq_columns=tuple(f.column for f in filters if f.kind == "eq"),
        boundary_columns=tuple(f.column for f in filters if f.sargable),
        interesting=frozenset(
            join_columns
            + [c for a, c in bq.group_by if a == alias]
            + [c for a, c, __ in bq.order_by if a == alias]
        ),
        sel_all=sel_all,
        rows_out=max(1.0, geometry.rows * sel_all),
        width=max(1, table.row_width(sorted(needed))) if needed else 8,
    )


def match_index_reference(index, filters, table, param_columns, selectivity):
    """Greedy prefix match of sargable *filters* against *index*, each
    filter's selectivity through *selectivity*: equality conditions
    (including parameterized join probes) extend the prefix; the first
    range/IN condition closes it; everything unmatched is residual."""
    by_column = {}
    for f in filters:
        by_column.setdefault(f.column, []).append(f)
    params_available = set(param_columns)

    boundary = []
    used_params = []
    eq_prefix = 0
    sel = 1.0
    closed = False
    for key_col in index.columns:
        if closed:
            break
        eq_filter = next(
            (f for f in by_column.get(key_col, ()) if f.kind == "eq"), None
        )
        if eq_filter is not None:
            boundary.append(eq_filter)
            sel *= selectivity(eq_filter)
            eq_prefix += 1
            continue
        if key_col in params_available:
            used_params.append(key_col)
            sel *= equality_fraction(table, key_col)
            eq_prefix += 1
            continue
        closing = next(
            (f for f in by_column.get(key_col, ()) if f.kind in ("range", "in")),
            None,
        )
        if closing is not None:
            boundary.append(closing)
            sel *= selectivity(closing)
        closed = True

    def position(f):
        return next(i for i, g in enumerate(filters) if g is f)

    boundary_set = set(id(f) for f in boundary)
    residual = tuple(f for f in filters if id(f) not in boundary_set)
    return P.IndexMatch(
        boundary_filters=tuple(boundary),
        param_columns=tuple(used_params),
        residual_filters=residual,
        eq_prefix=eq_prefix,
        boundary_selectivity=max(0.0, min(1.0, sel)),
        ordering_columns=tuple(index.columns[eq_prefix:]),
        boundary_positions=tuple(map(position, boundary)),
        residual_positions=tuple(map(position, residual)),
    )


def reaching_reference(ctx, indexes, interesting_columns=(), param_columns=()):
    """``paths.reaching_indexes`` as one predicate call per index."""
    if param_columns:
        return tuple(ix for ix in indexes
                     if P.offers_probe_path(ctx, ix, param_columns))
    return tuple(ix for ix in indexes
                 if P.offers_scan_paths(ctx, ix, interesting_columns))


def interesting_orders_reference(bq, alias):
    """Candidate order columns for one table reference."""
    orders = []
    for clause in bq.joins_for(alias):
        col, __, __ = clause.side_for(alias)
        if col not in orders:
            orders.append(col)
    for a, c in bq.group_by:
        if a == alias and c not in orders:
            orders.append(c)
            break
    for a, c, __ in bq.order_by:
        if a == alias and c not in orders:
            orders.append(c)
            break
    return [None] + orders[: inum_cache.MAX_ORDERS_PER_TABLE - 1]


def order_vectors_reference(bq):
    """The order vectors an INUM build plans, each with the covering
    indexes its overlay adds, built afresh per vector."""
    per_alias = [
        [(alias, order) for order in interesting_orders_reference(bq, alias)]
        for alias in bq.aliases
    ]
    vectors = list(itertools.product(*per_alias))
    vectors.sort(key=lambda v: sum(1 for __, o in v if o is not None))
    out = []
    for vector in vectors[:inum_cache.MAX_VECTORS_PER_QUERY]:
        indexes = []
        for alias, order in vector:
            if order is None:
                continue
            table = bq.table_for(alias)
            include = tuple(sorted(referenced_reference(bq, alias) - {order}))
            indexes.append(Index(
                table.name, (order,), include=include,
                name="%s%s_%s" % (inum_cache._TMP_PREFIX, alias, order),
            ))
        out.append((vector, tuple(indexes)))
    return tuple(out)


def build_cache_reference(bq, catalog, settings):
    """An INUM build over :func:`order_vectors_reference`, planning every
    vector cold: the cache's plan terms, in build order."""
    plans, seen = [], set()
    for vector, indexes in order_vectors_reference(bq):
        overlay = catalog.clone()
        for index in indexes:
            overlay.add_index(index)
        cached = inum_cache.extract_plan_terms(
            planner.plan_query(bq, overlay, settings), bq, dict(vector))
        key = (round(cached.internal_cost, 6), cached.slots)
        if key not in seen:
            seen.add(key)
            plans.append(cached)
    return plans


def candidate_indexes_reference(catalog, workload, max_candidates=60,
                                include_covering=True, composite_pairs=True):
    """Candidate mining with each statement bound afresh and its votes
    counted as it is walked, ranked like ``candidate_indexes``."""
    scores = {}

    def vote(table_name, columns, weight, include=()):
        key = (table_name, tuple(columns), tuple(include))
        scores[key] = scores.get(key, 0.0) + weight

    for sql, weight in workload_pairs(workload):
        bq = bind_statement(sql, catalog)
        if bq.is_write:
            for f in bq.filters:
                if f.sargable:
                    vote(bq.table.name, (f.column,), weight)
            continue
        for alias in bq.aliases:
            table = bq.table_for(alias)
            referenced = referenced_reference(bq, alias)
            eq_cols, range_cols = [], []
            for f in bq.filters_for(alias):
                if not f.sargable:
                    continue
                bucket = eq_cols if f.kind in ("eq", "in") else range_cols
                if f.column not in bucket:
                    bucket.append(f.column)
            join_cols = []
            for clause in bq.joins_for(alias):
                col, __, __ = clause.side_for(alias)
                if col not in join_cols:
                    join_cols.append(col)
            other_cols = []
            for a, c in [*bq.group_by, *((a, c) for a, c, __ in bq.order_by)]:
                if a == alias and c not in other_cols:
                    other_cols.append(c)
            for col in eq_cols + range_cols + join_cols + other_cols:
                vote(table.name, (col,), weight)
            if composite_pairs:
                for eq in eq_cols:
                    for second in range_cols + join_cols + other_cols:
                        if second != eq:
                            vote(table.name, (eq, second), weight)
                for i, eq1 in enumerate(eq_cols):
                    for eq2 in eq_cols[i + 1:]:
                        vote(table.name, (eq1, eq2), weight)
                for join_col in join_cols:
                    for second in range_cols:
                        vote(table.name, (join_col, second), weight)
            if include_covering and len(referenced) <= MAX_INCLUDE_COLUMNS + 1:
                for col in eq_cols + range_cols + join_cols:
                    rest = tuple(sorted(referenced - {col}))
                    if rest:
                        vote(table.name, (col,), weight, include=rest)
    ranked = sorted(
        (-score, Index(table, columns, include=include).name,
         (table, columns, include))
        for (table, columns, include), score in scores.items()
    )
    if max_candidates is not None:
        ranked = ranked[:max_candidates]
    return [Index(table, columns, include=include, name=name)
            for __, name, (table, columns, include) in ranked]


def harvest_reference(bq):
    """COLT's single-column candidates of a read statement, in the
    order the tuner meets them."""
    harvest = []
    for alias in bq.aliases:
        columns = set()
        for f in bq.filters_for(alias):
            if f.sargable:
                columns.add(f.column)
        for clause in bq.joins_for(alias):
            columns.add(clause.side_for(alias)[0])
        harvest.extend(Index(bq.table_for(alias).name, (col,))
                       for col in columns)
    return tuple(harvest)


class IndexBenefitGraph:
    """The Index Benefit Graph (Schnaitter et al., PVLDB 2009, §3) of a
    workload over a candidate set S, built on the serial
    ``WorkloadEvaluator.workload_cost_with_usage`` walk, one call per node.

    A DAG over index subsets: the root is S; node Y holds ``(cost(Y),
    used(Y))``, ``used`` being the members of Y the winning plans read;
    Y's children are ``Y - {a}`` for every ``a`` in ``used(Y)``.
    Removing an unused index changes no plan, so the cost of any X ⊆ S
    is that of the node reached from the root by dropping used members
    not in X — and plans change only at nodes, so doi maximized over the
    node contexts is the exact doi (what the shipped subset enumeration
    samples above ``doi.EXACT_LIMIT``).
    """

    def __init__(self, model, workload, candidate_set):
        self.root = frozenset(candidate_set)
        self.nodes = {}  # subset -> (cost, used)
        frontier = [self.root]
        while frontier:
            subset = frontier.pop()
            if subset in self.nodes:
                continue
            cost, used = model.workload_cost_with_usage(
                workload, Configuration(indexes=subset)
            )
            used = frozenset(used) & subset
            self.nodes[subset] = (cost, used)
            frontier.extend(subset - {index} for index in used)

    def _node(self, subset):
        x = frozenset(subset) & self.root
        node = self.root
        while True:
            extra = self.nodes[node][1] - x
            if not extra:
                return self.nodes[node]
            node = node - {min(extra, key=lambda index: index.name)}

    def cost(self, subset):
        """Cost under an arbitrary X ⊆ root, by traversal."""
        return self._node(subset)[0]

    def used(self, subset):
        """``used(X)``: the indexes the plans under X read."""
        return self._node(subset)[1]

    def benefit(self, index, context):
        context = frozenset(context) - {index}
        return self.cost(context) - self.cost(context | {index})

    def doi(self, a, b):
        """The doi formula of ``InteractionAnalyzer.doi`` maximized over
        every node's context."""
        best = 0.0
        for context in {node - {a, b} for node in self.nodes}:
            with_b = context | {b}
            denom = self.cost(with_b | {a})
            if denom <= 0:
                continue
            delta = abs(self.benefit(a, context) - self.benefit(a, with_b))
            best = max(best, delta / denom)
        return best
