"""The exact solver backend for the CoPhy binary program.

:func:`solve_bip` hands the program to HiGHS branch-and-cut via
``scipy.optimize.milp`` — the "sophisticated and mature solver" the
paper plugs in.  The advisor's two other backends are the greedy
heuristic (:mod:`repro.cophy.greedy`) and column generation
(:mod:`repro.cophy.colgen`); an LP-bounded branch-and-bound that
cross-checks HiGHS lives with the test references (``tests/oracle.py``).

Every backend reports the *true* objective of the returned configuration
(via :meth:`BipProblem.config_cost`) so results are directly comparable,
and returns only indexes that configuration's cheapest plans read
(:meth:`BipProblem.used_positions`): an index variable the LP left at 1
without any winning access reading it costs storage and buys nothing.

A query has one equality row per distinct slot,
``Σ_o x_qso − Σ_{e ∋ s} z_qe = 0``, and one option column per (slot,
option) with its ``x_qso ≤ y_o`` row: :func:`_assemble` keys a query's
rows by ``SlotOptions`` object, which every plan reading the slot
shares, rather than restating the slot for each cached plan.  One
``x ≤ y`` row then bounds the slot's whole mass, not each plan's
share, so the LP relaxation is at least as tight as the per-(plan,
slot) form (``tests/oracle.py:assemble_reference``) on a smaller model.

Only the index variables ``y`` are declared integer.  For any binary
``y`` the remaining LP over ``(z, x)`` puts each query's unit of ``z``
mass on its cheapest feasible plan and each slot on its cheapest open
option, so it has an integral optimum equal to ``config_cost(y)`` —
branching on ``z``/``x`` can only cost time
(``tests/test_cophy.py::TestRelaxationIsExact`` checks this with
``linprog``, independently of the MILP backend).

:attr:`SolveResult.lower_bound` is HiGHS's dual bound, which may trail
the objective by its relative gap (:data:`MIP_REL_GAP`);
``nodes_explored`` is its branch-and-bound node count (0 when presolve
solved the program, or when there are no candidates to branch on).

Before HiGHS runs, :func:`_dominated` fixes ``y_j = 0`` for every
candidate another candidate dominates: one no larger, with no higher
write penalty, that offers an option at no higher cost on every slot
where *j* offers one.  Swapping *j* for its dominator (or dropping *j*
when the dominator is chosen too) keeps a design under the budget and
the cap and costs no more, so the optimum is unchanged; HiGHS only has
less bound to prove.

scipy is imported by the first solve, not by ``import repro``: only
this backend uses it.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.obs.catalogue import BIP_SOLVES, BIP_SOLVE_SECONDS, SPAN_COPHY_SOLVE

# HiGHS stops here and reports its best incumbent with a non-"optimal"
# status.
TIME_LIMIT_S = 60.0

# HiGHS's default relative MIP gap, not passed as an option: it may stop
# once its incumbent is within this of its dual bound.
MIP_REL_GAP = 1e-4


@dataclass
class SolveResult:
    """Outcome of one solver run."""

    chosen_positions: tuple
    objective: float  # true cost of the chosen configuration
    lower_bound: float = float("nan")
    status: str = "optimal"
    solver: str = ""
    solve_seconds: float = 0.0
    nodes_explored: int = 0
    n_variables: int = 0
    n_constraints: int = 0
    extra: dict = field(default_factory=dict)  # backend-specific stats

    @property
    def gap(self):
        """Relative optimality gap vs the proven lower bound."""
        if not math.isfinite(self.lower_bound) or self.lower_bound <= 0:
            return float("nan")
        return (self.objective - self.lower_bound) / self.lower_bound


@dataclass
class _Matrices:
    """The BIP in matrix form plus the variable layout."""

    c: np.ndarray
    a_eq: object  # CSR matrix
    b_eq: np.ndarray
    a_ub: object  # CSR matrix
    b_ub: np.ndarray
    n_y: int


def _assemble(problem):
    from scipy import sparse

    n_y = problem.n_candidates
    c = [0.0] * n_y
    if problem.index_penalties:
        for pos in range(n_y):
            c[pos] = problem.index_penalties[pos]
    eq_rows, eq_cols, eq_vals, b_eq = [], [], [], []
    ub_rows, ub_cols, ub_vals, b_ub = [], [], [], []
    var = n_y

    def new_var(coef):
        nonlocal var
        c.append(coef)
        var += 1
        return var - 1

    for q in problem.queries:
        z_vars = []
        # One row per distinct slot of the query: plans that read the same
        # SlotOptions object share its row and its option columns.  A slot
        # a plan reads k times occupies k rows, its first k occurrences.
        rows = {}  # (id(slot), occurrence within the plan) -> row
        for plan in q.plans:
            z = new_var(q.weight * plan.internal_cost)
            z_vars.append(z)
            seen = {}
            for slot in plan.slots:
                key = (id(slot), seen.get(id(slot), -1) + 1)
                seen[id(slot)] = key[1]
                row = rows.get(key)
                if row is None:
                    row = rows[key] = len(b_eq)
                    b_eq.append(0.0)
                    for pos, cost in slot.options:
                        x = new_var(q.weight * cost)
                        eq_rows.append(row), eq_cols.append(x), eq_vals.append(1.0)
                        if pos != -1:
                            # x - y_pos <= 0
                            ub_row = len(b_ub)
                            ub_rows.append(ub_row), ub_cols.append(x), ub_vals.append(1.0)
                            ub_rows.append(ub_row), ub_cols.append(pos), ub_vals.append(-1.0)
                            b_ub.append(0.0)
                # sum_o x - sum of the z of the plans reading the slot = 0
                eq_rows.append(row), eq_cols.append(z), eq_vals.append(-1.0)
        row = len(b_eq)
        for z in z_vars:
            eq_rows.append(row), eq_cols.append(z), eq_vals.append(1.0)
        b_eq.append(1.0)

    # storage budget
    ub_row = len(b_ub)
    for pos in range(n_y):
        ub_rows.append(ub_row), ub_cols.append(pos), ub_vals.append(problem.sizes[pos])
    b_ub.append(problem.budget_pages)

    # optional cardinality cap on the chosen indexes
    if problem.max_indexes is not None:
        ub_row = len(b_ub)
        for pos in range(n_y):
            ub_rows.append(ub_row), ub_cols.append(pos), ub_vals.append(1.0)
        b_ub.append(float(problem.max_indexes))

    n = var
    a_eq = sparse.csr_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(len(b_eq), n)
    )
    a_ub = sparse.csr_matrix(
        (ub_vals, (ub_rows, ub_cols)), shape=(len(b_ub), n)
    )
    return _Matrices(
        c=np.array(c),
        a_eq=a_eq,
        b_eq=np.array(b_eq),
        a_ub=a_ub,
        b_ub=np.array(b_ub),
        n_y=n_y,
    )


def observed_solve(result):
    """Record one finished solve into the telemetry backplane and pass
    the result through — every backend (HiGHS, the greedy heuristic and
    column generation) reports the same two families, labeled by the
    backend name the result already carries."""
    registry = obs.metrics()
    registry.family(BIP_SOLVES).labels(solver=result.solver).inc()
    registry.family(BIP_SOLVE_SECONDS).labels(
        solver=result.solver).observe(result.solve_seconds)
    return result


def _dominated(problem):
    """Positions of the candidates that another candidate dominates: it
    is no larger, has no higher write penalty and, on every slot where
    the dominated one has an option, has one at no higher cost.  Of two
    identical candidates the one at the lower position stays."""
    n = problem.n_candidates
    sizes = problem.sizes
    penalties = problem.index_penalties or [0.0] * n
    offers = [{} for __ in range(n)]  # pos -> {id(slot): cheapest cost}
    seen = set()
    for q in problem.queries:
        for plan in q.plans:
            for slot in plan.slots:
                if id(slot) in seen:
                    continue
                seen.add(id(slot))
                for pos, cost in slot.options:
                    if pos != -1 and cost < offers[pos].get(id(slot), math.inf):
                        offers[pos][id(slot)] = cost

    def covers(i, j):
        mine, theirs = offers[i], offers[j]
        return (sizes[i] <= sizes[j] and penalties[i] <= penalties[j]
                and theirs.keys() <= mine.keys()
                and all(mine[slot] <= cost for slot, cost in theirs.items()))

    return [
        j for j in range(n)
        if any(i != j and covers(i, j) and (i < j or not covers(j, i))
               for i in range(n))
    ]


def solve_bip(problem):
    """Exact solve with HiGHS (scipy.optimize.milp), dominated
    candidates fixed to 0 first."""
    from scipy import optimize

    with obs.tracer().span(SPAN_COPHY_SOLVE, solver="milp-highs",
                           candidates=problem.n_candidates):
        started = time.perf_counter()
        mats = _assemble(problem)
        n = len(mats.c)
        constraints = [
            optimize.LinearConstraint(mats.a_eq, mats.b_eq, mats.b_eq),
            optimize.LinearConstraint(mats.a_ub, -np.inf, mats.b_ub),
        ]
        integrality = np.zeros(n)
        integrality[: mats.n_y] = 1
        upper = np.ones(n)
        upper[_dominated(problem)] = 0.0
        res = optimize.milp(
            c=mats.c,
            constraints=constraints,
            integrality=integrality,
            bounds=optimize.Bounds(0.0, upper),
            options={"time_limit": TIME_LIMIT_S},
        )
        if res.x is None:
            raise RuntimeError("MILP solver failed: %s" % (res.message,))
        chosen = problem.used_positions(
            tuple(pos for pos in range(mats.n_y) if res.x[pos] > 0.5)
        )
        objective = problem.config_cost(chosen)
        # Without candidates nothing is integer and HiGHS solves an LP,
        # which reports no dual bound or node count: its optimum is exact.
        bound = res.fun if res.mip_dual_bound is None else res.mip_dual_bound
        return observed_solve(SolveResult(
            chosen_positions=chosen,
            objective=objective,
            lower_bound=float(bound) + problem.write_base_cost,
            status="optimal" if res.success else str(res.status),
            solver="milp-highs",
            solve_seconds=time.perf_counter() - started,
            nodes_explored=int(res.mip_node_count or 0),
            n_variables=n,
            n_constraints=mats.a_eq.shape[0] + mats.a_ub.shape[0],
        ))
