"""The exact solver backend for the CoPhy binary program.

:func:`solve_bip` hands the program to HiGHS branch-and-cut — the
"sophisticated and mature solver" the paper plugs in — through HiGHS's
own pybind11 binding, the copy scipy ships as
``scipy.optimize._highspy._core``.  The advisor's two other backends
are the greedy heuristic (:mod:`repro.cophy.greedy`) and column
generation (:mod:`repro.cophy.colgen`); an LP-bounded branch-and-bound
that cross-checks HiGHS lives with the test references
(``tests/oracle.py``).

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

The binding is loaded by the first solve, not by ``import repro``, and
from its own file (:func:`_highs`): ``scipy/optimize/__init__``, which
would load ``scipy.sparse``, ``scipy.linalg`` and some 300 more modules
for this one call, never runs.  :func:`_assemble` writes the matrix
HiGHS reads, column-wise, with numpy, and the options are those
``scipy.optimize.milp`` passed (``tests/oracle.py:milp_reference``,
held equal to :func:`solve_bip` in answer, bound and node count).
"""

import importlib.util
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib.machinery import PathFinder

import numpy as np

from repro import obs
from repro.obs.catalogue import BIP_SOLVES, BIP_SOLVE_SECONDS, SPAN_COPHY_SOLVE

# HiGHS stops here and reports its best incumbent with a non-"optimal"
# status.
TIME_LIMIT_S = 60.0

# HiGHS's default relative MIP gap, not passed as an option: it may stop
# once its incumbent is within this of its dual bound.
MIP_REL_GAP = 1e-4

_HIGHS_CORE = "scipy.optimize._highspy._core"
_LOAD_LOCK = threading.Lock()


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
    """The BIP as HiGHS reads it: one column-wise matrix whose first
    ``n_eq`` rows are the equalities and the rest the ``≤`` rows, with
    each row's bounds, plus the variable layout."""

    c: np.ndarray
    start: np.ndarray  # column j's entries are start[j]:start[j + 1]
    index: np.ndarray  # their rows, ascending within a column
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    n_eq: int
    n_y: int


def _assemble(problem):
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

    # The <= rows follow the equalities; each column lists its rows in
    # ascending order, the canonical form of a compressed sparse column.
    n_eq = len(b_eq)
    rows = np.array(eq_rows + [n_eq + row for row in ub_rows], dtype=np.int32)
    cols = np.array(eq_cols + ub_cols, dtype=np.int32)
    order = np.lexsort((rows, cols))
    start = np.zeros(var + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=var), out=start[1:])
    return _Matrices(
        c=np.array(c),
        start=start,
        index=rows[order],
        value=np.array(eq_vals + ub_vals)[order],
        row_lower=np.array(b_eq + [-np.inf] * len(b_ub)),
        row_upper=np.array(b_eq + b_ub),
        n_eq=n_eq,
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


def _load_extension(name, directory):
    """Load the extension module *name* from its file in *directory*,
    running no ``__init__`` of the packages it sits in, and register it
    under *name* so a later ``import`` of that package reuses it."""
    spec = PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError("no %s extension in %s" % (name, directory),
                          name=name, path=directory)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _highs():
    """HiGHS's pybind11 binding as scipy ships it, loaded from its own
    file: ``scipy/optimize/__init__`` (and with it ``scipy.sparse``,
    ``scipy.linalg`` and the rest) never runs.  The binding registers
    its types once per process, so it is loaded once and reused from
    ``sys.modules`` — also when ``scipy.optimize`` loaded it first."""
    with _LOAD_LOCK:
        core = sys.modules.get(_HIGHS_CORE)
        if core is None:
            scipy = importlib.util.find_spec("scipy")
            if scipy is None:
                raise ImportError("the MILP solver needs scipy's HiGHS "
                                  "binding, and scipy is not installed")
            core = _load_extension(_HIGHS_CORE, os.path.join(
                scipy.submodule_search_locations[0], "optimize", "_highspy"))
        return core


def solve_bip(problem):
    """Exact solve with HiGHS, dominated candidates fixed to 0 first."""
    highs = _highs()
    with obs.tracer().span(SPAN_COPHY_SOLVE, solver="milp-highs",
                           candidates=problem.n_candidates):
        started = time.perf_counter()
        mats = _assemble(problem)
        n, m = len(mats.c), len(mats.row_upper)
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.col_cost_ = mats.c
        lp.col_lower_ = np.zeros(n)
        upper = np.ones(n)
        upper[_dominated(problem)] = 0.0
        lp.col_upper_ = upper
        lp.row_lower_, lp.row_upper_ = mats.row_lower, mats.row_upper
        matrix = lp.a_matrix_
        matrix.format_ = highs.MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = n, m
        matrix.start_, matrix.index_, matrix.value_ = (
            mats.start, mats.index, mats.value)
        lp.integrality_ = (
            [highs.HighsVarType.kInteger] * mats.n_y
            + [highs.HighsVarType.kContinuous] * (n - mats.n_y))
        options = highs.HighsOptions()
        options.log_to_console = False
        options.time_limit = TIME_LIMIT_S
        solver = highs._Highs()
        solver.passOptions(options)
        solved = (solver.passModel(lp) != highs.HighsStatus.kError
                  and solver.run() != highs.HighsStatus.kError)
        status = solver.getModelStatus()
        info = solver.getInfo()
        # Each limit's status as scipy.optimize.milp reported it.
        limits = {highs.HighsModelStatus.kTimeLimit: "1",
                  highs.HighsModelStatus.kIterationLimit: "1",
                  highs.HighsModelStatus.kSolutionLimit: "4"}
        if mats.n_y and status in limits:
            # A limit stops a MILP with its incumbent, if it has one.
            solved = solved and info.objective_function_value != highs.kHighsInf
        else:
            solved = solved and status == highs.HighsModelStatus.kOptimal
        if not solved:
            raise RuntimeError("MILP solver failed: model status is %s"
                               % solver.modelStatusToString(status))
        x = solver.getSolution().col_value
        chosen = problem.used_positions(
            tuple(pos for pos in range(mats.n_y) if x[pos] > 0.5)
        )
        objective = problem.config_cost(chosen)
        # Without candidates nothing is integer and HiGHS solves an LP,
        # which reports no dual bound or node count: its optimum is exact.
        if mats.n_y:
            bound, nodes = info.mip_dual_bound, info.mip_node_count
        else:
            bound, nodes = info.objective_function_value, 0
        return observed_solve(SolveResult(
            chosen_positions=chosen,
            objective=objective,
            lower_bound=float(bound) + problem.write_base_cost,
            status=limits.get(status, "optimal"),
            solver="milp-highs",
            solve_seconds=time.perf_counter() - started,
            nodes_explored=int(nodes),
            n_variables=n,
            n_constraints=m,
        ))
