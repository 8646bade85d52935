"""The automatic index suggestion component (paper §3.2.1).

Glues the pipeline together: candidate generation -> INUM warm-up ->
BIP construction -> solver -> :class:`Recommendation`.  The DBA-facing
knobs are the storage budget, the candidate cap, and the solver choice
(CoPhy's "trade off execution time against the quality of the suggested
solutions"): ``milp`` (HiGHS, optimal), ``greedy`` (benefit-per-page
rounds over the full program) or ``colgen`` (the same greedy answer,
pricing candidates lazily instead of building the program).
"""

import math
import time
from dataclasses import dataclass, field

from repro.cophy.bip import build_bip
from repro.cophy.candidates import candidate_indexes
from repro.cophy.colgen import solve_colgen
from repro.cophy.greedy import greedy_select
from repro.cophy.solvers import solve_bip
from repro.util import DesignError
from repro.whatif import Configuration

# The solvers that consume a materialized BipProblem (plain functions:
# the perf ledger's tracer patches them in this table); ``colgen`` prices
# candidates lazily instead, so the advisor skips build_bip for it.
_SOLVERS = {"milp": solve_bip, "greedy": greedy_select}
SOLVERS = frozenset(_SOLVERS) | {"colgen"}


def check_budget(budget_pages):
    """Return *budget_pages*; a :class:`DesignError` unless it is a
    finite number ≥ 0."""
    if not (math.isfinite(budget_pages) and budget_pages >= 0):
        raise DesignError(
            "storage budget must be finite and non-negative, got %r"
            % (budget_pages,)
        )
    return budget_pages


@dataclass
class Recommendation:
    """An index recommendation with its predicted impact."""

    indexes: list
    configuration: Configuration
    base_workload_cost: float
    predicted_workload_cost: float
    size_pages: int
    budget_pages: int
    solver: str
    solve_seconds: float = 0.0
    optimizer_calls: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def benefit(self):
        return self.base_workload_cost - self.predicted_workload_cost

    @property
    def improvement_pct(self):
        if self.base_workload_cost <= 0:
            return 0.0
        return 100.0 * self.benefit / self.base_workload_cost

    def to_text(self):
        lines = ["Recommended indexes (%s):" % self.solver]
        if not self.indexes:
            lines.append("  (none — budget too small or nothing helps)")
        for ix in self.indexes:
            lines.append("  %s" % ix.sql())
        lines.append(
            "storage: %d of %d pages; workload cost %.1f -> %.1f (%.1f%% better)"
            % (
                self.size_pages,
                self.budget_pages,
                self.base_workload_cost,
                self.predicted_workload_cost,
                self.improvement_pct,
            )
        )
        return "\n".join(lines)


class CoPhyAdvisor:
    """Offline index advisor over one
    :class:`~repro.evaluation.WorkloadEvaluator`: candidates are mined
    on, and priced by, that evaluator's catalog."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.catalog = evaluator.catalog

    def recommend(
        self,
        workload,
        budget_pages,
        candidates=None,
        solver="milp",
        max_candidates=60,
        max_indexes=None,
    ):
        """Suggest indexes for *workload* within *budget_pages* of storage.

        ``max_indexes`` caps how many indexes may be chosen (a common DBA
        constraint next to raw storage).  A large workload of repeated
        templates is best handed over through
        :func:`~repro.cophy.compression.compress_workload` first.
        """
        check_budget(budget_pages)
        if max_indexes is not None and max_indexes < 0:
            raise DesignError(
                "max_indexes must be non-negative, got %r" % (max_indexes,)
            )
        if solver not in SOLVERS:
            raise DesignError(
                "unknown solver %r (have: %s)" % (solver, sorted(SOLVERS))
            )
        workload = list(workload)
        if not workload:
            raise DesignError("cannot tune an empty workload")

        started = time.perf_counter()
        calls_before = self.evaluator.precompute_calls
        if candidates is None:
            candidates = candidate_indexes(
                self.catalog, workload, max_candidates=max_candidates,
                bind=self.evaluator.bound,
            )
        if solver == "colgen":
            # Column generation: no exhaustive BIP — candidates are
            # priced by the slot pricer and activated on demand, so the
            # cross-product of (slot, candidate) options is never fully
            # materialized into a problem object.
            result = solve_colgen(
                self.evaluator, workload, candidates, budget_pages,
                max_indexes=max_indexes,
            )
            base_cost = result.extra["base_cost"]
            size_pages = sum(
                float(candidates[pos].size_pages(
                    self.catalog.table(candidates[pos].table_name)
                ))
                for pos in set(result.chosen_positions)
            )
        else:
            problem = build_bip(
                self.evaluator, workload, candidates, budget_pages,
                max_indexes=max_indexes,
            )
            result = _SOLVERS[solver](problem)
            base_cost = problem.config_cost(())
            size_pages = problem.config_size(result.chosen_positions)

        chosen = [candidates[pos] for pos in result.chosen_positions]
        config = Configuration(indexes=frozenset(chosen))
        return Recommendation(
            indexes=sorted(chosen, key=lambda ix: ix.name),
            configuration=config,
            base_workload_cost=base_cost,
            predicted_workload_cost=result.objective,
            size_pages=int(size_pages),
            budget_pages=int(budget_pages),
            solver=result.solver,
            solve_seconds=time.perf_counter() - started,
            optimizer_calls=self.evaluator.precompute_calls - calls_before,
            stats={
                "n_candidates": len(candidates),
                "n_variables": result.n_variables,
                "n_constraints": result.n_constraints,
                "lower_bound": result.lower_bound,
                "gap": result.gap,
                "status": result.status,
                "nodes": result.nodes_explored,
                "solve_extra": dict(result.extra) or None,
            },
        )
