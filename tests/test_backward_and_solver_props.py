"""Backward index scans, plus property-based tests of the BIP solvers on
randomly generated problem instances."""

import dataclasses

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.catalog import Index
from repro.cophy.bip import BipProblem, PlanTerm, QueryTerm, SlotOptions
from repro.cophy.greedy import greedy_select
from repro.cophy.solvers import MIP_REL_GAP, SolveResult, _dominated
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.whatif import Configuration

from datagen import generate_database
from executor import run_query
from oracle import (
    check_milp_bound,
    check_solution,
    dominated_reference,
    solve_bip_held,
    solve_branch_and_bound,
)


class TestBackwardScans:
    DESC_SQL = "SELECT ra FROM photoobj WHERE ra < 300 ORDER BY ra DESC LIMIT 5"

    def test_desc_order_uses_backward_scan(self, sdss_with_indexes):
        plan = CostService(sdss_with_indexes).plan(self.DESC_SQL)
        kinds = [n.node_type for n in plan.walk()]
        assert "Sort" not in kinds
        assert any(getattr(n, "backward", False) for n in plan.walk())

    def test_backward_beats_sort_for_limit(self, sdss_catalog, sdss_with_indexes):
        with_ix = CostService(sdss_with_indexes).cost(self.DESC_SQL)
        without = CostService(sdss_catalog).cost(self.DESC_SQL)
        assert with_ix < without / 100

    def test_inum_exact_on_desc_queries(self, sdss_catalog):
        config = Configuration.of(Index("photoobj", ("ra",)))
        inum = WorkloadEvaluator(sdss_catalog)
        real = CostService(config.apply(sdss_catalog)).cost(self.DESC_SQL)
        assert inum.cost(self.DESC_SQL, config) == pytest.approx(real, rel=0.02)

    def test_executor_returns_descending_rows(self):
        from tests.test_executor import exec_catalog

        catalog = exec_catalog(rows=1500)
        indexed = catalog.clone()
        indexed.add_index(Index("t", ("a",)))
        database = generate_database(catalog, seed=6)
        sql = "SELECT a FROM t WHERE a > 5 ORDER BY a DESC"
        plan, rows = run_query(sql, indexed, database)
        values = [r[0] for r in rows]
        assert values == sorted(values, reverse=True)
        __, expected = run_query(sql, catalog, database)
        assert sorted(map(repr, rows)) == sorted(map(repr, expected))


# ----------------------------------------------------------------------
# Random BIP instances.
# ----------------------------------------------------------------------


def share(fraction):
    """*fraction* of the loaded hypothesis profile's ``max_examples``:
    the counts below under ``default``, ten times them under ``ci``."""
    return max(1, round(hsettings.default.max_examples * fraction))


@st.composite
def bip_instances(draw):
    """Random programs whose slots may be shared the way
    ``PricedWorkload.problem()`` shares them — by a later plan of the
    same query, and by another query (two statements of one text) —
    and, beyond what it emits, repeated within one plan."""
    n_candidates = draw(st.integers(0, 5))
    candidates = [Index("t", ("c%d" % i,)) for i in range(n_candidates)]
    sizes = [float(draw(st.integers(1, 20))) for __ in range(n_candidates)]
    budget = float(draw(st.integers(0, 40)))
    problem = BipProblem(
        candidates=candidates,
        sizes=sizes,
        budget_pages=budget,
        max_indexes=draw(st.none() | st.integers(0, n_candidates)),
        index_penalties=[
            float(draw(st.integers(0, 30))) for __ in range(n_candidates)
        ],
    )
    drawn = []  # every slot object so far, any query, any plan
    n_queries = draw(st.integers(1, 4))
    for __ in range(n_queries):
        n_plans = draw(st.integers(1, 2))
        term = QueryTerm(weight=float(draw(st.integers(1, 3))), plans=[])
        for __ in range(n_plans):
            plan = PlanTerm(
                internal_cost=float(draw(st.integers(0, 50))), slots=[]
            )
            n_slots = draw(st.integers(1, 2))
            for __ in range(n_slots):
                if drawn and draw(st.booleans()):
                    plan.slots.append(draw(st.sampled_from(drawn)))
                    continue
                options = [(-1, float(draw(st.integers(50, 200))))]
                for pos in range(n_candidates):
                    if draw(st.booleans()):
                        options.append((pos, float(draw(st.integers(1, 100)))))
                plan.slots.append(SlotOptions(options=options))
                drawn.append(plan.slots[-1])
            term.plans.append(plan)
        problem.queries.append(term)
    return problem


class TestSolverProperties:
    """Every backend's output — and the branch-and-bound reference's —
    is held to the one specification, ``oracle.check_solution``
    (``solve_colgen``, which takes a workload rather than a problem,
    meets it in ``tests/test_colgen.py``)."""

    @given(problem=bip_instances())
    @hsettings(max_examples=share(0.4), deadline=None)
    def test_milp_feasible_and_dominates_greedy(self, problem):
        milp = solve_bip_held(problem)
        greedy = greedy_select(problem)
        check_solution(problem, milp)
        check_solution(problem, greedy)
        check_milp_bound(milp)
        assert milp.lower_bound <= greedy.objective + 1e-6
        assert milp.objective <= greedy.objective + 1e-6

    @given(problem=bip_instances())
    @hsettings(max_examples=share(0.25), deadline=None)
    def test_branch_and_bound_matches_milp(self, problem):
        milp = solve_bip_held(problem)
        bnb = solve_branch_and_bound(problem)
        check_solution(problem, bnb)
        assert bnb.objective == pytest.approx(milp.objective, rel=1e-6, abs=1e-6)

    @given(problem=bip_instances())
    @hsettings(max_examples=share(0.25), deadline=None)
    def test_lower_bound_sound(self, problem):
        check_milp_bound(solve_bip_held(problem))

    @given(problem=bip_instances(), data=st.data())
    @hsettings(max_examples=share(0.25), deadline=None)
    def test_config_cost_monotone_in_options(self, problem, data):
        """Adding an index to a chosen set never increases config_cost
        beyond its own penalty."""
        n = problem.n_candidates
        chosen = [
            pos for pos in range(n) if data.draw(st.booleans())
        ]
        base = problem.config_cost(chosen)
        for extra in range(n):
            if extra in chosen:
                continue
            enlarged = problem.config_cost(chosen + [extra])
            penalty = problem.index_penalties[extra]
            assert enlarged <= base + penalty + 1e-6


def with_twin(problem, pos):
    """*problem* with one more candidate identical to *pos*: same size,
    same penalty, an option at the same cost on every slot *pos* has
    one on."""
    twin = problem.n_candidates
    problem.candidates.append(Index("t", ("twin",)))
    problem.sizes.append(problem.sizes[pos])
    problem.index_penalties.append(problem.index_penalties[pos])
    slots = {id(slot): slot for query in problem.queries
             for plan in query.plans for slot in plan.slots}
    for slot in slots.values():
        slot.options.extend(
            [(twin, cost) for option, cost in slot.options if option == pos])
    return problem


class TestDominancePresolve:
    """``solve_bip`` fixes every dominated candidate's ``y`` to 0 before
    HiGHS runs; the optimum is still the program's."""

    @given(problem=bip_instances(), twin=st.booleans())
    @hsettings(max_examples=share(0.4), deadline=None)
    def test_optimum_kept_and_nothing_dominated_chosen(self, problem, twin):
        if twin and problem.n_candidates:
            problem = with_twin(problem, 0)
        dominated = dominated_reference(problem)
        assert set(_dominated(problem)) == dominated
        milp = solve_bip_held(problem)
        check_solution(problem, milp)
        reference = solve_branch_and_bound(problem)
        assert milp.objective == pytest.approx(
            reference.objective, rel=MIP_REL_GAP, abs=1e-6)
        assert not dominated & set(milp.chosen_positions)


class TestCheckSolutionRejects:
    """The specification has teeth: one violation each."""

    def problem(self):
        slot = SlotOptions(options=[(-1, 100.0), (0, 10.0), (1, 20.0), (2, 30.0)])
        return BipProblem(
            candidates=[Index("t", ("c%d" % i,)) for i in range(3)],
            sizes=[5.0, 5.0, 5.0],
            budget_pages=10.0,
            max_indexes=2,
            queries=[QueryTerm(weight=1.0, plans=[PlanTerm(0.0, [slot])])],
        )

    def result(self, problem, chosen, objective=None):
        if objective is None:
            objective = problem.config_cost(chosen)
        return SolveResult(chosen_positions=tuple(chosen), objective=objective)

    def test_accepts_a_solution(self):
        problem = self.problem()
        check_solution(problem, self.result(problem, (0, 1)))
        check_solution(problem, greedy_select(problem))

    @pytest.mark.parametrize("change, chosen, message", [
        ({}, (0, 1, 2), "over the storage budget"),
        ({}, (0, 0), "duplicate position"),
        ({}, (0, 3), "position out of range"),
        ({}, (-1,), "position out of range"),
        ({"budget_pages": 100.0}, (0, 1, 2), "over max_indexes"),
    ])
    def test_rejects_an_infeasible_set(self, change, chosen, message):
        problem = dataclasses.replace(self.problem(), **change)
        # A stated objective: pricing an out-of-range set would raise
        # before the constraint under test is reached.
        with pytest.raises(AssertionError, match=message):
            check_solution(problem, self.result(problem, chosen, 10.0))

    def test_rejects_a_mis_stated_objective(self):
        problem = self.problem()
        with pytest.raises(AssertionError, match="objective is not the cost"):
            check_solution(problem, self.result(problem, (0,), 9.0))
        worse = dataclasses.replace(
            self.problem(), index_penalties=[500.0] * 3
        )
        with pytest.raises(AssertionError, match="worse than choosing nothing"):
            check_solution(worse, self.result(worse, (0,)))
