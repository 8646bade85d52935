"""Tests for CoPhy: candidates, BIP construction, solvers, advisor."""

import dataclasses
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings as hsettings

from repro.catalog import Index
from repro.cophy import (
    CoPhyAdvisor,
    build_bip,
    candidate_indexes,
    greedy_select,
    solve_bip,
)
from repro.cophy import advisor as advisor_module
from repro.cophy import solvers
from repro.cophy.advisor import SOLVERS
from repro.cophy.bip import BipProblem, PlanTerm, QueryTerm, SlotOptions
from repro.cophy.solvers import _assemble
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.util import DesignError
from repro.workloads import sdss, tpch
from repro.workloads import sdss_catalog as full_sdss_catalog
from repro.workloads import tpch_catalog

from oracle import (
    assemble_reference,
    check_milp_bound,
    check_solution,
    relaxation_value,
    solve_bip_all_integer,
    solve_bip_held,
    solve_branch_and_bound,
    used_positions_reference,
)
from test_backward_and_solver_props import bip_instances, share
from test_colgen import template_workload

WORKLOAD = [
    ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12", 1.0),
    ("SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1", 1.0),
    ("SELECT p.ra, s.z FROM photoobj p, specobj s "
     "WHERE p.objid = s.objid AND s.z > 6.5", 1.0),
    ("SELECT ra FROM photoobj WHERE dec > 85 ORDER BY ra LIMIT 5", 1.0),
]


@pytest.fixture
def inum(sdss_catalog):
    return WorkloadEvaluator(sdss_catalog)


@pytest.fixture
def problem(sdss_catalog, inum):
    candidates = candidate_indexes(sdss_catalog, WORKLOAD, max_candidates=14)
    budget = sum(
        ix.size_pages(sdss_catalog.table(ix.table_name)) for ix in candidates
    ) // 3
    return build_bip(inum, WORKLOAD, candidates, budget)


class TestCandidateGeneration:
    def test_filter_columns_become_candidates(self, sdss_catalog):
        cands = candidate_indexes(sdss_catalog, WORKLOAD)
        assert Index("photoobj", ("ra",)) in cands
        assert Index("specobj", ("z",)) in cands

    def test_join_columns_become_candidates(self, sdss_catalog):
        cands = candidate_indexes(sdss_catalog, WORKLOAD)
        assert Index("photoobj", ("objid",)) in cands
        assert Index("specobj", ("objid",)) in cands

    def test_composites_for_eq_plus_range(self, sdss_catalog):
        cands = candidate_indexes(sdss_catalog, WORKLOAD)
        assert Index("photoobj", ("type", "rmag")) in cands

    def test_cap_respected(self, sdss_catalog):
        assert len(candidate_indexes(sdss_catalog, WORKLOAD, max_candidates=5)) == 5

    def test_weights_affect_ranking(self, sdss_catalog):
        heavy = [("SELECT zerr FROM specobj WHERE zerr < 0.001", 100.0)]
        cands = candidate_indexes(sdss_catalog, heavy + WORKLOAD, max_candidates=3)
        assert any(ix.columns[0] == "zerr" for ix in cands)


class TestBipProblem:
    def test_empty_config_cost_is_base(self, problem, inum):
        base = inum.workload_cost(WORKLOAD)
        assert problem.config_cost(()) == pytest.approx(base, rel=1e-6)

    def test_config_cost_matches_inum(self, problem, inum):
        from repro.whatif import Configuration

        chosen = (0, 1)
        config = Configuration.of(*(problem.candidates[p] for p in chosen))
        assert problem.config_cost(chosen) == pytest.approx(
            inum.workload_cost(WORKLOAD, config), rel=1e-6
        )

    def test_config_size_sums_pages(self, problem):
        assert problem.config_size((0,)) == problem.sizes[0]
        assert problem.config_size(()) == 0

    def test_more_indexes_never_worse(self, problem):
        all_pos = tuple(range(problem.n_candidates))
        assert problem.config_cost(all_pos) <= problem.config_cost(()) + 1e-6


class TestSolvers:
    def test_milp_respects_budget(self, problem):
        result = solve_bip_held(problem)
        assert problem.config_size(result.chosen_positions) <= problem.budget_pages

    def test_milp_no_worse_than_greedy(self, problem):
        milp = solve_bip_held(problem)
        greedy = greedy_select(problem)
        assert milp.objective <= greedy.objective + 1e-6

    def test_milp_objective_is_true_cost(self, problem):
        result = solve_bip_held(problem)
        assert result.objective == pytest.approx(
            problem.config_cost(result.chosen_positions)
        )

    def test_lower_bound_sound(self, problem):
        check_milp_bound(solve_bip_held(problem))

    def test_bound_and_nodes_are_what_highs_proved(self, sdss_catalog, inum):
        """The reported bound is HiGHS's dual bound, not its incumbent,
        and the node count is its own: both equal what
        ``scipy.optimize.milp`` reports on the same program."""
        workload = WORKLOAD + WRITES
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=14)
        problem = build_bip(inum, workload, candidates, 5_000)
        solve_bip_held(problem)

    @pytest.mark.parametrize("limit, status", [
        ("kTimeLimit", "1"), ("kIterationLimit", "1"),
        ("kSolutionLimit", "4"),
    ])
    def test_a_limit_returns_the_incumbent(self, monkeypatch, limit, status):
        """Stopped at a limit with an incumbent, the solve returns it,
        with the status ``scipy.optimize.milp`` gave that limit."""
        problem = knapsack_trap()
        incumbent = (1, 2)
        solver = stopped_highs(monkeypatch, limit,
                               problem.config_cost(incumbent) - 1.0, incumbent)
        result = solve_bip(problem)
        assert result.status == status
        assert result.chosen_positions == incumbent
        assert result.objective == problem.config_cost(incumbent)
        assert result.lower_bound == 1.5 + problem.write_base_cost
        assert result.nodes_explored == 7
        assert solver.options.time_limit == solvers.TIME_LIMIT_S

    def test_a_time_limit_without_an_incumbent_fails(self, monkeypatch):
        """Stopped by its time limit before it found any incumbent, the
        solve raises."""
        monkeypatch.setattr(solvers, "TIME_LIMIT_S", 0.0)
        highs = solvers._highs()
        solver = stopped_highs(monkeypatch, "kTimeLimit", highs.kHighsInf, ())
        with pytest.raises(RuntimeError, match="MILP solver failed"):
            solve_bip(knapsack_trap())
        assert solver.options.time_limit == 0.0

    def test_the_binding_is_loaded_from_its_file_or_named_missing(
            self, tmp_path):
        with pytest.raises(ImportError) as missing:
            solvers._load_extension(solvers._HIGHS_CORE, str(tmp_path))
        assert str(tmp_path) in str(missing.value)
        assert missing.value.path == str(tmp_path)

    def test_the_gap_is_the_bindings_default(self):
        """``MIP_REL_GAP`` is not passed to HiGHS; it states the default
        HiGHS stops at."""
        assert solvers.MIP_REL_GAP == solvers._highs().HighsOptions().mip_rel_gap

    def test_no_candidates_is_an_empty_exact_design(self, sdss_catalog):
        """With nothing to branch on HiGHS solves an LP and reports no
        dual bound or node count; the result is then exact."""
        rec = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog)).recommend(
            WORKLOAD, 5_000, candidates=[], solver="milp"
        )
        assert rec.configuration.indexes == frozenset()
        assert rec.stats["lower_bound"] == pytest.approx(
            rec.predicted_workload_cost, rel=1e-9
        )
        assert rec.stats["nodes"] == 0

    def test_branch_and_bound_matches_milp(self, problem):
        milp = solve_bip_held(problem)
        bnb = solve_branch_and_bound(problem)
        check_solution(problem, bnb)
        assert bnb.objective == pytest.approx(milp.objective, rel=1e-6)

    def test_greedy_improves_over_empty(self, problem):
        result = greedy_select(problem)
        assert result.objective <= problem.config_cost(()) + 1e-6

    def test_zero_budget_selects_nothing(self, sdss_catalog, inum):
        cands = candidate_indexes(sdss_catalog, WORKLOAD, max_candidates=8)
        problem = build_bip(inum, WORKLOAD, cands, budget_pages=0)
        for solver in (solve_bip_held, greedy_select):
            assert solver(problem).chosen_positions == ()


WRITES = [
    ("UPDATE photoobj SET status = 3 WHERE rmag < 14", 0.5),
    ("INSERT INTO specobj VALUES (1)", 0.25),
]


def stopped_highs(monkeypatch, limit, objective, incumbent):
    """Make ``solve_bip`` meet a HiGHS that stops at *limit* (a
    ``HighsModelStatus`` name) with an incumbent of value *objective*
    choosing *incumbent*, a dual bound of 1.5 and 7 nodes; return the
    fake solver, which keeps the options it was passed."""
    highs = solvers._highs()

    class Stopped:
        def passOptions(self, options):
            self.options = options
            return highs.HighsStatus.kOk

        def passModel(self, lp):
            self.n = lp.num_col_
            return highs.HighsStatus.kOk

        def run(self):
            return highs.HighsStatus.kWarning

        def getModelStatus(self):
            return getattr(highs.HighsModelStatus, limit)

        def modelStatusToString(self, status):
            return limit

        def getInfo(self):
            return SimpleNamespace(objective_function_value=objective,
                                   mip_dual_bound=1.5, mip_node_count=7)

        def getSolution(self):
            return SimpleNamespace(col_value=[
                1.0 if pos in incumbent else 0.0 for pos in range(self.n)])

    solver = Stopped()
    binding = SimpleNamespace(**vars(highs))
    binding._Highs = lambda: solver
    monkeypatch.setattr(solvers, "_highs", lambda: binding)
    return solver


def knapsack_trap():
    """bench_claim_cophy_vs_greedy's constructed instance: one big index
    with the best ratio blocks two complementary ones."""
    candidates = [Index("t", (c,)) for c in "abc"]
    problem = BipProblem(
        candidates=candidates, sizes=[10.0, 6.0, 6.0], budget_pages=12.0
    )
    problem.queries = [
        QueryTerm(weight=1.0, plans=[PlanTerm(internal_cost=0.0, slots=[
            SlotOptions(options=[(-1, 100.0), (pos, improved)])
        ])])
        for pos, improved in enumerate((5.0, 45.0, 45.0))
    ]
    return problem


def feasible_sets(problem):
    """Every binary ``y`` within the budget and the index cap."""
    for size in range(problem.n_candidates + 1):
        if problem.max_indexes is not None and size > problem.max_indexes:
            break
        for chosen in itertools.combinations(range(problem.n_candidates), size):
            if problem.config_size(chosen) <= problem.budget_pages:
                yield chosen


class TestRelaxationIsExact:
    """Only ``y`` is declared integer in ``solve_bip``.  That is exact
    because, with ``y`` fixed to any feasible binary vector, the LP over
    ``(z, x)`` already attains ``config_cost(y)`` — checked here with
    plain ``linprog``, so the argument does not rest on the MILP backend
    it is meant to justify."""

    @given(problem=bip_instances())
    @hsettings(max_examples=share(0.3), deadline=None)
    def test_lp_over_z_and_x_equals_config_cost_for_every_feasible_y(
            self, problem):
        problem.write_base_cost = 7.5
        for chosen in feasible_sets(problem):
            assert relaxation_value(problem, chosen) == pytest.approx(
                problem.config_cost(chosen) - problem.write_base_cost,
                rel=1e-9, abs=1e-9,
            )

    def test_holds_on_a_real_problem_with_write_penalties(
            self, sdss_catalog, inum):
        workload = WORKLOAD + WRITES
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=14)
        problem = build_bip(inum, workload, candidates, budget_pages=10**9)
        assert any(problem.index_penalties)
        n = problem.n_candidates
        for size in (0, 1, 2, n):
            for chosen in itertools.combinations(range(n), size):
                assert relaxation_value(problem, chosen) == pytest.approx(
                    problem.config_cost(chosen) - problem.write_base_cost,
                    rel=1e-9,
                )

    def test_a_slot_repeated_within_a_plan_takes_a_row_per_occurrence(self):
        """``PricedWorkload`` never emits one, but ``config_cost`` prices
        a slot a plan reads twice twice — and so do the matrices: its
        k-th occurrence in a plan is the slot's k-th row, so the two
        reads can take different options, as two slots would."""
        twice = SlotOptions(options=[(-1, 100.0), (0, 10.0), (1, 30.0)])
        problem = BipProblem(
            candidates=[Index("t", ("a",)), Index("t", ("b",))],
            sizes=[5.0, 5.0], budget_pages=10.0, max_indexes=1,
        )
        problem.queries = [QueryTerm(weight=1.0, plans=[
            PlanTerm(internal_cost=1.0, slots=[twice, twice]),
            PlanTerm(internal_cost=15.0, slots=[twice]),
        ])]
        mats = _assemble(problem)
        assert mats.n_eq == 2 + 1
        assert len(mats.c) == 2 + 2 + 2 * 3
        for chosen in feasible_sets(problem):
            assert relaxation_value(problem, chosen) == pytest.approx(
                problem.config_cost(chosen), rel=1e-9)
        result = solve_bip_held(problem)
        assert result.chosen_positions == (0,)
        assert result.objective == solve_bip_all_integer(problem)[1] == 21.0

    def test_a_query_has_one_row_per_distinct_slot(self, sdss_catalog, inum):
        """The shipped matrices on a real program: one equality row and
        one set of option columns per distinct (query, slot object),
        however many cached plans read the slot — a statement listed
        twice shares its slot objects yet gets rows of its own — where
        the reference form has one per (plan, slot) pair."""
        workload = WORKLOAD + WRITES + [WORKLOAD[2]]
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=14)
        problem = build_bip(inum, workload, candidates, 40_000)
        pairs = distinct = options = plans = 0
        owners = {}
        for n, query in enumerate(problem.queries):
            slots = {}
            for plan in query.plans:
                # PricedWorkload never repeats a slot within one plan.
                assert len({id(s) for s in plan.slots}) == len(plan.slots)
                slots.update((id(s), s) for s in plan.slots)
                pairs += len(plan.slots)
            plans += len(query.plans)
            distinct += len(slots)
            options += sum(len(s.options) for s in slots.values())
            for key in slots:
                owners.setdefault(key, set()).add(n)
        assert pairs > distinct
        assert any(len(queries) > 1 for queries in owners.values())
        n_queries = len(problem.queries)
        mats = _assemble(problem)
        assert mats.n_eq == distinct + n_queries
        assert len(mats.c) == problem.n_candidates + plans + options
        assert assemble_reference(problem).a_eq.shape[0] == pairs + n_queries
        result = solve_bip_held(problem)
        assert result.n_variables == len(mats.c)

    def test_y_only_objective_equals_all_integer_on_the_fixture(self, problem):
        assert solve_bip_held(problem).objective == solve_bip_all_integer(problem)[1]

    def test_y_only_objective_equals_all_integer_on_the_knapsack_trap(self):
        problem = knapsack_trap()
        result = solve_bip_held(problem)
        assert result.objective == solve_bip_all_integer(problem)[1] == 190.0
        assert set(result.chosen_positions) == {1, 2}

    def test_y_only_objective_equals_all_integer_with_writes(
            self, sdss_catalog, inum):
        workload = WORKLOAD + WRITES
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=14)
        for budget in (0, 5_000, 40_000):
            problem = build_bip(inum, workload, candidates, budget)
            result = solve_bip_held(problem)
            check_milp_bound(result)
            assert result.objective == solve_bip_all_integer(problem)[1]

    @pytest.mark.parametrize(
        "registry, make_catalog",
        [
            (sdss.TEMPLATE_REGISTRY, lambda: full_sdss_catalog(scale=0.05)),
            (tpch.TEMPLATE_REGISTRY, lambda: tpch_catalog(scale=0.05)),
        ],
        ids=["sdss", "tpch"],
    )
    def test_y_only_objective_equals_all_integer_on_every_template(
            self, registry, make_catalog):
        catalog = make_catalog()
        workload = template_workload(registry)
        candidates = candidate_indexes(catalog, workload, max_candidates=24)
        total = sum(
            ix.size_pages(catalog.table(ix.table_name)) for ix in candidates
        )
        problem = build_bip(
            WorkloadEvaluator(catalog), workload, candidates, total // 4
        )
        result = solve_bip_held(problem)
        check_milp_bound(result)
        assert result.objective == solve_bip_all_integer(problem)[1]


class TestNoDeadWeightIndexes:
    """Solvers return only indexes the solution's cheapest plans read:
    with zero objective weight on ``y`` (a read-only workload) the LP is
    free to leave any affordable ``y`` at 1."""

    def dominated_pair(self):
        # Both candidates serve the one slot; position 1 is never the
        # cheapest, and both fit the budget.
        problem = BipProblem(
            candidates=[Index("t", ("a",)), Index("t", ("b",))],
            sizes=[4.0, 4.0], budget_pages=10.0,
        )
        problem.queries = [QueryTerm(weight=2.0, plans=[
            PlanTerm(internal_cost=1.0, slots=[
                SlotOptions(options=[(-1, 50.0), (0, 5.0), (1, 9.0)]),
            ]),
            PlanTerm(internal_cost=30.0, slots=[
                SlotOptions(options=[(-1, 40.0), (1, 1.0)]),
            ]),
        ])]
        return problem

    def test_a_dominated_index_is_dropped(self):
        problem = self.dominated_pair()
        assert problem.used_positions((0, 1)) == (0,)
        assert problem.used_positions((1, 0)) == (0,)
        assert problem.used_positions((1,)) == (1,)
        assert problem.used_positions(()) == ()
        assert problem.config_cost((0,)) == problem.config_cost((0, 1))

    @pytest.mark.parametrize(
        "solver", [pytest.param(solve_bip_held, id="solve_bip"),
                   greedy_select, solve_branch_and_bound]
    )
    def test_every_solver_returns_only_used_indexes(self, solver):
        for problem in (self.dominated_pair(), knapsack_trap()):
            result = solver(problem)
            chosen = result.chosen_positions
            assert chosen == problem.used_positions(chosen)
            assert result.objective == problem.config_cost(chosen)
        assert solver(self.dominated_pair()).chosen_positions == (0,)

    def test_pruning_the_all_integer_solution_keeps_the_objective(self, problem):
        raw, objective = solve_bip_all_integer(problem)
        kept = problem.used_positions(raw)
        assert problem.config_cost(kept) == objective
        assert problem.config_size(kept) <= problem.config_size(raw)
        assert problem.used_positions(kept) == kept
        assert set(kept) <= set(raw)

    @given(problem=bip_instances())
    @hsettings(max_examples=40, deadline=None)
    def test_witness_equals_the_scalar_walk_and_never_costs_more(self, problem):
        read_only = dataclasses.replace(problem, index_penalties=[])
        for size in range(problem.n_candidates + 1):
            for chosen in itertools.permutations(
                    range(problem.n_candidates), size):
                kept = problem.used_positions(chosen)
                assert kept == used_positions_reference(problem, chosen)
                assert problem.used_positions(kept) == kept
                # Reads are untouched; only unused penalties fall away.
                assert problem.config_cost(kept) <= problem.config_cost(chosen)
                assert read_only.config_cost(kept) == \
                    read_only.config_cost(chosen)


class TestAdvisor:
    def test_recommendation_fields(self, sdss_catalog):
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        rec = advisor.recommend(WORKLOAD, budget_pages=20_000, solver="milp")
        assert rec.predicted_workload_cost <= rec.base_workload_cost
        assert rec.size_pages <= rec.budget_pages
        assert rec.improvement_pct >= 0
        assert "CREATE INDEX" in rec.to_text() or "none" in rec.to_text()

    def test_predicted_cost_matches_real_optimizer(self, sdss_catalog):
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        rec = advisor.recommend(WORKLOAD, budget_pages=20_000, solver="milp")
        real = CostService(rec.configuration.apply(sdss_catalog)).workload_cost(
            WORKLOAD
        )
        assert rec.predicted_workload_cost == pytest.approx(real, rel=0.02)

    def test_unknown_solver_rejected(self, sdss_catalog):
        with pytest.raises(DesignError, match="solver"):
            CoPhyAdvisor(WorkloadEvaluator(sdss_catalog)).recommend(
                WORKLOAD, 1000, solver="magic"
            )

    def test_empty_workload_rejected(self, sdss_catalog):
        with pytest.raises(DesignError, match="empty"):
            CoPhyAdvisor(WorkloadEvaluator(sdss_catalog)).recommend([], 1000)

    def test_negative_budget_rejected(self, sdss_catalog):
        with pytest.raises(DesignError, match="budget"):
            CoPhyAdvisor(WorkloadEvaluator(sdss_catalog)).recommend(
                WORKLOAD, -5
            )

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("limits, message", [
        (dict(budget_pages=float("nan")), "budget"),
        (dict(budget_pages=float("inf")), "budget"),
        (dict(budget_pages=-float("inf")), "budget"),
        (dict(budget_pages=1000, max_indexes=-1), "max_indexes"),
    ])
    def test_limits_rejected_before_any_candidate(
            self, sdss_catalog, monkeypatch, solver, limits, message):
        """The same typed error from every solver, where milp used to
        raise RuntimeError or OverflowError and greedy / colgen returned
        the empty design."""
        def no_candidates(*args, **kwargs):
            raise AssertionError("candidates generated")

        monkeypatch.setattr(advisor_module, "candidate_indexes", no_candidates)
        with pytest.raises(DesignError, match=message):
            CoPhyAdvisor(WorkloadEvaluator(sdss_catalog)).recommend(
                WORKLOAD, solver=solver, **limits
            )

    def test_budget_sweep_monotone(self, sdss_catalog):
        """Bigger budgets can only help — the CL-ILP experiment's backbone."""
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        costs = [
            advisor.recommend(WORKLOAD, budget_pages=b, solver="milp"
                              ).predicted_workload_cost
            for b in (0, 2_000, 10_000, 50_000)
        ]
        for tighter, looser in zip(costs, costs[1:]):
            assert looser <= tighter + 1e-6

    def test_seeded_candidates_used(self, sdss_catalog):
        designer_seed = Index("photoobj", ("dec", "ra"))
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        rec = advisor.recommend(
            WORKLOAD, budget_pages=50_000, candidates=[designer_seed], solver="milp"
        )
        assert set(rec.indexes) <= {designer_seed}
