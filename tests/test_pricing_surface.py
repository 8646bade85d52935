"""The pricing surface, pinned by signature.

ROADMAP item 3's exit — "no mode keyword outside tests" — as a test
instead of a grep: every batch pricing callable takes exactly its data
arguments (what to price, and for the delta seam the ``parent`` to
price it off), and none of the strategy switches the
surface used to carry.  Which kernel strategy runs is decided by the
method called, never by a caller's flag.

The second half reads (never edits) the perf ledger's boundary table:
``benchmarks/e2e/trace.py`` patches each boundary by
``vars(owner)[leaf]``, so a renamed or re-parented function would
otherwise surface only in a traced ledger run.
"""

import importlib.util
import inspect
import os
import re
import sys

import pytest

from repro.cophy.bip import BipProblem, CandidatePricer
from repro.cophy.greedy import greedy_select
from repro.designer import Designer
from repro.evaluation import BipKernel, WorkloadEvaluator, WorkloadKernel
from repro.whatif import WhatIfSession

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MODE_KEYWORDS = {
    "sparse", "kernel", "use_kernel", "vectorized", "parallel",
    "max_workers", "delta", "compact", "base_view",
}

# The seven callables the ledger's boundary table wraps.
BOUNDARY_SURFACE = [
    (WorkloadEvaluator.evaluate_many, ["workload", "configurations"]),
    (WorkloadEvaluator.evaluate_deltas,
     ["workload", "parent", "configurations"]),
    (WorkloadEvaluator.evaluate_configurations,
     ["workload", "configurations"]),
    (WorkloadEvaluator.workload_costs, ["workload", "configurations"]),
    (WorkloadEvaluator.workload_cost_with_usage_batch,
     ["workload", "configurations"]),
    (BipProblem.config_costs, ["batch"]),
    (BipProblem.config_costs_delta, ["chosen", "extensions"]),
]

# Plus their constructors, callers and kernels.  The constructors also
# say that nothing sizes or switches off the recommendation memo, and
# that the option builder's pricer takes a model, not a mode.
SURFACE = BOUNDARY_SURFACE + [
    (WorkloadEvaluator.__init__, ["catalog", "settings", "pool"]),
    (Designer.__init__, ["catalog", "evaluator"]),
    (CandidatePricer.__init__, ["model"]),
    (BipProblem.config_cost, ["chosen_positions"]),
    (greedy_select, ["problem"]),
    (WorkloadKernel.evaluate_many, ["views", "table_sigs", "slot_choice"]),
    (WorkloadKernel.evaluate_deltas,
     ["state", "views", "table_sigs", "slot_choice"]),
    (BipKernel.evaluate, ["batch"]),
]


def _parameters(function):
    names = list(inspect.signature(function).parameters)
    return names[1:] if names and names[0] == "self" else names


@pytest.mark.parametrize(
    "function, expected", SURFACE,
    ids=[function.__qualname__ for function, __ in SURFACE],
)
def test_signature_is_exactly_the_data_arguments(function, expected):
    names = _parameters(function)
    assert names == expected
    assert not MODE_KEYWORDS & set(names)


def test_every_component_takes_the_one_evaluator():
    """One cost model, handed over one way: every component takes the
    :class:`WorkloadEvaluator` and reads the catalog and the planner
    settings off it, so nothing can pair one catalog with a model of
    another.  ``ColtTuner``'s ``settings`` are COLT's own knobs."""
    import repro
    import repro.inum
    from repro.autopart import AutoPartAdvisor
    from repro.colt import ColtTuner
    from repro.cophy import CoPhyAdvisor
    from repro.interaction import InteractionAnalyzer
    from repro.service import TenantSession

    for function, expected in (
        (CoPhyAdvisor.__init__, ["evaluator"]),
        (AutoPartAdvisor.__init__, ["evaluator"]),
        (WhatIfSession.__init__, ["evaluator"]),
        (ColtTuner.__init__, ["evaluator", "settings"]),
        (InteractionAnalyzer.__init__, ["evaluator", "workload"]),
        (TenantSession.__init__,
         ["name", "evaluator", "colt_settings", "recommend_every", "window"]),
        (TenantSession.from_snapshot, ["state", "evaluator"]),
    ):
        names = _parameters(function)
        assert names == expected, function.__qualname__
        assert not {"catalog", "cost_model", "planner_settings"} & set(names)
    # One cost-model class: nothing else exported holds INUM entries or
    # prices slots, and the pool-free warm-up is gone with its dict.
    for package in (repro, repro.inum):
        assert not hasattr(package, "InumCostModel"), package.__name__
        models = {
            name for name in package.__all__
            if isinstance(getattr(package, name), type)
            and {"cache_for", "slot_choice"} & set(dir(getattr(package, name)))
        }
        assert models <= {"WorkloadEvaluator"}, (package.__name__, models)
    assert not hasattr(WorkloadEvaluator, "warm")
    assert WorkloadEvaluator.__bases__ == (object,)


FAN_OUT_OPTIONS = {"start_method", "threads", "warm_threads", "concurrency"}
# Bounded staleness (ISSUE 22): a knob no value of which changed an
# answer, with its epoch protocol and its three metric families.
DELETED_STALENESS = r"(?i)staleness|stale_refresh|cache_age|entry_epoch|_lease"


def test_fan_out_has_one_implementation():
    """The process pool and the runner fleet are one backplane and one
    offload executor — the same function objects under both class names
    (the ledger's per-class rows are bindings, not copies) — no option
    selects a deleted path, and either package imports first.  The
    overlap (ISSUE 19) is that one implementation, not a mode of it:
    ``warm_up`` is ``submit`` then ``collect``, one site starts threads,
    and nothing grew a parameter to switch or size it.  A connection is
    a cache, not a lease (ISSUE 22): the staleness budget is gone from
    every constructor, the CLI and the source, replaced by nothing."""
    import argparse
    import subprocess

    from repro.designer.cli import build_parser
    from repro.evaluation import ProcessPoolBackplane
    from repro.net import client
    from repro.net.client import (
        FleetBackplane,
        RemoteBackplane,
        catalog_frame_for,
    )
    from repro.runtime import ProcessStepExecutor, RemoteStepExecutor
    from repro.service import TuningService

    def own(owner, leaf):
        return inspect.unwrap(vars(owner)[leaf])

    warm_up = own(FleetBackplane, "warm_up")
    assert own(ProcessPoolBackplane, "warm_up") is warm_up
    assert own(RemoteBackplane, "warm_up") is warm_up
    assert {"submit", "collect"} <= set(warm_up.__code__.co_names)
    for leaf in ("refill", "prepare", "close"):
        assert own(ProcessStepExecutor, leaf) \
            is own(RemoteStepExecutor, leaf), leaf
    assert inspect.getsource(client).count("threading.Thread(") == 1

    for function, expected in (
        (FleetBackplane.__init__, ["evaluator", "connections", "retries"]),
        (ProcessStepExecutor.__init__, ["processes"]),
        (RemoteStepExecutor.__init__,
         ["runners", "timeout", "retries"]),
        (RemoteBackplane.__init__,
         ["evaluator", "runners", "timeout", "retries"]),
        (catalog_frame_for, ["evaluator"]),
        (FleetBackplane.warm_up, ["workload"]),
        (TuningService.run_scheduled,
         ["streams", "executor", "finish", "lookahead", "snapshot_interval",
          "state_dir", "on_snapshot"]),
    ):
        assert _parameters(function) == expected, function.__qualname__
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    assert sorted(
        flag for action in commands["serve"]._actions
        for flag in action.option_strings
    ) == [
        "--epoch", "--format", "--help", "--max-events", "--metrics-hold",
        "--metrics-port", "--offload", "--phase-length", "--pool-capacity",
        "--refresh-every", "--remote-timeout", "--runners", "--shards",
        "--snapshot-interval", "--state-dir", "--tenants", "-h",
    ]
    for path, source in _sources().items():
        assert not re.search(DELETED_STALENESS, source), path

    for function in (
        ProcessPoolBackplane.__init__, RemoteBackplane.__init__,
        ProcessStepExecutor.__init__, RemoteStepExecutor.__init__,
        WorkloadEvaluator.warm_up, TuningService.__init__,
        TuningService.warm_up, TuningService.run_scheduled,
    ):
        assert not FAN_OUT_OPTIONS & set(_parameters(function)), \
            function.__qualname__

    # ``net`` imports ``evaluation`` and ``evaluation`` imports ``net``
    # (the process backplane is a net client): each must import first.
    for package in ("repro.net", "repro.evaluation"):
        subprocess.run(
            [sys.executable, "-c", "import %s" % package],
            check=True, env=dict(os.environ, PYTHONPATH=SRC),
        )


# Push-mode intake, admission control, priorities and the dispatch log
# (ISSUE 25): a tenant is driven one way, by pulling its stream.
DELETED_INTAKE = (r"close_intake|max_pending|dispatch_log|run_streams|"
                  r"repro_scheduler_backpressure_total|priorit|pass_value")


def test_a_tenant_is_driven_one_way():
    """The scheduler pulls every tenant's stream at an equal share: no
    second intake, no knob on dispatch, no log beside the span, and no
    pass-through entry point beside ``run_scheduled``."""
    from repro.runtime import Scheduler, TenantTask
    from repro.service import TuningService

    assert _parameters(Scheduler.add) == ["name", "session", "stream",
                                          "finish"]
    assert _parameters(Scheduler.__init__) == [
        "executor", "lookahead", "snapshot_interval", "on_snapshot"]
    assert _parameters(TenantTask.__init__) == [
        "name", "session", "stream", "finish", "order"]
    for owner, gone in ((Scheduler, ("submit", "close_intake", "task")),
                        (TenantTask, ("submit", "close_intake", "ready")),
                        (TuningService, ("run_streams", "ingest"))):
        for leaf in gone:
            assert not hasattr(owner, leaf), (owner.__name__, leaf)
    sources = dict(_sources("runtime"), **_sources("service"))
    for path, source in sources.items():
        assert not re.search(DELETED_INTAKE, source), path
        # The one ``submit`` call left is the offload executor handing a
        # refill batch to its fan-out backplane, not a tenant intake.
        rest = source.replace("._backplane(evaluator).submit(", "")
        assert not re.search(r"def submit\b|\.submit\(", rest), path


def test_only_the_used_solvers_and_tenant_options_ship():
    """Three solvers, not five: branch-and-bound is the test-side
    cross-check of HiGHS (``tests/oracle.py``) and LP rounding is gone;
    ``recommend --solver`` offers exactly the advisor's table.  A tenant
    sets its stream handling, never its refresh policy, which is four
    module constants."""
    import argparse

    from repro.cophy import solvers
    from repro.cophy.advisor import SOLVERS
    from repro.designer.cli import build_parser
    from repro.service import TenantSession, tenant

    assert SOLVERS == {"milp", "greedy", "colgen"}
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    solver_flag = next(action for action in commands["recommend"]._actions
                       if "--solver" in action.option_strings)
    assert solver_flag.choices == sorted(SOLVERS)
    assert _parameters(solvers.solve_bip) == ["problem"]
    everything = "".join(_sources().values())
    for gone in ("_lp_relax", "solve_lp_rounding", "solve_branch_and_bound",
                 "max_nodes", "lp-rounding", '"bnb"'):
        assert gone not in everything, gone

    assert _parameters(TenantSession.__init__) == [
        "name", "evaluator", "colt_settings", "recommend_every", "window"]
    assert (tenant.BUDGET_FRAC, tenant.SOLVER, tenant.PARTITIONS) == (
        0.25, "greedy", False)
    assert TenantSession.partitions is False
    assert "SOLVERS" not in vars(tenant)


def test_the_program_has_one_assembler():
    """``solvers._assemble`` is the one place ``src/`` writes the BIP as
    a matrix — HiGHS's column-wise one, built with numpy, no scipy
    matrix or ``scipy.optimize`` object anywhere — and it keys a query's
    rows by slot object: a slot read by several cached plans is one row.
    The per-(plan, slot) form it replaced is
    ``tests/oracle.py:assemble_reference``, which the branch-and-bound
    and all-integer cross-checks run on."""
    from repro.cophy import solvers

    everything = "".join(_sources().values())
    assemble = inspect.getsource(solvers._assemble)
    for gone in ("import scipy", "from scipy", "csr_matrix(", "csc_array(",
                 "LinearConstraint(", "def assemble_reference"):
        assert gone not in everything, gone
    for built in ("_Matrices(", "MatrixFormat.kColwise"):
        assert everything.count(built) == 1, built
    assert "_Matrices(" in assemble
    assert "id(slot)" in assemble


DELETED_DELTA_HELPERS = {
    "_delta_column", "_touched", "_touch_groups", "_extend_state",
    "_pos_delta", "_batch_footprint", "_footprint", "_query_plan_pad",
    "_BipPosDelta", "_BipBatchFootprint", "_BipFootprint",
    "_MAX_TOUCH_GROUPS",
}


def test_delta_pricing_has_one_implementation(sdss_catalog):
    """Both kernels price on the one plan arena (ISSUE 20): the same
    class under each, none of the two retired delta machineries' helpers
    left beside it, one infeasibility raise for every pass — its message
    supplied by the owner — and a core that cannot tell who is calling:
    what differs between its owners arrives as data."""
    from repro.cophy.bip import build_bip
    from repro.cophy.candidates import candidate_indexes
    from repro.evaluation import kernel

    workload = [
        ("SELECT ra FROM photoobj WHERE ra < 10 AND type = 1", 1.0),
        ("SELECT p.ra, s.z FROM photoobj p, specobj s "
         "WHERE p.objid = s.objid AND s.z > 6.5", 1.0),
    ]
    evaluator = WorkloadEvaluator(sdss_catalog)
    candidates = candidate_indexes(sdss_catalog, workload, max_candidates=6)
    problem = build_bip(evaluator, workload, candidates, 40_000)
    arenas = (evaluator._compile(workload).kernel.arena,
              problem._compiled().arena)
    assert [type(arena) for arena in arenas] == [kernel._PlanArena] * 2

    for namespace in (WorkloadKernel, BipKernel, kernel._PlanArena, kernel):
        assert not DELETED_DELTA_HELPERS & set(vars(namespace)), namespace
    source = inspect.getsource(kernel)
    for message in ("INUM cache produced no feasible plan",
                    "BIP has an infeasible query term"):
        assert source.count(message) == 1, message
    assert source.count("raise RuntimeError") == 1

    core = inspect.getsource(kernel._PlanArena)
    assert "isinstance" not in core
    for operation, expected in (
        ("sums", ["rows"]), ("minima", ["acc"]), ("argmin", ["acc"]),
        ("footprint", ["children", "units"]),
        ("price", ["row", "acc", "n_children", "footprint", "values"]),
    ):
        names = _parameters(vars(kernel._PlanArena)[operation])
        assert names == expected, operation
        assert not (MODE_KEYWORDS | {"mode", "kind", "owner"}) & set(names)


def test_build_bip_and_colgen_share_the_one_option_builder(
        sdss_catalog, monkeypatch):
    """``build_bip`` and column generation resolve a slot's options
    through the same function object and hold no candidate loop of
    their own: every ``price`` / ``default_cost`` call of either happens
    inside ``CandidatePricer.slot_options``."""
    from repro.cophy import bip, colgen
    from repro.cophy.candidates import candidate_indexes

    assert vars(colgen)["PricedWorkload"] is vars(bip)["PricedWorkload"]
    assert "CandidatePricer" not in vars(colgen)
    pricer = bip.CandidatePricer
    builder = inspect.unwrap(vars(pricer)["slot_options"])
    inside, outside, entered = [0], [], [0]

    def counted(self, bq, slot):
        entered[0] += 1
        inside[0] += 1
        try:
            return builder(self, bq, slot)
        finally:
            inside[0] -= 1

    def guarded(real):
        def call(self, *args):
            if not inside[0]:
                outside.append(real.__name__)
            return real(self, *args)
        return call

    monkeypatch.setattr(pricer, "slot_options", counted)
    for leaf in ("price", "default_cost"):
        monkeypatch.setattr(pricer, leaf, guarded(vars(pricer)[leaf]))
    catalog = sdss_catalog
    workload = [
        ("SELECT ra FROM photoobj WHERE ra < 10 AND type = 1", 1.0),
        ("SELECT p.ra, s.z FROM photoobj p, specobj s "
         "WHERE p.objid = s.objid AND s.z > 6.5", 1.0),
        ("UPDATE photoobj SET status = 3 WHERE rmag < 14", 0.5),
    ]
    candidates = candidate_indexes(catalog, workload, max_candidates=12)
    bip.build_bip(WorkloadEvaluator(catalog), workload, candidates, 40_000)
    from_build_bip = entered[0]
    colgen.solve_colgen(WorkloadEvaluator(catalog), workload, candidates,
                        40_000)
    assert 0 < from_build_bip < entered[0]
    assert outside == []


def _sources(*parts):
    """``{path: text}`` of every ``.py`` file under ``src/repro/<parts>``."""
    found = {}
    for folder, __, names in os.walk(os.path.join(SRC, "repro", *parts)):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    found[path] = handle.read()
    return found


def test_index_selection_is_written_once(sdss_catalog, monkeypatch):
    """From slot to decision, one of each (ISSUE 21): ``build_bip`` and
    ``solve_colgen`` construct the same workload fold, column generation
    states none of the program itself, one greedy rule over one
    threshold, one slot memo whose entries carry their witness, and no
    mode keyword on the functions that price a slot."""
    from repro.cophy import bip, colgen, greedy
    from repro.cophy.candidates import candidate_indexes
    from repro.inum import cache as inum_cache

    entered = []
    construct = bip.PricedWorkload.__init__

    def spy(self, *args, **kwargs):
        entered.append(type(self))
        return construct(self, *args, **kwargs)

    monkeypatch.setattr(bip.PricedWorkload, "__init__", spy)
    workload = [
        ("SELECT ra FROM photoobj WHERE ra < 10 AND type = 1", 1.0),
        ("UPDATE photoobj SET status = 3 WHERE rmag < 14", 0.5),
    ]
    candidates = candidate_indexes(sdss_catalog, workload, max_candidates=8)
    bip.build_bip(WorkloadEvaluator(sdss_catalog), workload, candidates,
                  40_000)
    assert entered == [bip.PricedWorkload]
    colgen.solve_colgen(
        WorkloadEvaluator(sdss_catalog), workload, candidates, 40_000
    )
    assert entered == [bip.PricedWorkload] * 2

    source = inspect.getsource(colgen)
    for stated_by_the_fold in (
        "heap_write_cost", "index_maintenance_cost_per_row", "QueryTerm(",
        "forget_indexes", "workload_pairs",
    ):
        assert stated_by_the_fold not in source, stated_by_the_fold
    cophy = "".join(_sources("cophy").values())
    assert cophy.count("no feasible cached plan") == 1
    assert cophy.count("workload_pairs(workload)") == 1
    assert cophy.count("P.forget_indexes(") == 1
    # The benefit threshold: one constant, one literal, one comparison.
    assert vars(colgen)["BENEFIT_EPS"] is greedy.BENEFIT_EPS
    assert len(re.findall(r"BENEFIT_EPS = ", cophy)) == 1
    assert len(re.findall(r"benefit <= ", cophy)) == 1
    assert not re.search(r"benefit <= \d", cophy)

    everything = "".join(_sources().values())
    for deleted in ("want_choice", "_slot_costs", "_slot_choices",
                    "_payload_column", "self._payloads"):
        assert everything.count(deleted) == 0, deleted
    for function, expected in (
        (inum_cache._access_cost, ["slot", "bq", "catalog", "settings"]),
        (inum_cache._best_scan_access, ["slot", "raw_paths", "settings"]),
        (inum_cache._best_param_access, ["slot", "candidates"]),
    ):
        assert _parameters(function) == expected, function.__name__


def test_join_costing_has_one_implementation():
    """A join input is costed once per path (ISSUE 24): each method's
    formula is stated once, in ``joins.JoinCosting``, and reached from
    one place, ``_Planner._join_pair``; the one-off constructors
    (``tests/oracle.py``) are that class applied to a pair and test
    nothing for admission (their old ``admits=`` is gone — the
    planner asks its path set before it builds); and the subset dict
    an INUM build shares is a data argument of ``plan_query``, its only
    new parameter."""
    from repro.optimizer import planner

    from oracle import hashjoin_path, mergejoin_path, nestloop_path

    for constructor, expected in (
        (nestloop_path,
         ["outer", "inner", "join_clauses", "rows_out", "settings"]),
        (hashjoin_path,
         ["outer", "inner", "join_clauses", "rows_out", "settings"]),
        (mergejoin_path,
         ["outer", "inner", "join_clauses", "merge_keys_outer",
          "merge_keys_inner", "rows_out", "settings"]),
    ):
        assert _parameters(constructor) == expected, constructor.__name__
    assert _parameters(planner.plan_query) == [
        "bound_query", "catalog", "settings", "inputs", "subsets"]
    assert _parameters(planner._Planner._join_pair) == [
        "sets", "left", "right", "clauses", "rows_out", "pset"]

    sources = _sources()
    everything = "".join(sources.values())
    assert "admits=" not in everything and "_always" not in everything
    # What makes each formula its method's: stated once in src/.
    for once in (
        r"\(o\.rows - 1\.0\) \* inner_rescan",  # nested loop: rescans
        r"i\.build_cpu \+ o\.probe_cpu",  # hash join: build + probe
        r"o\.rows \+ i\.merge_rows",  # merge join: the two scans
        r"rows \* 1\.1",
        r"2\.0 \* settings\.cpu_operator_cost \* rows",  # materialize
        r"settings\.enable_nestloop", r"settings\.enable_hashjoin",
        r"settings\.enable_mergejoin",  # one DISABLE_COST branch each
    ):
        assert len(re.findall(once, everything)) == 1, once
    # The cost parts are reached from join enumeration, nowhere else in
    # src/ (the one-pair constructors are the tests').
    users = {
        os.path.relpath(path, SRC) for path, text in sources.items()
        if re.search(r"JoinCosting|\b\w+join_cost\(|nestloop_cost\(", text)
    }
    assert users == {
        os.path.join("repro", "optimizer", "joins.py"),
        os.path.join("repro", "optimizer", "planner.py"),
    }
    pair = inspect.getsource(planner._Planner._join_pair)
    rest = inspect.getsource(planner).replace(pair, "")
    assert "JoinCosting" in pair and "costing" not in rest.lower()


def test_a_slot_is_priced_once_for_its_cost_and_its_witness(
        sdss_catalog, monkeypatch):
    """The one slot memo: an entry written by the cost path answers a
    later ``slot_choice`` without a second ``_access_cost`` call, and an
    entry written by the witness path answers a later ``slot_cost``."""
    from repro.catalog import Index
    from repro.evaluation import evaluator as evaluator_module
    from repro.inum import cache as inum_cache
    from repro.whatif import Configuration

    calls = []
    real = inum_cache._access_cost

    def counted(slot, bq, catalog, settings):
        calls.append(slot)
        return real(slot, bq, catalog, settings)

    monkeypatch.setattr(evaluator_module, "_access_cost", counted)
    model = WorkloadEvaluator(sdss_catalog)
    cache = model.cache_for(
        "SELECT p.ra, s.z FROM photoobj p, specobj s "
        "WHERE p.objid = s.objid AND s.z > 6.5"
    )
    bq = cache.bound_query
    slots = list({slot for plan in cache.plans for slot in plan.slots})
    assert len(slots) > 2
    designs = [
        Configuration.of(Index("specobj", ("z",))),
        Configuration.of(Index("specobj", ("objid",)), Index("photoobj", ("objid",))),
    ]
    for first, second in (("slot_cost", "slot_choice"),
                          ("slot_choice", "slot_cost")):
        view = inum_cache._DesignView(sdss_catalog, designs.pop())
        written = [getattr(model, first)(bq, slot, view) for slot in slots]
        priced = len(calls)
        assert priced
        read = [getattr(model, second)(bq, slot, view) for slot in slots]
        assert len(calls) == priced
        costs, choices = (
            (written, read) if first == "slot_cost" else (read, written)
        )
        assert costs == [
            None if choice is None else choice[0] for choice in choices
        ]
        assert any(choice and choice[1] for choice in choices)


# ----------------------------------------------------------------------
# The ledger's boundary table resolves against the program as it is.
# ----------------------------------------------------------------------

E2E = os.path.join(ROOT, "benchmarks", "e2e")


def _load_e2e(name):
    """Import ``benchmarks/e2e/<name>.py`` under a private module name
    (``trace`` would shadow the stdlib module), with the directory on
    ``sys.path`` only while its ``from common import ...`` runs."""
    spec = importlib.util.spec_from_file_location(
        "_e2e_" + name, os.path.join(E2E, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    had_common = "common" in sys.modules
    sys.path.insert(0, E2E)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(E2E)
        if not had_common:
            sys.modules.pop("common", None)
    return module


def test_ledger_boundaries_resolve_to_plain_functions():
    layers = _load_e2e("layers")
    trace = _load_e2e("trace")
    seen = set()
    for module_name, attribute, layer, __ in layers.BOUNDARIES:
        name = "%s:%s" % (module_name, attribute)
        assert layer in layers.LAYERS, name
        owner, leaf, function = trace._resolve(module_name, attribute)
        # Found in the owner's *own* namespace (an inherited or aliased
        # method would be patched on the wrong class), and plain: no
        # staticmethod/classmethod/property wrapper, not already wrapped.
        assert vars(owner)[leaf] is function, name
        assert inspect.isfunction(function), name
        assert not hasattr(function, "__wrapped_boundary__"), name
        seen.add(name)
    assert len(seen) == len(layers.BOUNDARIES)  # no duplicate rows
    # The seven pricing rows this surface freezes are all in the table.
    for function, __ in BOUNDARY_SURFACE:
        assert "%s:%s" % (function.__module__, function.__qualname__) in seen
