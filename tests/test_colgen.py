"""Column-generation CoPhy.

One exactness pin, zero tolerance throughout:
:func:`repro.cophy.colgen.solve_colgen` must return the identical
design and objective as greedy over the exhaustively materialized BIP
(``greedy_select(build_bip(...))``) — on every SDSS and TPC-H template,
across budgets, on fuzzed environments, and while activating only a
fraction of the candidate space.  Its building blocks are pinned too:
the slot pricer against the INUM memo's ``slot_cost``, the restricted
master (the one fold's ``problem(active)``) against ``build_bip``.
"""

import random

import pytest

from repro.catalog import Index
from repro.cophy import (
    CoPhyAdvisor,
    build_bip,
    candidate_indexes,
    greedy_select,
    solve_colgen,
)
from repro.cophy.bip import CandidatePricer, PricedWorkload
from repro.evaluation import WorkloadEvaluator
from repro.inum.cache import AccessSlot, CachedPlan, QueryCache, _DesignView
from repro.optimizer import paths as P
from repro.optimizer.writecost import locate_query
from repro.sql.binder import BoundWrite
from repro.util import workload_pairs
from repro.whatif import Configuration
from repro.workloads import sdss, sdss_catalog, tpch, tpch_catalog

from oracle import check_solution
from test_evaluator_equivalence import make_env, random_write

WORKLOAD = [
    ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12", 1.0),
    ("SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1", 1.0),
    ("SELECT p.ra, s.z FROM photoobj p, specobj s "
     "WHERE p.objid = s.objid AND s.z > 6.5", 1.0),
    ("SELECT ra FROM photoobj WHERE dec > 85 ORDER BY ra LIMIT 5", 1.0),
]

WRITES = [
    ("UPDATE photoobj SET status = 3 WHERE rmag < 14", 0.5),
    ("INSERT INTO specobj VALUES (1)", 0.25),
]

TEMPLATE_ENVS = [
    (sdss.TEMPLATE_REGISTRY, lambda: sdss_catalog(scale=0.05)),
    (tpch.TEMPLATE_REGISTRY, lambda: tpch_catalog(scale=0.05)),
]


def template_workload(registry, seed=23):
    rng = random.Random(seed)
    return [
        (maker(rng), rng.choice([1.0, 2.0, 0.25]))
        for name, maker in sorted(registry.items())
    ]


def assert_same_solve(catalog, workload, candidates, budget, **kwargs):
    """The headline pin: colgen == greedy-over-exhaustive-BIP, exactly.

    Fresh models on each side so neither solve can warm the other's
    memos into a different (it could never be different — but the test
    should not even share the machinery it compares).  Column
    generation's answer is also held to the one solver specification,
    judged against the exhaustive problem it never built.
    """
    problem = build_bip(
        WorkloadEvaluator(catalog), workload, candidates, budget,
        max_indexes=kwargs.get("max_indexes"),
    )
    reference = greedy_select(problem)
    result = solve_colgen(
        WorkloadEvaluator(catalog), workload, candidates, budget, **kwargs
    )
    assert result.chosen_positions == reference.chosen_positions
    assert result.objective == reference.objective
    assert result.extra["certificate"] == "no-inactive-candidate-improves"
    check_solution(problem, result)
    return reference, result


def read_statements(model, workload):
    """The bound read statements ``build_bip`` makes query terms of:
    queries, and the locate query of every update/delete."""
    reads = []
    for sql, __ in workload_pairs(workload):
        bound = model.bound(sql)
        if not isinstance(bound, BoundWrite):
            reads.append(bound)
        elif bound.kind in ("update", "delete"):
            reads.append(locate_query(bound))
    return reads


def reference_terms(catalog, workload, candidates):
    """``[(sql, [(internal_cost, [options per slot])])]`` from the
    independent walk: one cold ``slot_cost`` per plan x slot x table
    candidate through single-index design views."""
    reference = WorkloadEvaluator(catalog)
    empty = _DesignView(catalog, Configuration.empty())
    views = [_DesignView(catalog, Configuration.of(ix)) for ix in candidates]
    terms = []
    for bound in read_statements(reference, workload):
        cache = reference.cache_for(bound)
        bq = cache.bound_query
        plans = []
        for cached in cache.plans:
            slots = []
            for slot in cached.slots:
                default = reference.slot_cost(bq, slot, empty)
                options = [] if default is None else [(-1, default)]
                for pos, ix in enumerate(candidates):
                    if ix.table_name != slot.table_name:
                        continue
                    cost = reference.slot_cost(bq, slot, views[pos])
                    if cost is not None and (
                        default is None or cost < default
                    ):
                        options.append((pos, cost))
                slots.append(options)
            if all(slots):
                plans.append((cached.internal_cost, slots))
        terms.append((bq.sql, plans))
    return terms


class TestPricer:
    """CandidatePricer == slot_cost over single-index views, pair by pair."""

    @pytest.mark.parametrize("with_base", [False, True], ids=["bare", "base-ix"])
    def test_price_matches_slot_cost(self, sdss_catalog, with_base):
        catalog = sdss_catalog
        if with_base:
            catalog = catalog.clone()
            catalog.add_index(Index("photoobj", ("ra",)))
            catalog.add_index(Index("specobj", ("z",)))
        workload = WORKLOAD + WRITES
        model = WorkloadEvaluator(catalog)
        # The pricer files its prices in its model's slot memo, so the
        # reference prices through a model of its own.
        reference = WorkloadEvaluator(catalog)
        candidates = candidate_indexes(catalog, workload, max_candidates=20)
        pricer = CandidatePricer(model)
        checked = 0
        for sql, __ in workload_pairs(workload):
            bound = model.bound(sql)
            if isinstance(bound, BoundWrite):
                if bound.kind not in ("update", "delete"):
                    continue
                bound = locate_query(bound)
            cache = model.cache_for(bound)
            bq = cache.bound_query
            for plan in cache.plans:
                for slot in plan.slots:
                    for ix in candidates:
                        if ix.table_name != slot.table_name:
                            continue
                        view = _DesignView(catalog, Configuration.of(ix))
                        assert pricer.price(bq, slot, ix) == \
                            reference.slot_cost(bq, slot, view)
                        checked += 1
        assert checked > 50

    def test_candidates_that_offer_nothing_are_answered_by_the_lead_check(
            self, sdss_catalog, monkeypatch):
        """No path group, no arm, no probe: ``price`` is the default cost
        without assembling or matching anything."""
        workload = WORKLOAD + WRITES
        model = WorkloadEvaluator(sdss_catalog)
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=20)
        pricer = CandidatePricer(model)
        slots = []
        for sql, __ in WORKLOAD:
            cache = model.cache_for(sql)
            for plan in cache.plans:
                slots.extend((cache.bound_query, slot) for slot in plan.slots)
        for bq, slot in slots:  # warm the per-slot base assembly
            pricer.price(bq, slot, Index(slot.table_name, ("objid",)))
            pricer.default_cost(bq, slot)

        def forbidden(*args, **kwargs):
            raise AssertionError("matched an index that offers nothing")

        monkeypatch.setattr(P, "_match_index", forbidden)
        monkeypatch.setattr(P, "bitmap_and_path", forbidden)
        skipped = 0
        for bq, slot in slots:
            ctx = P.scan_context(bq, slot.alias, pricer.default_view)
            interesting = {slot.required_order} - {None}
            for ix in candidates:
                if ix.table_name != slot.table_name:
                    continue
                offers = (
                    P.offers_probe_path(ctx, ix, slot.param_columns)
                    if slot.param_columns
                    else P.offers_scan_paths(ctx, ix, interesting)
                )
                if not offers:
                    assert pricer.price(bq, slot, ix) == \
                        pricer.default_cost(bq, slot)
                    skipped += 1
        assert skipped > 20

    def test_a_warm_model_answers_a_second_build_from_its_slot_memo(
            self, sdss_catalog, monkeypatch):
        """Prices are filed under the single-index design's slot-memo
        key: an online refresh over a warm evaluator re-prices nothing,
        and whoever prices a single-index design next finds it there."""
        workload = WORKLOAD + WRITES
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=14)
        model = WorkloadEvaluator(sdss_catalog)
        first = build_bip(model, workload, candidates, 40_000)

        def forbidden(*args, **kwargs):
            raise AssertionError("re-priced a pair the slot memo holds")

        # build_bip released the pool's path groups, so pricing any pair
        # again would have to match its index again.
        monkeypatch.setattr(P, "_match_index", forbidden)
        second = build_bip(model, workload, candidates, 40_000)
        assert second.queries == first.queries
        for ix in candidates:
            assert model.workload_cost(WORKLOAD, Configuration.of(ix)) > 0

    def test_build_bip_options_are_the_single_index_view_prices(
            self, sdss_catalog):
        """``build_bip`` prices through the pricer; its options are still
        exactly what the single-index design views price cold."""
        workload = WORKLOAD + WRITES
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=14)
        model = WorkloadEvaluator(sdss_catalog)
        problem = build_bip(model, workload, candidates, 40_000)
        reference = WorkloadEvaluator(sdss_catalog)
        empty = _DesignView(sdss_catalog, Configuration.empty())
        views = [
            _DesignView(sdss_catalog, Configuration.of(ix)) for ix in candidates
        ]
        checked = 0
        reads = []
        for sql, __ in workload:
            bound = reference.bound(sql)
            if not isinstance(bound, BoundWrite):
                reads.append(bound)
            elif bound.kind in ("update", "delete"):
                reads.append(locate_query(bound))
        assert len(reads) == len(problem.queries)
        for term, bound in zip(problem.queries, reads):
            cache = reference.cache_for(bound)
            bq = cache.bound_query
            assert bq.sql == term.sql
            expected_plans = []
            for cached in cache.plans:
                slots = []
                for slot in cached.slots:
                    default = reference.slot_cost(bq, slot, empty)
                    options = [] if default is None else [(-1, default)]
                    for pos, ix in enumerate(candidates):
                        if ix.table_name != slot.table_name:
                            continue
                        cost = reference.slot_cost(bq, slot, views[pos])
                        if cost is not None and (
                            default is None or cost < default
                        ):
                            options.append((pos, cost))
                    slots.append(options)
                if all(slots):
                    expected_plans.append((cached.internal_cost, slots))
            assert [
                (plan.internal_cost, [slot.options for slot in plan.slots])
                for plan in term.plans
            ] == expected_plans
            checked += sum(len(o) for __, slots in expected_plans for o in slots)
        assert checked > 20

    @pytest.mark.parametrize(
        "env", ["fuzz-0", "fuzz-1", "fuzz-6", "fuzz-7", "tpch"]
    )
    def test_build_bip_options_hold_on_fuzzed_writes_and_tpch(self, env):
        """The same independent walk (one ``slot_cost`` per plan x slot
        x table candidate through single-index design views) on fuzzed
        catalogs with write statements, base indexes included, and on
        the TPC-H templates."""
        if env == "tpch":
            catalog = tpch_catalog(scale=0.05)
            workload = template_workload(tpch.TEMPLATE_REGISTRY)
        else:
            catalog, workload, configs = make_env(
                int(env[-1]), write_fraction=0.3
            )
            catalog = configs[-1].apply(catalog)  # a non-empty base design
            assert any(isinstance(WorkloadEvaluator(catalog).bound(sql), BoundWrite)
                       for sql, __ in workload)
        candidates = candidate_indexes(catalog, workload, max_candidates=24)
        problem = build_bip(WorkloadEvaluator(catalog), workload, candidates, 10**9)
        expected = reference_terms(catalog, workload, candidates)
        assert [
            (term.sql, [
                (plan.internal_cost, [slot.options for slot in plan.slots])
                for plan in term.plans
            ])
            for term in problem.queries
        ] == expected
        assert sum(
            len(options) for __, plans in expected
            for __, slots in plans for options in slots
        ) > 10

    @pytest.mark.parametrize(
        "registry, make_catalog", TEMPLATE_ENVS, ids=["sdss", "tpch"]
    )
    def test_reach_columns_is_the_column_form_of_the_offers_predicates(
            self, registry, make_catalog):
        """The reach set the option builder filters by is exactly the
        two predicates the planner, the slot key and ``price`` apply:
        column by column, on every slot of every template."""
        catalog = make_catalog()
        model = WorkloadEvaluator(catalog)
        view = _DesignView(catalog, Configuration.empty())
        probes = scans = 0
        for bound in read_statements(model, template_workload(registry)):
            cache = model.cache_for(bound)
            bq = cache.bound_query
            for slot in {s for plan in cache.plans for s in plan.slots}:
                ctx = P.scan_context(bq, slot.alias, view)
                order = {slot.required_order} - {None}
                leads = P.reach_columns(ctx, order, slot.param_columns)
                for column in ctx.table.column_names:
                    ix = Index(slot.table_name, (column,))
                    offers = (
                        P.offers_probe_path(ctx, ix, slot.param_columns)
                        if slot.param_columns
                        else P.offers_scan_paths(ctx, ix, order)
                    )
                    assert (column in leads) == offers, (bq.sql, slot, column)
                probes += bool(slot.param_columns)
                scans += not slot.param_columns
        assert scans > 5
        assert probes or registry is tpch.TEMPLATE_REGISTRY  # no NL inner

    def test_price_is_entered_once_per_slot_and_reaching_candidate(
            self, sdss_with_indexes, monkeypatch):
        """The option builder's work, counted: ``price`` runs once per
        distinct (statement, slot, candidate whose lead column reaches
        the slot) — never per cached plan sharing the slot, never for a
        candidate ``offers_scan_paths`` / ``offers_probe_path`` turn
        away — while ``pricings`` still counts every pair answered."""
        catalog = sdss_with_indexes
        workload = WORKLOAD + WRITES + WORKLOAD[:1]  # one repeated statement
        candidates = candidate_indexes(catalog, workload, max_candidates=24)
        model = WorkloadEvaluator(catalog)
        view = _DesignView(catalog, Configuration.empty())
        entered = []
        real_price = CandidatePricer.price

        def spy(self, bq, slot, index):
            entered.append((bq.sql, slot, index))
            return real_price(self, bq, slot, index)

        monkeypatch.setattr(CandidatePricer, "price", spy)
        priced = PricedWorkload(model, workload, candidates, 40_000)
        build_bip(WorkloadEvaluator(catalog), workload, candidates, 40_000)
        expected, answered, visits = set(), 0, 0
        for bound in read_statements(model, workload):
            cache = model.cache_for(bound)
            bq = cache.bound_query
            visits += sum(len(plan.slots) for plan in cache.plans)
            for slot in {s for plan in cache.plans for s in plan.slots}:
                ctx = P.scan_context(bq, slot.alias, view)
                on_table = [
                    ix for ix in candidates if ix.table_name == slot.table_name
                ]
                if (bq.sql, slot) not in {(q, s) for q, s, __ in expected}:
                    answered += len(on_table)
                for ix in on_table:
                    offers = (
                        P.offers_probe_path(ctx, ix, slot.param_columns)
                        if slot.param_columns else P.offers_scan_paths(
                            ctx, ix, {slot.required_order} - {None}
                        )
                    )
                    if offers:
                        expected.add((bq.sql, slot, ix))
        # The fold and build_bip each price every expected triple once.
        assert sorted(entered, key=repr) == sorted(
            list(expected) * 2, key=repr
        )
        assert priced.pricer.pricings == answered
        assert len(expected) < answered  # some candidates reach nothing
        assert len({(q, s) for q, s, __ in expected}) < visits  # shared slots

    def test_infeasible_default_with_no_reaching_candidate_drops_the_plan(
            self, sdss_catalog):
        """A probe slot no base index serves (``default is None``) whose
        table candidates all fail the reach rule has no option at all:
        the plan is dropped, exactly as when every such candidate was
        priced to ``None``."""
        sql = WORKLOAD[2][0]
        lame = [Index("specobj", ("zerr",)), Index("photoobj", ("rmag",))]

        def model_with(plans):
            model = WorkloadEvaluator(sdss_catalog)
            bq = model.bound(sql)
            model.pool.get_or_build(
                bq.sql,
                lambda: QueryCache.from_plan_terms(bq, plans),
            )
            return model

        scan = CachedPlan(10.0, (
            AccessSlot("p", "photoobj"), AccessSlot("s", "specobj"),
        ), ())
        probe = CachedPlan(1.0, (
            AccessSlot("p", "photoobj"),
            AccessSlot("s", "specobj", param_columns=("objid",), probes=5.0),
        ), ())
        pricer = CandidatePricer(model_with([probe]))
        pricer.set_candidates(lame)
        default, options = pricer.slot_options(
            pricer.model.bound(sql), probe.slots[1]
        )
        assert (default, options) == (None, [])
        problem = build_bip(
            model_with([probe, scan]), [(sql, 1.0)], lame, 40_000
        )
        assert [plan.internal_cost for plan in problem.queries[0].plans] \
            == [10.0]
        with pytest.raises(RuntimeError, match="no feasible cached plan"):
            build_bip(model_with([probe]), [(sql, 1.0)], lame, 40_000)
        # A candidate that does reach the probe brings the plan back.
        reaching = lame + [Index("specobj", ("objid",))]
        problem = build_bip(
            model_with([probe, scan]), [(sql, 1.0)], reaching, 40_000
        )
        assert [plan.internal_cost for plan in problem.queries[0].plans] \
            == [1.0, 10.0]
        assert [pos for pos, __ in
                problem.queries[0].plans[0].slots[1].options] == [2]

    def test_restricted_master_equals_build_bip(self, sdss_catalog):
        """The restricted master is the one fold's ``problem(active)``:
        with every candidate active it is ``build_bip``'s problem — same
        structure, same floats, term by term — and for a strict subset
        it is that problem with the inactive options filtered out."""
        workload = WORKLOAD + WRITES
        candidates = candidate_indexes(
            sdss_catalog, workload, max_candidates=14
        )
        budget = 40_000
        full = build_bip(
            WorkloadEvaluator(sdss_catalog), workload, candidates, budget
        )
        priced = PricedWorkload(
            WorkloadEvaluator(sdss_catalog), workload, candidates, budget
        )

        def filtered(active):
            """``full`` without the inactive options, and without the
            plans that leaves with an option-less slot."""
            out = []
            for term in full.queries:
                plans = [
                    (plan.internal_cost, [
                        [(pos, cost) for pos, cost in slot.options
                         if pos == -1 or pos in active]
                        for slot in plan.slots
                    ])
                    for plan in term.plans
                ]
                out.append((term.weight, term.sql, [
                    (internal, slots) for internal, slots in plans
                    if all(slots)
                ]))
            return out

        def terms(problem):
            return [
                (term.weight, term.sql, [
                    (plan.internal_cost, [slot.options for slot in plan.slots])
                    for plan in term.plans
                ])
                for term in problem.queries
            ]

        everyone = set(range(len(candidates)))
        assert priced.problem().queries == full.queries
        for active in (everyone, set(), {0, 3, 4, 9}):
            restricted = priced.problem(active)
            assert restricted.candidates == full.candidates
            assert restricted.sizes == full.sizes
            assert restricted.write_base_cost == full.write_base_cost
            assert restricted.index_penalties == full.index_penalties
            assert terms(restricted) == filtered(active)
        assert any(full.index_penalties)
        dropped = sum(len(term.plans) for term in full.queries) - sum(
            len(term.plans) for term in priced.problem(set()).queries
        )
        assert dropped > 0  # a plan only a candidate serves, filtered away


class TestSolveColgen:
    @pytest.mark.parametrize("divisor", [2, 3, 5, 10, 100])
    def test_matches_greedy_across_budgets(self, sdss_catalog, divisor):
        workload = WORKLOAD + WRITES
        candidates = candidate_indexes(
            sdss_catalog, workload, max_candidates=14
        )
        total = sum(
            ix.size_pages(sdss_catalog.table(ix.table_name))
            for ix in candidates
        )
        assert_same_solve(
            sdss_catalog, workload, candidates, total // divisor
        )

    def test_matches_greedy_with_max_indexes(self, sdss_catalog):
        candidates = candidate_indexes(
            sdss_catalog, WORKLOAD, max_candidates=14
        )
        assert_same_solve(
            sdss_catalog, WORKLOAD, candidates, 200_000, max_indexes=2
        )

    def test_matches_greedy_with_base_indexes(self, sdss_with_indexes):
        workload = WORKLOAD + WRITES
        candidates = candidate_indexes(
            sdss_with_indexes, workload, max_candidates=20
        )
        assert_same_solve(sdss_with_indexes, workload, candidates, 50_000)

    @pytest.mark.parametrize(
        "registry, make_catalog", TEMPLATE_ENVS, ids=["sdss", "tpch"]
    )
    def test_every_template_solves_identically(self, registry, make_catalog):
        """The acceptance pin: identical design and objective on every
        SDSS and TPC-H template mix, activating only part of the space."""
        catalog = make_catalog()
        workload = template_workload(registry)
        candidates = candidate_indexes(catalog, workload, max_candidates=40)
        total = sum(
            ix.size_pages(catalog.table(ix.table_name)) for ix in candidates
        )
        for divisor in (2, 4):
            __, result = assert_same_solve(
                catalog, workload, candidates, total // divisor
            )
            assert result.extra["activated"] <= len(candidates)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fuzzed_catalogs(self, seed):
        catalog, workload, __ = make_env(seed, write_fraction=0.2)
        candidates = candidate_indexes(catalog, workload, max_candidates=16)
        if not candidates:
            pytest.skip("fuzzed workload produced no candidates")
        total = sum(
            ix.size_pages(catalog.table(ix.table_name)) for ix in candidates
        )
        rng = random.Random(seed + 99)
        budget = total // rng.choice([2, 3, 5])
        assert_same_solve(catalog, workload, candidates, budget)

    def test_activates_a_fraction_at_scale(self, sdss_catalog):
        """With many near-duplicate candidates the bound must keep most
        of them out of the master (the acceptance criterion's shape —
        the full 5k-candidate version runs in the claim benchmark)."""
        mined = candidate_indexes(sdss_catalog, WORKLOAD, max_candidates=None)
        extra = []
        for ix in mined:
            table = sdss_catalog.table(ix.table_name)
            names = [c.name for c in table.columns]
            for other in names:
                if other not in ix.columns and len(extra) < 60:
                    extra.append(
                        Index(ix.table_name, ix.columns, include=(other,))
                    )
        candidates = mined + [ix for ix in extra if ix not in mined]
        assert len(candidates) >= 40
        total = sum(
            ix.size_pages(sdss_catalog.table(ix.table_name))
            for ix in candidates
        )
        __, result = assert_same_solve(
            sdss_catalog, WORKLOAD, candidates, total // 4
        )
        assert result.extra["activated"] < len(candidates)

    def test_advisor_colgen_equals_greedy(self, sdss_catalog):
        greedy = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog)).recommend(
            WORKLOAD + WRITES, budget_pages=40_000, solver="greedy",
            max_candidates=14,
        )
        colgen = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog)).recommend(
            WORKLOAD + WRITES, budget_pages=40_000, solver="colgen",
            max_candidates=14,
        )
        assert [ix.name for ix in colgen.indexes] == \
            [ix.name for ix in greedy.indexes]
        assert colgen.predicted_workload_cost == \
            greedy.predicted_workload_cost
        assert colgen.base_workload_cost == greedy.base_workload_cost
        assert colgen.size_pages == greedy.size_pages
        assert colgen.stats["solve_extra"]["rounds"] >= 1

    def test_counters_and_span_recorded(self, sdss_catalog):
        from repro import obs

        candidates = candidate_indexes(
            sdss_catalog, WORKLOAD, max_candidates=10
        )
        solve_colgen(
            WorkloadEvaluator(sdss_catalog), WORKLOAD, candidates, 40_000
        )
        names = set(obs.metrics().snapshot()["counters"])
        assert "repro_colgen_rounds_total" in names
        assert "repro_colgen_activated_total" in names
        assert "repro_colgen_priced_total" in names


class TestCandidateIndexes:
    def test_a_cap_is_a_prefix_of_the_ranked_space(self, sdss_catalog):
        space = candidate_indexes(sdss_catalog, WORKLOAD, max_candidates=None)
        assert len(space) > 10
        for cap in (0, 3, 7, len(space), len(space) + 5):
            assert candidate_indexes(
                sdss_catalog, WORKLOAD, max_candidates=cap
            ) == space[:cap]

    def test_emitted_names_match_index_autonames(self, sdss_catalog):
        for ix in candidate_indexes(sdss_catalog, WORKLOAD, max_candidates=10):
            rebuilt = Index(
                ix.table_name, ix.columns, include=ix.include
            )
            assert ix == rebuilt and ix.name == rebuilt.name
