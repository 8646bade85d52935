"""Design-invariant scan pricing: the scan-context / path-group memo.

Everything in scan pricing that does not depend on the secondary-index
set is computed once per (bound query, alias, vertical layout,
horizontal partitioning) and shared (``optimizer/paths.py``:
``ScanContext``, owned by ``BoundQuery.scan_contexts``).  The memo is a pure
cache, never a different cost model, so this suite pins

(a) memoized == fresh, *exactly*, for every SDSS/TPC-H template under
    fuzzed index sets, vertical layouts and horizontal partitionings —
    planner cost, INUM slot cost / slot choice, and colgen's
    ``CandidatePricer``;
(b) different covers and partitionings never share a context;
(b') a vertical layout reaches a table reference only through its
    *cover*: layouts with one cover share one context, covers of one
    weight share one slot-memo entry, and ``explain`` still names the
    fragments actually read;
(c) the work actually goes away (call counts, no wall clock);
(d) the two memos keyed on a design's *projection* onto a table
    reference (``paths.reaching_indexes``): the exact-path plan memo
    behind ``CostService.plan`` and INUM's slot memo — memoized == cold,
    an index that cannot reach a statement costs no planner call and
    returns the identical plan object, and everything a plan reads
    (planner settings, the cover, index order) is in the key;
(e) the set cover of a table reference is memoized on the layout by
    the referenced columns: the statements of one template share one,
    and it is each statement's own ``fragments_for``;
(f) what the memos keep of a design exists once: every slot-memo key's
    index set, every witness and every kernel design-signature set is
    the evaluator's sharing table's object (``memos.SHARED``), and one
    INUM build, or one decoded wire entry, holds one object per
    distinct access slot and slot tuple;
and that memoized plan nodes, now shared between plans, are never
mutated after construction.
"""

import dataclasses
import functools
import random
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import (
    HorizontalPartitioning,
    Index,
    VerticalFragment,
    VerticalLayout,
)
from repro.catalog import stats as stats_module
from repro.cophy import candidate_indexes
from repro.cophy.bip import CandidatePricer, build_bip
from repro.evaluation import WorkloadEvaluator, wire
from repro.evaluation import evaluator as evaluator_module
from repro.inum.cache import (
    AccessSlot,
    _access_cost,
    _DesignView,
    _slot_key,
    build_cache,
)
from repro.optimizer import CostService
from repro.optimizer import paths as P
from repro.optimizer import plan_query
from repro.optimizer import service as service_module
from repro.optimizer.settings import DEFAULT_SETTINGS
from repro.optimizer.writecost import locate_query
from repro.sql.binder import BoundWrite, bind_statement
from repro.whatif import Configuration
from repro.workloads import sdss, tpch
from repro.workloads import sdss_catalog as full_sdss_catalog
from repro.workloads import tpch_catalog

ENVIRONMENTS = pytest.mark.parametrize(
    "registry, make_catalog",
    [
        (sdss.TEMPLATE_REGISTRY, lambda: full_sdss_catalog(scale=0.05)),
        (tpch.TEMPLATE_REGISTRY, lambda: tpch_catalog(scale=0.05)),
    ],
    ids=["sdss", "tpch"],
)

# Against the conftest ``sdss_catalog`` fixture (photoobj + specobj).
TWO_TABLE_SQL = (
    "SELECT p.objid, s.z FROM photoobj p, specobj s "
    "WHERE p.objid = s.objid AND p.rmag < 19.5 AND p.type = 3 "
    "AND s.z BETWEEN 0.1 AND 0.4"
)

THREE_TABLE_SQL = (
    "SELECT p.objid, s.z, f.seeing FROM photoobj p, specobj s, field f "
    "WHERE p.objid = s.bestobjid AND p.fieldid = f.fieldid "
    "AND s.z BETWEEN 0.1 AND 0.4 AND f.quality = 2 AND p.type = 3 "
    "AND p.rmag < 19.5"
)


def bind_read(sql, catalog):
    """A freshly bound read — so with an empty scan memo — for *sql*
    (writes contribute their locate query)."""
    bound = bind_statement(sql, catalog)
    return locate_query(bound) if isinstance(bound, BoundWrite) else bound


def cold_cost(slot, bq, view, settings):
    """The cost half of a cold ``_access_cost`` (``None``: infeasible)."""
    return cost_of(_access_cost(slot, bq, view, settings))


def cost_of(choice):
    return None if choice is None else choice[0]


def read_statements(registry, catalog, seed=23):
    """One statement per template (pure inserts price no scan)."""
    rng = random.Random(seed)
    sqls = [maker(rng) for __, maker in sorted(registry.items())]
    return [sql for sql in sqls if not sql.upper().startswith("INSERT")]


def random_layout(rng, table):
    columns = list(table.column_names)
    rng.shuffle(columns)
    cut = rng.randint(1, len(columns) - 1)
    return VerticalLayout(
        table.name,
        (
            VerticalFragment(table.name, tuple(columns[:cut])),
            VerticalFragment(table.name, tuple(columns[cut:])),
        ),
    )


def random_horizontal(rng, table):
    numeric = [
        c.name for c in table.columns
        if isinstance(table.stats(c.name).min_value, (int, float))
        and table.stats(c.name).max_value > table.stats(c.name).min_value
    ]
    column = rng.choice(numeric)
    stats = table.stats(column)
    lo, hi = float(stats.min_value), float(stats.max_value)
    n = rng.randint(1, 5)
    bounds = tuple(lo + (hi - lo) * (i + 1) / (n + 1) for i in range(n))
    return HorizontalPartitioning(table.name, column, bounds)


def fuzzed_configurations(rng, catalog, workload, n=10):
    candidates = candidate_indexes(catalog, workload, max_candidates=16)
    tables = [t for t in catalog.tables if len(t.column_names) >= 2]
    configs = [Configuration.empty()]
    for __ in range(n):
        indexes = frozenset(
            rng.sample(candidates, rng.randint(0, min(4, len(candidates))))
        )
        layouts = horizontals = ()
        if rng.random() < 0.5:
            layouts = (random_layout(rng, rng.choice(tables)),)
        if rng.random() < 0.5:
            horizontals = (random_horizontal(rng, rng.choice(tables)),)
        configs.append(Configuration(
            indexes=indexes, layouts=layouts, horizontals=horizontals
        ))
    return configs


# ----------------------------------------------------------------------
# (a) memoized == fresh.
# ----------------------------------------------------------------------


@ENVIRONMENTS
def test_planner_memoized_equals_fresh(registry, make_catalog):
    catalog = make_catalog()
    sqls = read_statements(registry, catalog)
    configs = fuzzed_configurations(random.Random(5), catalog, sqls)
    warm = {sql: bind_read(sql, catalog) for sql in sqls}
    for config in configs + configs:  # second sweep: every memo is hot
        overlay = config.apply(catalog)
        for sql in sqls:
            hot = plan_query(warm[sql], overlay)
            cold = plan_query(bind_read(sql, catalog), overlay)
            assert hot.total_cost == cold.total_cost
            assert hot.explain() == cold.explain()
    assert all(bq.scan_contexts for bq in warm.values())


@ENVIRONMENTS
def test_slot_pricing_memoized_equals_fresh(registry, make_catalog, monkeypatch):
    """The slot memo keys on the design's projection onto the slot
    (``_slot_key``): every price ``==`` a cold ``_access_cost``, and the
    model prices at most once per distinct projected key."""
    catalog = make_catalog()
    sqls = read_statements(registry, catalog)
    configs = fuzzed_configurations(random.Random(6), catalog, sqls)
    model = WorkloadEvaluator(catalog)
    model_calls = []

    def counting_access_cost(*args):
        model_calls.append(args)
        return _access_cost(*args)

    # The model resolves the name at call time; the cold references
    # below call the original.
    monkeypatch.setattr(evaluator_module, "_access_cost", counting_access_cost)
    keys, full_signatures = set(), set()
    priced = 0
    for config in configs + configs:
        view = _DesignView(catalog, config)
        for sql in sqls:
            cache = model.cache_for(bind_read(sql, catalog))
            bq = cache.bound_query
            for cached in cache.plans:
                for slot in cached.slots:
                    signature = view.design_signature(slot.table_name)
                    keys.add((bq.sql, _slot_key(bq, slot, view, signature,
                                                model._shared)))
                    full_signatures.add((bq.sql, slot, signature))
                    cold = _access_cost(
                        slot, bind_read(sql, catalog), view, model.settings
                    )
                    assert model.slot_choice(bq, slot, view) == cold
                    assert model.slot_cost(bq, slot, view) == cost_of(cold)
                    priced += 1
    assert priced
    # One memo: the cost and the choice of a key share one pricing.
    assert len(model_calls) <= len(keys)
    # The projection is what saves the work, not the fuzz being small.
    assert len(keys) < len(full_signatures)


@ENVIRONMENTS
def test_candidate_pricer_equals_cold_single_index_view(registry, make_catalog):
    catalog = make_catalog()
    sqls = read_statements(registry, catalog)
    candidates = candidate_indexes(catalog, sqls, max_candidates=24)
    model = WorkloadEvaluator(catalog)
    pricer = CandidatePricer(model)
    for sql in sqls:
        cache = model.cache_for(bind_read(sql, catalog))
        for cached in cache.plans:
            for slot in cached.slots:
                for index in candidates:
                    if index.table_name != slot.table_name:
                        continue
                    view = _DesignView(catalog, Configuration.of(index))
                    cold = _access_cost(
                        slot, bind_read(sql, catalog), view, model.settings
                    )
                    assert pricer.price(
                        cache.bound_query, slot, index
                    ) == cost_of(cold)
                    # ... filed where the model looks, witness included.
                    assert model.slot_choice(
                        cache.bound_query, slot, view
                    ) == cold
    assert pricer.pricings
    assert not hasattr(pricer, "_ctx") and not hasattr(pricer, "_groups")


def test_contexts_are_shared_across_index_only_designs(sdss_catalog):
    bq = bind_statement(TWO_TABLE_SQL, sdss_catalog)
    base = P.scan_context(bq, "p", sdss_catalog)
    overlay = sdss_catalog.clone()
    overlay.add_index(Index("photoobj", ("rmag",)))
    assert P.scan_context(bq, "p", overlay) is base
    view = _DesignView(
        sdss_catalog, Configuration.of(Index("photoobj", ("type", "rmag")))
    )
    assert P.scan_context(bq, "p", view) is base
    assert len(bq.scan_contexts) == 1


# ----------------------------------------------------------------------
# (b) one context per cover and partitioning.
# ----------------------------------------------------------------------


def test_different_covers_and_partitionings_never_share_a_context(sdss_catalog):
    bq = bind_statement(TWO_TABLE_SQL, sdss_catalog)
    table = sdss_catalog.table("photoobj")
    rng = random.Random(3)
    layout_a, layout_b = random_layout(rng, table), random_layout(rng, table)
    assert layout_a != layout_b
    horizontal = HorizontalPartitioning("photoobj", "rmag", (18.0, 20.0, 22.0))

    def context(**design):
        return P.scan_context(
            bq, "p", Configuration(**design).apply(sdss_catalog)
        )

    contexts = [
        context(),
        context(layouts=(layout_a,)),
        context(layouts=(layout_b,)),
        context(horizontals=(horizontal,)),
        context(layouts=(layout_a,), horizontals=(horizontal,)),
    ]
    assert len({id(c) for c in contexts}) == len(contexts)
    assert contexts[1].geometry.fragments != contexts[2].geometry.fragments
    assert contexts[3].geometry.partitions_total == 4
    # ... and each is found again under an equal design.
    assert context(layouts=(layout_a,)) is contexts[1]
    assert context(horizontals=(horizontal,)) is contexts[3]
    # The other alias's table has no layout: one shared context.
    assert len({k for k in bq.scan_contexts if k[0] == "s"}) <= 1


# ----------------------------------------------------------------------
# (b') contexts key on the cover, slot costs on the cover's geometry.
# ----------------------------------------------------------------------

# TWO_TABLE_SQL reads objid, rmag and type of photoobj.
HOT = ("objid", "rmag", "type")
COLD = (("ra", "dec"), ("gmag", "flags", "status"))


def photo_layout(*groups):
    return VerticalLayout(
        "photoobj", tuple(VerticalFragment("photoobj", g) for g in groups)
    )


def photo_view(catalog, layout):
    return _DesignView(catalog, Configuration(layouts=(layout,)))


def test_layouts_with_one_cover_share_context_and_slot_memo(sdss_catalog):
    split = photo_layout(HOT, *COLD)
    merged = photo_layout(HOT, COLD[0] + COLD[1])  # a merge p never reads
    assert split != merged
    model = WorkloadEvaluator(sdss_catalog)
    cache = model.cache_for(bind_statement(TWO_TABLE_SQL, sdss_catalog))
    bq = cache.bound_query
    slots = [slot for cached in cache.plans for slot in cached.slots]

    def price(layout):
        view = photo_view(sdss_catalog, layout)
        return [
            (model.slot_cost(bq, slot, view), model.slot_choice(bq, slot, view))
            for slot in slots
        ]

    first = price(split)
    context = P.scan_context(bq, "p", photo_view(sdss_catalog, split))
    entries = len(model._slot_memo[bq.sql])
    assert price(merged) == first
    assert P.scan_context(bq, "p", photo_view(sdss_catalog, merged)) is context
    assert entries == len(model._slot_memo[bq.sql])
    # ... and what the shared entries hold is a cold recomputation.
    view = photo_view(sdss_catalog, merged)
    for slot, (cost, choice) in zip(slots, first):
        fresh = bind_statement(TWO_TABLE_SQL, sdss_catalog)
        assert cost == cold_cost(slot, fresh, view, model.settings)
        assert choice == _access_cost(slot, fresh, view, model.settings)


def test_covers_of_one_weight_share_slot_costs_but_not_contexts(sdss_catalog):
    """Costs read only (pages, fragment count) of a cover; contexts hold
    plan nodes that *name* the fragments, so they key on the cover."""
    split = photo_layout(HOT, *COLD)
    reordered = photo_layout(HOT[::-1], *COLD)  # same columns, another fragment
    model = WorkloadEvaluator(sdss_catalog)
    cache = model.cache_for(bind_statement(TWO_TABLE_SQL, sdss_catalog))
    bq = cache.bound_query
    assert P.layout_cover(bq, "p", split)[0] != P.layout_cover(bq, "p", reordered)[0]
    assert P.layout_cover(bq, "p", split)[1] == P.layout_cover(bq, "p", reordered)[1]
    slots = [slot for cached in cache.plans for slot in cached.slots]
    view_a = photo_view(sdss_catalog, split)
    view_b = photo_view(sdss_catalog, reordered)
    costs = [model.slot_cost(bq, slot, view_a) for slot in slots]
    entries = len(model._slot_memo[bq.sql])
    assert [model.slot_cost(bq, slot, view_b) for slot in slots] == costs
    assert len(model._slot_memo[bq.sql]) == entries
    for slot, cost in zip(slots, costs):
        fresh = bind_statement(TWO_TABLE_SQL, sdss_catalog)
        assert cost == cold_cost(slot, fresh, view_b, model.settings)
    assert P.scan_context(bq, "p", view_a) is not P.scan_context(bq, "p", view_b)
    # A heavier cover is a different key and a different price.
    heavier = photo_view(sdss_catalog, photo_layout(HOT + COLD[0], COLD[1]))
    scan = next(s for s in slots if s.alias == "p" and not s.param_columns)
    assert model.slot_cost(bq, scan, heavier) > model.slot_cost(bq, scan, view_a)
    assert len(model._slot_memo[bq.sql]) > entries


def test_explain_names_the_fragments_of_the_layout_it_planned(sdss_catalog):
    sql = "SELECT objid, rmag FROM photoobj WHERE type = 3"
    layouts = [
        photo_layout(HOT, *COLD),
        photo_layout(HOT, COLD[0] + COLD[1]),  # same cover
        photo_layout(HOT[::-1], *COLD),  # same weight, other fragment
        photo_layout(("objid", "rmag"), ("type",) + COLD[0], COLD[1]),
    ]
    bq = bind_statement(sql, sdss_catalog)
    for layout in layouts + layouts:  # second sweep: every memo is hot
        overlay = Configuration(layouts=(layout,)).apply(sdss_catalog)
        hot = plan_query(bq, overlay)
        cold = plan_query(bind_statement(sql, sdss_catalog), overlay)
        assert hot.explain() == cold.explain()
        assert hot.total_cost == cold.total_cost
        read = layout.fragments_for({"objid", "rmag", "type"})
        text = ", ".join("{%s}" % ",".join(f.columns) for f in read)
        assert "fragments %s" % text in hot.explain()


def test_forgetting_indexes_skips_cover_entries(sdss_catalog):
    """Cover entries live on the layout; ``forget_indexes`` releases the
    index from the contexts and leaves the covers."""
    catalog = sdss_catalog.clone()
    index = Index("photoobj", ("rmag",))
    catalog.add_index(index)
    bq = bind_statement(TWO_TABLE_SQL, catalog)
    layout = photo_layout(HOT, *COLD)
    overlay = Configuration(layouts=(layout,)).apply(catalog)
    before = plan_query(bq, overlay).total_cost
    assert bq.scan_contexts and layout._covers
    covers = dict(layout._covers)
    P.forget_indexes(bq, {index})
    assert layout._covers == covers
    assert plan_query(bq, overlay).total_cost == before


# ----------------------------------------------------------------------
# (c) the work goes away: counts, not wall clock.
# ----------------------------------------------------------------------


def test_selectivity_work_is_per_filter_not_per_configuration(monkeypatch):
    catalog = full_sdss_catalog(scale=0.05)
    bq = bind_statement(THREE_TABLE_SQL, catalog)
    assert len(bq.aliases) == 3
    n_filters = sum(len(bq.filters_for(a)) for a in bq.aliases)
    candidates = candidate_indexes(catalog, [THREE_TABLE_SQL], max_candidates=30)
    rng = random.Random(11)
    configs = [
        Configuration(indexes=frozenset(rng.sample(candidates, rng.randint(1, 5))))
        for __ in range(20)
    ]
    assert len(set(configs)) > 10

    # Histogram key vectors are derived once per ColumnStats; warm them
    # so the counter below sees only per-filter work.
    plan_query(bind_statement(THREE_TABLE_SQL, catalog), catalog)

    calls = {"filter_selectivity": 0, "_as_key": 0}
    real_selectivity = P.filter_selectivity
    real_as_key = stats_module._as_key

    def counting_selectivity(bound_filter, table):
        calls["filter_selectivity"] += 1
        return real_selectivity(bound_filter, table)

    def counting_as_key(value):
        calls["_as_key"] += 1
        return real_as_key(value)

    monkeypatch.setattr(P, "filter_selectivity", counting_selectivity)
    monkeypatch.setattr(stats_module, "_as_key", counting_as_key)

    costs = [plan_query(bq, c.apply(catalog)).total_cost for c in configs]
    assert len(set(costs)) > 1  # the designs really differ
    assert calls["filter_selectivity"] <= n_filters
    # One key per range bound (<= 2 per filter): O(filters), where the
    # unmemoized planner paid O(filters x buckets x configurations).
    assert calls["_as_key"] <= 2 * n_filters


def test_fresh_configuration_prices_only_unseen_indexes(monkeypatch):
    catalog = full_sdss_catalog(scale=0.05)
    bq = bind_statement(THREE_TABLE_SQL, catalog)
    candidates = [
        ix for ix in candidate_indexes(catalog, [THREE_TABLE_SQL], 30)
        if ix.table_name == "photoobj"
    ][:6]
    assert len(candidates) >= 4
    matched = []
    real_match = P._match_index

    def counting_match(ctx, index, *args):
        matched.append(index)
        return real_match(ctx, index, *args)

    monkeypatch.setattr(P, "_match_index", counting_match)
    first = Configuration(indexes=frozenset(candidates[:3]))
    plan_query(bq, first.apply(catalog))
    seen = len(matched)
    assert seen
    # A superset design: at most the one new index is matched and priced.
    second = Configuration(indexes=frozenset(candidates[:4]))
    plan_query(bq, second.apply(catalog))
    assert set(matched[seen:]) <= {candidates[3]}
    # Re-planning a seen design matches nothing at all.
    seen = len(matched)
    plan_query(bq, first.apply(catalog))
    assert len(matched) == seen


def test_forget_indexes_racing_planning_stays_exact():
    """One bound query priced — under index sets *and* swapped vertical
    layouts, by ``plan_query`` and through fresh exact services' plan
    memo — from more threads than cores while another thread forgets
    the candidate indexes (``paths.forget_indexes``): every plan still
    costs exactly what a cold plan costs."""
    catalog = full_sdss_catalog(scale=0.05)
    evaluator = WorkloadEvaluator(catalog)
    bq = evaluator.bound(THREE_TABLE_SQL)
    candidates = candidate_indexes(catalog, [THREE_TABLE_SQL], 30)
    rng = random.Random(17)
    configs = [
        Configuration(indexes=frozenset(rng.sample(candidates, rng.randint(1, 5))))
        for __ in range(12)
    ]
    # Layout swaps ride along: some designs partition photoobj, pairs of
    # them with one cover (one shared context), the rest with another.
    table = catalog.table("photoobj")
    read = sorted(bq.referenced_columns("p"))
    rest = [c for c in table.column_names if c not in read]
    layouts = [
        None,
        VerticalLayout("photoobj", (
            VerticalFragment("photoobj", tuple(read)),
            VerticalFragment("photoobj", tuple(rest)),
        )),
        VerticalLayout("photoobj", (
            VerticalFragment("photoobj", tuple(read)),
            VerticalFragment("photoobj", tuple(rest[:3])),
            VerticalFragment("photoobj", tuple(rest[3:])),
        )),
        VerticalLayout("photoobj", (
            VerticalFragment("photoobj", tuple(read[:2])),
            VerticalFragment("photoobj", tuple(read[2:] + rest)),
        )),
    ]
    configs = [
        Configuration(
            indexes=config.indexes,
            layouts=() if layouts[i % 4] is None else (layouts[i % 4],),
        )
        for i, config in enumerate(configs)
    ]
    overlays = [config.apply(catalog) for config in configs]
    expected = [
        plan_query(bind_statement(THREE_TABLE_SQL, catalog), overlay).total_cost
        for overlay in overlays
    ]
    assert len(set(expected)) > 4
    deadline = time.monotonic() + 1.5
    failures, plans = [], []

    def planner(seed):
        order = random.Random(seed)
        count = 0
        while time.monotonic() < deadline:
            i = order.randrange(len(overlays))
            try:
                if count % 2:
                    # The exact path: a design never submitted before
                    # (so a fresh service), differing from configs[i]
                    # only by an index THREE_TABLE_SQL cannot use — the
                    # plan memo projects it away.
                    noise = Index(
                        "neighbors", ("distance",),
                        name="noise_%d_%d" % (seed, count),
                    )
                    cost = evaluator.exact_service(
                        configs[i].with_indexes(noise)
                    ).plan(bq).total_cost
                else:
                    cost = plan_query(bq, overlays[i]).total_cost
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(repr(exc))
                return
            if cost != expected[i]:
                failures.append("config %d: %r != %r" % (i, cost, expected[i]))
                return
            count += 1
        plans.append(count)

    def disturber():
        pool = set(candidates)
        while time.monotonic() < deadline:
            P.forget_indexes(bq, pool)

    threads = [threading.Thread(target=planner, args=(s,)) for s in range(6)]
    threads.append(threading.Thread(target=disturber))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert len(plans) == 6 and all(plans)
    assert evaluator.exact_service().optimizer_calls
    # "The memo does hit" is asserted here, with the threads joined, so
    # that the scheduler does not decide whether a planner ever *saw* a
    # hit.  Two fresh services over one projected design: whatever the
    # first costs, the second is a hit.
    quiet = [
        evaluator.exact_service(configs[0].with_indexes(
            Index("neighbors", ("distance",), name="quiet_%d" % k)
        ))
        for k in range(2)
    ]
    assert quiet[0] is not quiet[1]
    first = quiet[0].plan(bq)
    calls = evaluator.exact_service().optimizer_calls
    assert quiet[1].plan(bq) is first and first.total_cost == expected[0]
    assert evaluator.exact_service().optimizer_calls == calls


# ----------------------------------------------------------------------
# (d) the design-projected plan memo behind CostService.plan.
# ----------------------------------------------------------------------

@pytest.fixture
def planner_calls(monkeypatch):
    """Bound queries handed to the planner by ``CostService.plan``."""
    planned = []

    def counting_plan_query(bound_query, *args, **kwargs):
        planned.append(bound_query)
        return plan_query(bound_query, *args, **kwargs)

    monkeypatch.setattr(service_module, "plan_query", counting_plan_query)
    return planned


def fresh_service(base, catalog=None, settings=None):
    """A service with empty per-service caches over *base*'s bound
    queries (and so over their plan memo)."""
    if settings:
        return CostService(base.catalog, settings)
    return base.with_catalog(catalog or base.catalog)


@ENVIRONMENTS
def test_plan_memo_equals_cold_planner(registry, make_catalog, planner_calls):
    catalog = make_catalog()
    sqls = read_statements(registry, catalog)
    configs = fuzzed_configurations(random.Random(9), catalog, sqls)
    evaluator = WorkloadEvaluator(catalog)
    base = evaluator.exact_service()
    reads = {sql: bind_read(sql, catalog) for sql in sqls}
    requests = 0
    for config in configs + configs:  # second sweep: every key is known
        overlay = config.apply(catalog)
        service = fresh_service(base, overlay)
        for sql in sqls:
            hot = service.plan(reads[sql])
            cold = plan_query(bind_read(sql, catalog), overlay)
            assert hot.total_cost == cold.total_cost
            assert hot.explain() == cold.explain()
            assert hot.indexes_used() == cold.indexes_used()
            requests += 1
    assert len(planner_calls) == evaluator.exact_service().optimizer_calls
    # The second sweep planned nothing, and the first not everything.
    assert len(planner_calls) < requests // 2


def test_index_that_cannot_reach_a_statement_costs_no_planner_call(
        sdss_catalog, planner_calls):
    sql = "SELECT objid FROM photoobj WHERE rmag < 18.3"
    evaluator = WorkloadEvaluator(sdss_catalog)
    base_plan = evaluator.exact_service().plan(sql)
    assert len(planner_calls) == 1
    unreaching = [
        Index("specobj", ("z",)),  # a table the statement never reads
        Index("photoobj", ("ra", "rmag")),  # lead column: no filter, no order
        Index("photoobj", ("dec",), include=("objid", "rmag")),  # covering
    ]
    for index in unreaching:
        service = evaluator.exact_service(Configuration.of(index))
        assert service.plan(sql) is base_plan
    assert evaluator.exact_service(
        Configuration(indexes=frozenset(unreaching))
    ).plan(sql) is base_plan
    assert len(planner_calls) == 1
    assert evaluator.exact_service().optimizer_calls == 1
    # An index the statement can use is a different key: one more call,
    # shared in turn by every design that adds only noise to it.
    useful = Index("photoobj", ("rmag",))
    plan = evaluator.exact_service(Configuration.of(useful)).plan(sql)
    assert plan is not base_plan and useful in plan.indexes_used()
    assert evaluator.exact_service(
        Configuration.of(useful, *unreaching)
    ).plan(sql) is plan
    assert len(planner_calls) == 2


def test_catalog_order_of_reaching_indexes_is_part_of_the_key(
        sdss_catalog, planner_calls):
    """Path enumeration order decides cost ties, so the same reaching
    indexes offered in another order are planned again."""
    sql = "SELECT objid FROM photoobj WHERE rmag < 18.3 AND type = 3"
    first, second = sdss_catalog.clone(), sdss_catalog.clone()
    a, b = Index("photoobj", ("rmag",)), Index("photoobj", ("type", "rmag"))
    for catalog, order in ((first, (a, b)), (second, (b, a))):
        for index in order:
            catalog.add_index(index)
    base = CostService(sdss_catalog)
    bq = base.bound(sql)
    assert P.plan_inputs(bq, first) != P.plan_inputs(bq, second)
    for catalog in (first, second):
        plan = fresh_service(base, catalog).plan(sql)
        cold = plan_query(bind_statement(sql, sdss_catalog), catalog)
        assert plan.total_cost == cold.total_cost
        assert plan.explain() == cold.explain()
    assert len(planner_calls) == 2
    assert fresh_service(base, second).plan(sql) is plan
    assert len(planner_calls) == 2


def test_planner_settings_are_part_of_the_plan_key(sdss_catalog, planner_calls):
    base = CostService(sdss_catalog)
    bq = base.bound(TWO_TABLE_SQL)
    default = fresh_service(base).plan(bq)
    variants = [
        dataclasses.replace(DEFAULT_SETTINGS, seq_page_cost=2.5),
        dataclasses.replace(DEFAULT_SETTINGS, enable_hashjoin=False),
    ]
    for n, settings in enumerate(variants, start=2):
        plan = fresh_service(base, settings=settings).plan(bq)
        assert len(planner_calls) == n
        cold = plan_query(
            bind_statement(TWO_TABLE_SQL, sdss_catalog), sdss_catalog, settings
        )
        assert plan.total_cost == cold.total_cost
        assert plan.explain() == cold.explain()
        assert plan.total_cost != default.total_cost
        assert fresh_service(base, settings=settings).plan(bq) is plan
    assert "HashJoin" in default.explain() and "HashJoin" not in plan.explain()
    assert fresh_service(base).plan(bq) is default
    assert len(planner_calls) == 3


def test_plan_memo_hits_on_the_cover_not_the_layout(sdss_catalog, planner_calls):
    split = photo_layout(HOT, *COLD)
    merged = photo_layout(HOT, COLD[0] + COLD[1])  # same cover for p
    reordered = photo_layout(HOT[::-1], *COLD)  # same weight, other fragment
    evaluator = WorkloadEvaluator(sdss_catalog)

    def plan(layout):
        return evaluator.exact_service(
            Configuration(layouts=(layout,))
        ).plan(TWO_TABLE_SQL)

    first = plan(split)
    assert plan(merged) is first
    assert len(planner_calls) == 1
    other = plan(reordered)
    assert len(planner_calls) == 2
    assert other is not first and other.total_cost == first.total_cost
    assert "{type,rmag,objid}" in other.explain()
    assert "{objid,rmag,type}" in first.explain()


# ----------------------------------------------------------------------
# Shared plan nodes are immutable.
# ----------------------------------------------------------------------


def _tree_snapshot(plan):
    """Every node's fields by value, its children by identity."""
    return [
        (
            type(node).__name__,
            [id(child) for child in node.children],
            {
                f.name: getattr(node, f.name)
                for f in dataclasses.fields(node) if f.name != "children"
            },
        )
        for node in plan.walk()
    ]


@ENVIRONMENTS
def test_first_plan_is_unchanged_by_planning_a_second_design(
        registry, make_catalog):
    catalog = make_catalog()
    sqls = read_statements(registry, catalog)
    configs = fuzzed_configurations(random.Random(8), catalog, sqls, n=6)
    model = WorkloadEvaluator(catalog)
    for sql in sqls:
        bq = bind_read(sql, catalog)
        first = plan_query(bq, configs[1].apply(catalog))
        text, cost = first.explain(), first.total_cost
        snapshot = _tree_snapshot(first)
        for config in configs[2:]:
            plan_query(bq, config.apply(catalog))
            model.cost(bq, config)  # slot pricing shares the same nodes
        assert first.explain() == text
        assert first.total_cost == cost
        assert _tree_snapshot(first) == snapshot


# ----------------------------------------------------------------------
# (e) one set cover per template: the table owns the cover memo.
# ----------------------------------------------------------------------


@functools.cache
def cover_env():
    """Full SDSS schema and three instances of every template, bound."""
    catalog = full_sdss_catalog(scale=0.05)
    rng = random.Random(23)
    bound = []
    for __, maker in sorted(sdss.TEMPLATE_REGISTRY.items()):
        for __ in range(3):
            bq = bind_statement(maker(rng), catalog)
            bound.append(locate_query(bq) if isinstance(bq, BoundWrite)
                         and bq.kind != "insert" else bq)
    return catalog, [bq for bq in bound if not isinstance(bq, BoundWrite)]


@st.composite
def fuzzed_layouts(draw, table):
    """Columns dealt into one to four fragments, plus up to two
    replicated fragments drawn from any columns."""
    columns = table.column_names
    homes = draw(st.lists(st.integers(0, 3), min_size=len(columns),
                          max_size=len(columns)))
    groups = {}
    for column, home in zip(columns, homes):
        groups.setdefault(home, []).append(column)
    fragments = [tuple(cols) for __, cols in sorted(groups.items())]
    for __ in range(draw(st.integers(0, 2))):
        fragments.append(tuple(draw(st.lists(
            st.sampled_from(columns), unique=True, min_size=1, max_size=6))))
    fragments = list(dict.fromkeys(fragments))  # a fragment appears once
    return VerticalLayout(table.name, tuple(
        VerticalFragment(table.name, cols) for cols in fragments))


@given(data=st.data())
def test_the_shared_cover_is_each_statements_own_cover(data):
    """``layout_cover`` answers every statement from the layout's memo:
    the cover ``fragments_for`` picks for its referenced columns and
    that cover's pages, and statements referencing the same columns get
    the one entry."""
    catalog, bound = cover_env()
    name = data.draw(st.sampled_from(["photoobj", "specobj", "neighbors"]))
    table = catalog.table(name)
    layout = data.draw(fuzzed_layouts(table))
    seen = {}
    for bq in bound:
        for alias in bq.aliases:
            if bq.table_for(alias) is not table:
                continue
            needed = bq.referenced_columns(alias)
            entry = P.layout_cover(bq, alias, layout)
            cover = tuple(layout.fragments_for(needed or table.column_names))
            pages = float(sum(f.pages(table) for f in cover))
            assert entry == (cover, (pages, len(cover)))
            assert seen.setdefault(needed, entry) is entry


# ----------------------------------------------------------------------
# (f) one resident object per value.
# ----------------------------------------------------------------------


def one_object_per_value(values):
    """As many distinct objects among *values* as distinct values (and
    more than one value, so the check is not vacuous)."""
    values = list(values)
    distinct = set(values)
    return len(distinct) > 1 and len({id(v) for v in values}) == len(distinct)


@ENVIRONMENTS
def test_memo_keys_witnesses_and_signatures_are_shared_objects(
    registry, make_catalog
):
    """Priced every way the memos fill — per call, the kernel grid and
    its deltas, CoPhy's candidate pricer — the slot memo's keys are flat
    ``(slot, indexes, cover, horizontal)`` tuples, and their index sets,
    the witnesses and the kernel's design-signature sets are each the
    sharing table's one object per value.  ``clear_caches`` empties the
    table."""
    catalog = make_catalog()
    sqls = read_statements(registry, catalog)
    configs = fuzzed_configurations(random.Random(7), catalog, sqls)
    model = WorkloadEvaluator(catalog)
    workload = [(sql, 1.0) for sql in sqls]
    for config in configs:
        for sql in sqls:
            model.cost(sql, config)
    model.evaluate_configurations(workload, configs)
    model.evaluate_deltas(workload, configs[0], configs[1:])
    candidates = candidate_indexes(catalog, sqls, max_candidates=24)
    build_bip(model, workload, candidates, 40_000)

    buckets = list(model._slot_memo.values())
    keys = [key for bucket in buckets for key in bucket]
    assert all(len(key) == 4 and isinstance(key[0], AccessSlot)
               for key in keys)
    witnesses = [choice[1] for bucket in buckets
                 for choice in bucket.values() if choice is not None]
    signatures = []
    for compiled in model._compiled.values():
        kernel = compiled.kernel
        signatures += [sig for __, sig in kernel._columns]
    sets = [key[1] for key in keys] + [sig[0] for sig in signatures]
    for values in (sets, witnesses):
        assert one_object_per_value(values)
        assert all(model._shared[value] is value for value in values)


def test_an_index_no_slot_can_use_adds_no_slot_memo_entry(sdss_catalog):
    """The projection keeps only indexes that reach the slot: a design
    whose one index leads with a column the statement neither filters,
    joins nor orders on shares every entry of the empty design."""
    model = WorkloadEvaluator(sdss_catalog)
    bq = model.bound(TWO_TABLE_SQL)
    empty = model.cost(TWO_TABLE_SQL)
    entries = len(model._slot_memo[bq.sql])
    unused = Configuration.of(Index("photoobj", ("ra",)))
    assert model.cost(TWO_TABLE_SQL, unused) == empty
    assert len(model._slot_memo[bq.sql]) == entries


def test_a_build_and_a_decoded_entry_share_their_slots():
    """Order vectors of one build re-plan most references alike: equal
    access slots, slot tuples and order pairs are one object each, in
    the build and in its wire round trip."""
    catalog = full_sdss_catalog(scale=0.05)
    cache = build_cache(bind_statement(THREE_TABLE_SQL, catalog), catalog,
                        DEFAULT_SETTINGS)
    __, decoded = wire.loads(
        wire.dumps(wire.entry_to_wire(THREE_TABLE_SQL, cache)), catalog)
    assert decoded.plans == cache.plans
    for entry in (cache, decoded):
        plans = entry.plans
        assert one_object_per_value(s for p in plans for s in p.slots)
        assert one_object_per_value(p.slots for p in plans)
        assert one_object_per_value(
            pair for p in plans for pair in p.order_vector)
