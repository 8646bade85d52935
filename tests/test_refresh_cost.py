"""A tenant refresh pays only for what its backplane has not seen.

Two of the three mechanisms are pinned here where they can go wrong
(the third, the one option builder, lives in ``tests/test_colgen.py``
and ``tests/test_pricing_surface.py``):

* the **recommendation memo** on the backplane evaluator: the key is
  *every* argument of ``Designer.recommend`` and the statement order, a
  hit is the object a fresh evaluator recomputes bit for bit, twin
  tenants share the work but not the telemetry, pool eviction leaves
  the memo alone and its LRU bound holds;
* the **one binder**: candidate mining binds through the evaluator, so
  a statement template is parsed once per backplane and
  ``repro.cophy.candidates`` holds no module state.
"""

import inspect
import random
import sys
import threading
import weakref

import pytest

import repro.cophy.advisor as advisor_module
import repro.cophy.candidates as candidates_module
from repro.catalog import Index
from repro.colt import ColtSettings
from repro.cophy import candidate_indexes
from repro.designer import Designer
from repro.evaluation import WorkloadEvaluator, memos
from repro.service import TenantSession, TuningService
from repro.sql import Lexer, binder
from repro.sql.template import template_key
from repro.workloads import (
    DriftPhase,
    drifting_stream,
    sdss,
    sdss_catalog,
    sdss_workload,
)

from oracle import drain
from test_colgen import TEMPLATE_ENVS, template_workload

WORKLOAD = [
    ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12", 1.0),
    ("SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1", 1.0),
    ("SELECT p.ra, s.z FROM photoobj p, specobj s "
     "WHERE p.objid = s.objid AND s.z > 6.5", 0.5),
    ("SELECT ra FROM photoobj WHERE dec > 85 ORDER BY ra LIMIT 5", 2.0),
]

BASE = dict(
    workload=WORKLOAD, storage_budget_pages=40_000, solver="greedy",
    partitions=False, seed_indexes=(), max_candidates=20, schedule=False,
)

# For every parameter of Designer.recommend, arguments that differ from
# BASE in that parameter alone: each must miss the memo.
VARIATIONS = {
    "workload": [
        WORKLOAD[::-1],  # same statements, another order
        WORKLOAD[:-1] + [(WORKLOAD[-1][0], 3.0)],  # another weight
        WORKLOAD[:-1],
    ],
    "storage_budget_pages": [20_000],
    "solver": ["milp"],
    "partitions": [True],
    "seed_indexes": [(Index("photoobj", ("gmag",)),)],
    "max_candidates": [10],
    "schedule": [True],
}


def memo_counts(evaluator):
    return evaluator.recommend_memo_hits, evaluator.recommend_memo_misses


def summary(rec):
    """Everything a caller reads off a recommendation, as plain data."""
    index_rec, graph = rec.index_recommendation, rec.interaction_graph
    return (
        [ix.name for ix in index_rec.indexes],
        index_rec.predicted_workload_cost,
        index_rec.base_workload_cost,
        index_rec.size_pages,
        rec.base_workload_cost,
        rec.combined_workload_cost,
        rec.combined_configuration,
        graph and sorted(graph.dois.items()),
        graph and sorted(graph.benefits.items()),
        rec.schedule and (
            [ix.name for ix in rec.schedule.order], rec.schedule.area
        ),
    )


# ----------------------------------------------------------------------
# The recommendation memo.
# ----------------------------------------------------------------------


class TestRecommendMemo:
    def test_every_parameter_of_recommend_enters_the_key(self, sdss_catalog):
        """A parameter added to ``Designer.recommend`` later must get a
        row in VARIATIONS — and that row fails unless the parameter is
        part of the memo key."""
        parameters = list(inspect.signature(Designer.recommend).parameters)
        assert sorted(parameters[1:]) == sorted(VARIATIONS) == sorted(BASE)
        designer = Designer(sdss_catalog)
        first = designer.recommend(**BASE)
        assert designer.recommend(**BASE) is first
        assert memo_counts(designer.evaluator) == (1, 1)
        results = [first]
        for name, values in VARIATIONS.items():
            for value in values:
                __, misses = memo_counts(designer.evaluator)
                other = designer.recommend(**{**BASE, name: value})
                assert memo_counts(designer.evaluator) == (1, misses + 1), name
                assert all(other is not seen for seen in results), name
                results.append(other)
        # Nothing above displaced or aliased the first entry, and a
        # second facade over the same backplane finds it too.
        twin = Designer(sdss_catalog, evaluator=designer.evaluator)
        assert twin.recommend(**BASE) is first
        assert Designer(sdss_catalog).recommend(**BASE) is not first

    @pytest.mark.parametrize(
        "registry, make_catalog", TEMPLATE_ENVS, ids=["sdss", "tpch"]
    )
    @pytest.mark.parametrize("solver", ["greedy", "milp"])
    def test_a_hit_is_what_a_fresh_evaluator_recomputes(
            self, registry, make_catalog, solver):
        catalog = make_catalog()
        workload = template_workload(registry)
        budget = sum(t.pages for t in catalog.tables) // 4
        designer = Designer(catalog)
        first = designer.recommend(workload, budget, solver=solver)
        # Warm every cache below the memo, then ask again.
        designer.recommend(workload, budget // 2, solver=solver)
        hit = designer.recommend(workload, budget, solver=solver)
        assert hit is first
        fresh = Designer(catalog).recommend(workload, budget, solver=solver)
        assert summary(hit) == summary(fresh)
        assert len(hit.index_recommendation.indexes) >= 2  # graph compared

    def test_the_bound_holds_and_evicts_least_recently_used(
            self, sdss_catalog):
        designer = Designer(sdss_catalog)
        memo = designer.evaluator._recommendations

        def refresh(i):
            return designer.recommend(
                ["SELECT ra FROM photoobj WHERE ra < %d" % (i + 1)],
                40_000, solver="greedy", partitions=False, schedule=False,
            )

        first = refresh(0)
        for i in range(1, 4 * memos.RECOMMENDATIONS.bound):
            refresh(i)
            if i % 7 == 0:
                assert refresh(0) is first  # kept alive by use
            assert len(memo) <= memos.RECOMMENDATIONS.bound
        assert len(memo) == memos.RECOMMENDATIONS.bound
        assert refresh(0) is first
        __, misses = memo_counts(designer.evaluator)
        refresh(1)  # long evicted: recomputed
        assert memo_counts(designer.evaluator)[1] == misses + 1

    def test_concurrent_tenants_never_lose_a_count_or_the_bound(
            self, sdss_catalog):
        """Tenant threads share the memo: under a shortened switch
        interval every call is counted exactly once, every caller gets
        its own key's value, and the bound holds throughout."""
        evaluator = WorkloadEvaluator(sdss_catalog)
        bound = memos.RECOMMENDATIONS.bound
        keys = 3 * bound
        calls_per_thread, wrong, oversize = 2000, [], []

        def tenant(seed):
            rng = random.Random(seed)
            for __ in range(calls_per_thread):
                key = rng.randrange(keys)
                if evaluator.recommendation(key, lambda: ("rec", key)) \
                        != ("rec", key):
                    wrong.append(key)
                with evaluator._lock:  # between calls, as _forget sees it
                    if len(evaluator._recommendations) > bound:
                        oversize.append(key)

        threads = [threading.Thread(target=tenant, args=(s,)) for s in range(6)]
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
        assert not wrong and not oversize
        hits, misses = memo_counts(evaluator)
        assert hits + misses == 6 * calls_per_thread
        assert hits and misses >= keys


# ----------------------------------------------------------------------
# Twin tenants on one backplane: shared work, private telemetry.
# ----------------------------------------------------------------------

PHASES = (
    DriftPhase("positional", 10, ((sdss.template("cone_search"), 1.0),)),
    DriftPhase("photometric", 10, ((sdss.template("magnitude_cut"), 1.0),)),
    DriftPhase("joins", 10, ((sdss.template("photo_spec_join"), 1.0),)),
)
COLT = ColtSettings(epoch_length=5, space_budget_pages=50_000)
# name -> stream seed: "a" and "b" are fed one stream.
TENANTS = {"a": 4, "b": 4, "c": 9}


def options():
    return dict(colt_settings=COLT, recommend_every=8, window=10)


@pytest.fixture(scope="module")
def astro_catalog():
    return sdss_catalog(scale=0.01)


@pytest.fixture(scope="module")
def alone(astro_catalog):
    """Each tenant on a private evaluator: the reference outcome."""
    sessions = {}
    for name, seed in TENANTS.items():
        session = TenantSession(
            name, WorkloadEvaluator(astro_catalog), **options()
        )
        sessions[name] = drain(session, drifting_stream(PHASES, seed=seed))
    return sessions


def outcome(session):
    """Recommendations, COLT state and the status panel."""
    return (session.recommendations, session.tuner.snapshot_state(),
            session.status())


def run_service(astro_catalog, **service_options):
    service = TuningService(**service_options)
    service.add_backplane("sdss", astro_catalog)
    for name in TENANTS:
        service.add_tenant(name, "sdss", **options())
    service.run_scheduled({
        name: drifting_stream(PHASES, seed=seed)
        for name, seed in TENANTS.items()
    })
    return service


class TestTwinTenants:
    def test_build_bip_runs_once_per_distinct_window(
            self, astro_catalog, alone, monkeypatch):
        windows = []
        real = advisor_module.build_bip

        def spy(model, workload, *args, **kwargs):
            windows.append(tuple(workload))
            return real(model, workload, *args, **kwargs)

        monkeypatch.setattr(advisor_module, "build_bip", spy)
        service = run_service(astro_catalog, shards=2)
        refreshes = sum(
            len(service.tenant(name).recommendations) for name in TENANTS
        )
        assert len(windows) == len(set(windows)) < refreshes
        hits, misses = memo_counts(service.backplane("sdss").evaluator)
        assert (hits + misses, misses) == (refreshes, len(windows))
        # "b" replays "a"'s stream: every one of its refreshes is shared.
        assert hits >= len(alone["b"].recommendations)
        for name in TENANTS:
            assert outcome(service.tenant(name)) == outcome(alone[name]), name

    def test_the_memo_survives_pool_eviction(self, astro_catalog, alone):
        service = run_service(astro_catalog, shards=1, pool_capacity=8)
        plane = service.backplane("sdss")
        assert plane.pool.stats.evictions > 0
        hits, __ = memo_counts(plane.evaluator)
        assert hits >= len(alone["b"].recommendations)
        for name in TENANTS:
            assert outcome(service.tenant(name)) == outcome(alone[name]), name
        # The final windows were all evicted from under the memo ...
        final = list(service.tenant("a").window)
        assert not all(
            plane.evaluator.bound(sql).sql in plane.pool for sql in final
        )
        # ... and it still answers them, with the very object.
        again = service.tenant("b").designer.recommend(
            final, storage_budget_pages=service.tenant("b").budget_pages,
            solver="greedy", partitions=False, schedule=False,
        )
        assert again is service.tenant("a").last_recommendation


# ----------------------------------------------------------------------
# The one binder.
# ----------------------------------------------------------------------


def spy_on_bind_statement(monkeypatch):
    """Count ``bind_statement`` calls through every ``from ... import``
    binding of it in the program."""
    real = binder.bind_statement
    bound = []

    def spy(sql, catalog):
        bound.append(sql)
        return real(sql, catalog)

    patched = 0
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") \
                and vars(module).get("bind_statement") is real:
            monkeypatch.setattr(module, "bind_statement", spy)
            patched += 1
    assert patched >= 3  # binder, inum.cache, cophy.candidates at least
    return bound


class TestOneBinder:
    def test_a_statement_is_bound_once_per_backplane(
            self, astro_catalog, monkeypatch):
        bound = spy_on_bind_statement(monkeypatch)
        streams = {
            name: list(drifting_stream(PHASES, seed=seed))
            for name, seed in (("a", 4), ("c", 9))
        }
        service = TuningService(shards=2)
        service.add_backplane("sdss", astro_catalog)
        for name in streams:
            service.add_tenant(name, "sdss", **options())
        service.run_scheduled(streams)
        assert sum(
            len(service.tenant(name).recommendations) for name in streams
        ) >= 6  # candidate mining ran, over windows of bound statements
        texts = {sql for events in streams.values() for __, sql in events}
        # Once per template, on the first text of its shape; every other
        # text is its template's numbers pass.
        keys = {template_key(Lexer(sql).tokens()) for sql in texts}
        assert len(bound) == len(keys) < len(texts)
        assert {template_key(Lexer(sql).tokens()) for sql in bound} == keys

    def test_candidate_mining_holds_no_module_state(self):
        containers = (dict, list, set, weakref.WeakKeyDictionary,
                      weakref.WeakValueDictionary)
        assert [
            name for name, value in vars(candidates_module).items()
            if not name.startswith("__") and isinstance(value, containers)
        ] == []

    @pytest.mark.parametrize(
        "registry, make_catalog", TEMPLATE_ENVS, ids=["sdss", "tpch"]
    )
    def test_the_evaluators_binder_mines_the_same_candidates(
            self, registry, make_catalog):
        catalog = make_catalog()
        workloads = [[(maker(random.Random(5)), 1.0)]
                     for __, maker in sorted(registry.items())]
        workloads.append(template_workload(registry))
        if registry is sdss.TEMPLATE_REGISTRY:
            workloads.append(list(
                sdss_workload(30, seed=3, write_fraction=0.4, write_weight=5.0)
            ))
        evaluator = WorkloadEvaluator(catalog)
        total = 0
        for workload in workloads:
            mined = candidate_indexes(catalog, workload, bind=evaluator.bound)
            assert mined == candidate_indexes(catalog, workload)
            total += len(mined)
        assert total > 5 * len(workloads)
