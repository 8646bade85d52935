"""The memo inventory: ``repro.evaluation.memos`` declares every memo
reachable from a ``WorkloadEvaluator``, and this module holds the code
to the declaration.

(a) After an eviction nothing derived from the evicted entry's bound
    query survives.
(b) After re-ANALYZE the self-validating rows miss.
(c) A dict attribute on the objects a designer run reaches that the
    table does not list fails.
"""

import dataclasses
import inspect
import random
import sys
import threading

from repro.catalog import Index, VerticalFragment, VerticalLayout
from repro.designer import Designer
from repro.evaluation import InumCachePool, WorkloadEvaluator, memos
from repro.evaluation.kernel import WorkloadKernel
from repro.inum.cache import build_cache
from repro.optimizer import CostService
from repro.optimizer import paths as P
from repro.optimizer.paths import ScanContext
from repro.sql.binder import BoundQuery
from repro.whatif import Configuration
from repro.workloads import sdss_catalog, sdss_workload

Q_JOIN = (
    "SELECT p.ra, s.z FROM photoobj p, specobj s "
    "WHERE p.objid = s.bestobjid AND s.z > 4.5"
)
Q_TWIN = (
    "SELECT alpha.ra, beta.z FROM photoobj alpha, specobj beta "
    "WHERE alpha.objid = beta.bestobjid AND beta.z > 4.5"
)
Q_OTHER = "SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1"
Q_ZMAG = (
    "SELECT objid, ra, dec, zmag, zerr FROM photoobj "
    "WHERE zmag < 14.52 AND type = 5"
)

def designs(catalog):
    """An index design and a layout design over photoobj."""
    table = catalog.table("photoobj")
    hot = ("objid", "ra", "dec", "rmag", "type", "zmag", "zerr")
    rest = tuple(c for c in table.column_names if c not in hot)
    layout = VerticalLayout("photoobj", (
        VerticalFragment("photoobj", hot), VerticalFragment("photoobj", rest),
    ))
    return [
        Configuration.of(Index("photoobj", ("rmag",)),
                         Index("specobj", ("z",))),
        Configuration(layouts=(layout,)),
    ]


def exercise(evaluator, statements):
    """Fill every row the evaluator can reach: INUM costs, a compiled
    grid, delta states, exact costs under two designs."""
    configs = [Configuration.empty()] + designs(evaluator.catalog)
    workload = [(sql, 1.0) for sql in statements]
    for sql in statements:
        evaluator.cost(sql)
    evaluator.evaluate_configurations(workload, configs)
    evaluator.evaluate_deltas(workload, configs[0], configs[1:])
    for config in configs:
        for sql in statements:
            evaluator.exact_service(config).cost(sql)
    return workload, configs


def memo_of(row, evaluator, bq):
    owner = bq if row.reach is None else row.owner_in(evaluator)
    return getattr(owner, row.attr)


# ----------------------------------------------------------------------
# (a) eviction.
# ----------------------------------------------------------------------


def test_eviction_drops_everything_derived_from_the_entry():
    catalog = sdss_catalog(scale=0.05)
    evaluator = WorkloadEvaluator(catalog, pool=InumCachePool(capacity=1))
    exercise(evaluator, [Q_JOIN])
    bq = evaluator.bound(Q_JOIN)
    assert evaluator.cache_for(Q_JOIN).bound_query is bq
    rows = memos.rows(memos.EVICT)
    assert {row.evict for row in rows} == {"text", "all", "reads"}
    for row in rows:
        assert memo_of(row, evaluator, bq), row.attr  # filled first
    evaluator.cost(Q_OTHER)  # evicts Q_JOIN's entry
    assert bq.sql not in evaluator.pool
    assert bq.sql not in evaluator.pool._kernels
    for row in rows:
        memo = memo_of(row, evaluator, bq)
        assert bq.sql not in memo, row.attr
        assert not any(
            bq.sql in getattr(value, "reads", ()) for value in memo.values()
        ), row.attr
        if row.evict == "all":
            assert not memo, row.attr


def test_an_alias_twin_is_its_own_entry_and_keeps_its_memos():
    """Texts that differ in their aliases alone are two entries with two
    bound queries: evicting one drops its derived state and leaves the
    twin's."""
    catalog = sdss_catalog(scale=0.05)
    evaluator = WorkloadEvaluator(catalog, pool=InumCachePool(capacity=2))
    exercise(evaluator, [Q_JOIN, Q_TWIN])
    entry_bq, twin = evaluator.bound(Q_JOIN), evaluator.bound(Q_TWIN)
    assert evaluator.cache_for(Q_TWIN).bound_query is twin is not entry_bq
    assert evaluator.pool.keys() == [Q_JOIN, Q_TWIN]
    rows = [row for row in memos.rows(memos.EVICT) if row.evict != "reads"]
    for row in rows:
        assert memo_of(row, evaluator, twin), row.attr  # filled first
    evaluator.cost(Q_OTHER)  # evicts Q_JOIN's entry, the LRU one
    assert evaluator.pool.keys() == [Q_TWIN, Q_OTHER]
    for row in rows:
        assert entry_bq.sql not in memo_of(row, evaluator, entry_bq), row.attr
        if row.reach is None:  # the twin's own bound query
            assert memo_of(row, evaluator, twin), row.attr
        elif row.evict == "text":
            assert twin.sql in memo_of(row, evaluator, twin), row.attr
    assert evaluator.bound(Q_TWIN) is twin


# ----------------------------------------------------------------------
# (b) statistics.
# ----------------------------------------------------------------------


def reanalyze(table):
    table.row_count *= 10
    table.build_stats()


def test_reanalyze_misses_every_self_validating_row():
    catalog = sdss_catalog(scale=0.05)
    evaluator = WorkloadEvaluator(catalog)
    __, configs = exercise(evaluator, [Q_ZMAG])
    bq = evaluator.bound(Q_ZMAG)
    table = catalog.table("photoobj")
    ctx = P.scan_context(bq, "photoobj", catalog)
    plan_key = (evaluator.settings, P.plan_inputs(bq, catalog))
    assert plan_key in bq.plan_memo
    layout = configs[2].layouts[0]
    fragment = layout.fragments[0]
    pages = fragment.pages(table)
    assert table._projection_pages
    cover = P.layout_cover(bq, "photoobj", layout)
    assert layout._covers
    index = Index("photoobj", ("rmag",))
    shape = index.shape(table)
    assert table._index_shapes

    reanalyze(table)

    probes = {
        memos.SCAN_CONTEXTS:
            lambda: P.scan_context(bq, "photoobj", catalog) is not ctx,
        memos.PLAN_MEMO: lambda: plan_key not in bq.plan_memo,
        memos.PROJECTION_PAGES: lambda: fragment.pages(table) != pages,
        memos.LAYOUT_COVERS:
            lambda: P.layout_cover(bq, "photoobj", layout) != cover,
        memos.INDEX_SHAPES: lambda: index.shape(table) != shape,
    }
    declared = {row for row in memos.MEMOS
                if memos.VALIDATE in row.hooks or memos.STALE in row.hooks}
    assert declared == set(probes)
    assert all(memos.STATS in row.depends for row in declared)
    for row, missed in probes.items():
        assert missed(), row.attr


# ----------------------------------------------------------------------
# (c) nothing undeclared.
# ----------------------------------------------------------------------


def attributes(obj):
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    return {name: getattr(obj, name) for name in names if hasattr(obj, name)}


def test_every_dict_on_a_designer_run_is_declared():
    catalog = sdss_catalog(scale=0.05)
    designer = Designer(catalog)
    evaluator = designer.evaluator
    workload = [sql for sql, __ in sdss_workload(n_queries=8, seed=5)]
    designer.recommend(workload, 40_000, solver="greedy",
                       max_candidates=20, schedule=False)
    first = designs(catalog)[0]
    designer.evaluate_design(workload, indexes=first.indexes)

    bindings = [record.bound for record
                in evaluator.exact_service().statements.values()]
    bound = set(map(id, bindings))
    objects = [evaluator, evaluator.pool, evaluator.exact_service()]
    objects += list(evaluator._exact_services.values())
    objects += [bq for bq in bindings if isinstance(bq, BoundQuery)]
    objects += [evaluator.pool.get(sql).bound_query
                for sql in evaluator.pool.keys()
                if id(evaluator.pool.get(sql).bound_query) not in bound]
    objects += [ctx for obj in list(objects) if isinstance(obj, BoundQuery)
                for ctx in obj.scan_contexts.values()]
    kinds = {type(obj) for obj in objects}
    assert {BoundQuery, ScanContext, CostService} <= kinds

    declared = {(row.owner, row.attr) for row in memos.MEMOS}
    declared |= set(memos.INPUTS)
    for obj in objects:
        owners = {cls.__name__ for cls in type(obj).__mro__}
        for name, value in attributes(obj).items():
            if isinstance(value, dict):
                assert any((owner, name) in declared for owner in owners), (
                    "%s.%s is an undeclared dict" % (type(obj).__name__, name)
                )


def test_every_row_names_a_real_attribute():
    catalog = sdss_catalog(scale=0.05)
    evaluator = WorkloadEvaluator(catalog)
    __, configs = exercise(evaluator, [Q_JOIN])
    bq = evaluator.bound(Q_JOIN)
    (compiled,) = evaluator._compiled.values()
    samples = {
        "VerticalLayout": configs[2].layouts[0],
        "WorkloadEvaluator": evaluator,
        "InumCachePool": evaluator.pool,
        "CostService": evaluator.exact_service(),
        "BoundQuery": bq, "ScanContext": next(iter(bq.scan_contexts.values())),
        "WorkloadKernel": compiled.kernel, "Table": catalog.table("photoobj"),
    }
    assert isinstance(compiled.kernel, WorkloadKernel)
    for row in memos.MEMOS:
        if row.owner == "build_cache":  # a local handed to plan_query
            assert "subsets=subsets" in inspect.getsource(build_cache)
            continue
        owner = samples[row.owner]
        assert row.attr in attributes(owner), row.attr
        if isinstance(row.bound, int):
            assert isinstance(getattr(owner, row.attr), dict)
    fields = {f.name for f in dataclasses.fields(BoundQuery)}
    assert {r.attr for r in memos.MEMOS if r.owner == "BoundQuery"} <= fields


# ----------------------------------------------------------------------
# Eviction racing pricing (CI runs this on one core, five times).
# ----------------------------------------------------------------------


def test_eviction_racing_pricing_stays_exact():
    """Threads price INUM grids, per-call costs and exact costs while a
    one-entry pool evicts on nearly every probe: every answer equals an
    unbounded evaluator's and the LRU rows hold their bounds."""
    catalog = sdss_catalog(scale=0.05)
    statements = [Q_JOIN, Q_TWIN, Q_OTHER, Q_ZMAG]
    configs = [Configuration.empty()] + designs(catalog)
    reference = WorkloadEvaluator(catalog)
    workloads = [[(a, 1.0), (b, 2.0)] for a in statements for b in statements
                 if a < b]
    expected_grid = [reference.evaluate_configurations(w, configs).matrix
                     for w in workloads]
    cells = [(sql, i) for sql in statements for i in range(len(configs))]
    expected_cost = {(sql, i): reference.cost(sql, configs[i])
                     for sql, i in cells}
    expected_exact = {(sql, i): reference.exact_service(configs[i]).cost(sql)
                      for sql, i in cells}
    evaluator = WorkloadEvaluator(catalog, pool=InumCachePool(capacity=1))
    failures = []
    barrier = threading.Barrier(4)

    def tenant(seed):
        rng = random.Random(seed)
        try:
            barrier.wait(timeout=30)
            for __ in range(40):
                w = rng.randrange(len(workloads))
                got = evaluator.evaluate_configurations(workloads[w], configs)
                assert got.matrix == expected_grid[w]
                sql, i = rng.choice(statements), rng.randrange(len(configs))
                assert evaluator.cost(sql, configs[i]) == expected_cost[sql, i]
                assert evaluator.exact_service(configs[i]).cost(sql) == \
                    expected_exact[sql, i]
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=tenant, args=(s,)) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert evaluator.pool.stats.evictions > 0
    for row in memos.MEMOS:
        if row.reach is not None and isinstance(row.bound, int):
            assert len(getattr(row.owner_in(evaluator), row.attr)) <= row.bound
