"""The memo inventory: ``repro.evaluation.memos`` declares every memo
reachable from a ``WorkloadEvaluator``, and this module holds the code
to the declaration.

(a) After an eviction nothing derived from the evicted entry's bound
    query survives.
(b) A table's statistics are fixed once built: a re-ANALYZE is a new
    catalog, and two catalogs priced through one layout object each get
    their own answers.
(c) A dict attribute on the objects a designer run reaches that the
    table does not list fails.
(d) A statement that no resident compiled workload reads any more
    keeps only its record and its pool entry, so what a stream leaves
    behind levels off while the records and the pool grow.
"""

import dataclasses
import inspect
import random
import sys
import threading

import pytest

from repro.catalog import Index, VerticalFragment, VerticalLayout
from repro.colt import ColtSettings
from repro.cophy.bip import CandidatePricer, build_bip
from repro.designer import Designer
from repro.evaluation import InumCachePool, WorkloadEvaluator, memos
from repro.evaluation.kernel import BipKernel, WorkloadKernel
from repro.inum.cache import _DesignView, build_cache
from repro.optimizer import CostService, plan_query
from repro.optimizer.paths import ScanContext
from repro.service import TuningService
from repro.sql.binder import BoundQuery, bind_statement
from repro.whatif import Configuration
from repro.workloads import (
    default_phases,
    drifting_stream,
    sdss_catalog,
    sdss_workload,
)

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
# (b) statistics are fixed once built.
# ----------------------------------------------------------------------


def cold_cost(sql, catalog, config):
    """A cold plan's cost for *sql* under *config* on *catalog*: a fresh
    binding, and fresh layout objects, so no memo of *config*'s own is
    read."""
    fresh = Configuration(indexes=config.indexes, layouts=tuple(
        VerticalLayout(layout.table_name, layout.fragments)
        for layout in config.layouts))
    return plan_query(bind_statement(sql, catalog),
                      fresh.apply(catalog)).total_cost


def test_two_catalogs_one_layout_each_priced_from_its_own_statistics():
    """A table's statistics are fixed once built, so a re-ANALYZE is a
    new catalog: one layout object and one index design priced on two
    catalogs that differ only in statistics (new tables, another scale)
    answer each as a cold plan on its own catalog, on the INUM path and
    on the exact one, and pricing one leaves the other's answers."""
    catalogs = [sdss_catalog(scale=0.05), sdss_catalog(scale=0.1)]
    small, large = (c.table("photoobj") for c in catalogs)
    assert small is not large and small.row_count != large.row_count
    configs = designs(catalogs[0])
    evaluators = [WorkloadEvaluator(catalog) for catalog in catalogs]
    statements = [Q_ZMAG, Q_OTHER]

    def answers(evaluator):
        return [(evaluator.cost(sql, config),
                 evaluator.exact_service(config).cost(sql))
                for config in configs for sql in statements]

    first = [answers(evaluator) for evaluator in evaluators]
    for catalog, got in zip(catalogs, first):
        expected = [cold_cost(sql, catalog, config)
                    for config in configs for sql in statements]
        for (inum, exact), cold in zip(got, expected):
            assert exact == cold
            assert inum == pytest.approx(cold, rel=1e-12)
    assert first[0] != first[1]
    assert [answers(evaluator) for evaluator in reversed(evaluators)] \
        == first[::-1]


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
    problem = build_bip(evaluator, [(Q_JOIN, 1.0)],
                        sorted(configs[0].indexes, key=str), 10 ** 6)
    samples = {
        "BipKernel": problem._compiled(),
        "VerticalLayout": configs[2].layouts[0],
        "WorkloadEvaluator": evaluator,
        "InumCachePool": evaluator.pool,
        "CostService": evaluator.exact_service(),
        "BoundQuery": bq, "ScanContext": next(iter(bq.scan_contexts.values())),
        "WorkloadKernel": compiled.kernel, "Table": catalog.table("photoobj"),
    }
    assert isinstance(compiled.kernel, WorkloadKernel)
    assert isinstance(samples["BipKernel"], BipKernel)
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


# ----------------------------------------------------------------------
# (d) the working set: what a compiled workload that left read alone.
# ----------------------------------------------------------------------


def fill_compiled(evaluator, sql, configs):
    """Compile as many workloads reading *sql* as ``COMPILED`` holds,
    each its own key (a weight of its own), pricing each."""
    for weight in range(2, 2 + memos.COMPILED.bound):
        evaluator.evaluate_configurations([(sql, float(weight))], configs)


def cold_parts(evaluator, sql):
    """What the ``COLD`` rows hold for *sql*, row by row: its slot-memo
    bucket, every live service's plan, its contexts and its plan memo —
    each as a dict of the entries a release would drop."""
    bq = evaluator.bound(sql)
    parts = {}
    for row in memos.rows(memos.COLD):
        if row.evict == "all":
            parts[row.attr] = dict(getattr(bq, row.attr))
        else:
            part = parts[row.attr] = {}
            for owner in row.owners(evaluator, [bq]):
                value = getattr(owner, row.attr).get(sql)
                if isinstance(value, dict):  # a slot-memo bucket, by key
                    part.update(((id(owner), key), choice)
                                for key, choice in value.items())
                elif value is not None:
                    part[id(owner)] = value
    return parts


def test_a_statement_no_compiled_workload_reads_keeps_its_record_and_entry():
    """The twin of (a) for the working set: once the compiled workloads
    that read Q_JOIN have all left, its derived state goes and its
    record and pool entry stay; Q_OTHER, which a resident compiled
    workload still reads, keeps every entry it had."""
    catalog = sdss_catalog(scale=0.05)
    evaluator = WorkloadEvaluator(catalog)
    __, configs = exercise(evaluator, [Q_JOIN, Q_OTHER])
    rows = memos.rows(memos.COLD)
    assert {row.attr for row in rows} == {
        "_slot_memo", "_plan_cache", "scan_contexts", "plan_memo"}
    cold, hot = cold_parts(evaluator, Q_JOIN), cold_parts(evaluator, Q_OTHER)
    for parts in (cold, hot):
        assert all(parts.values()), parts.keys()  # filled first
    assert len(cold["_plan_cache"]) == len(configs)  # one per service
    record = evaluator.exact_service().statements[Q_JOIN]
    entry = evaluator.cache_for(Q_JOIN)

    fill_compiled(evaluator, Q_OTHER, [configs[0]])  # Q_JOIN's workload left
    assert all(Q_JOIN not in c.reads for c in evaluator._compiled.values())
    assert not any(cold_parts(evaluator, Q_JOIN).values())
    assert evaluator.exact_service().statements[Q_JOIN] is record
    assert record.bound is evaluator.bound(Q_JOIN) and record.terms
    assert evaluator.pool.get(Q_JOIN) is entry
    kept = cold_parts(evaluator, Q_OTHER)
    for attr, part in hot.items():
        assert part.items() <= kept[attr].items(), attr

    # It comes back: re-derived from the record, never rebuilt.
    spent = evaluator.precompute_calls
    reference = WorkloadEvaluator(catalog)
    workload = [(Q_JOIN, 1.0), (Q_OTHER, 2.0)]
    assert evaluator.evaluate_configurations(workload, configs).matrix == \
        reference.evaluate_configurations(workload, configs).matrix
    assert evaluator.precompute_calls == spent


def test_a_release_hashes_no_service_key(monkeypatch):
    """The evaluator's LRUs are plain dicts kept in recency order: a
    release walks every live exact service, and walking a dict hashes no
    key, where a C ``OrderedDict`` hashes each again (twice for
    ``.values()``).  A release of a cold statement beside several
    resident services calls no ``Configuration.__hash__``."""
    catalog = sdss_catalog(scale=0.05)
    evaluator = WorkloadEvaluator(catalog)
    __, configs = exercise(evaluator, [Q_JOIN, Q_OTHER])
    fill_compiled(evaluator, Q_OTHER, [configs[0]])  # Q_JOIN's workload left
    configs += [Configuration.of(Index("photoobj", (column,)))
                for column in ("ra", "dec", "type")]
    for config in configs:  # Q_JOIN's plans back in every service
        evaluator.exact_service(config).cost(Q_JOIN)
    assert len(evaluator._exact_services) == len(configs) - 1
    hashes = []
    real = Configuration.__hash__

    def counting(config):
        hashes.append(config)
        return real(config)

    monkeypatch.setattr(Configuration, "__hash__", counting)
    evaluator.pool.release([Q_JOIN])
    assert not any(cold_parts(evaluator, Q_JOIN).values())  # released
    assert hashes == []


def derived(evaluator):
    """How many statements hold a slot-memo bucket and non-empty scan
    contexts, and how many plan-memo entries they hold."""
    bindings = [record.bound for record
                in evaluator.exact_service().statements.values()]
    bindings += [evaluator.pool.get(sql).bound_query
                 for sql in evaluator.pool.keys()]
    bound = {id(bq): bq for bq in bindings if isinstance(bq, BoundQuery)}
    return {
        "slot memo": sum(1 for bucket in evaluator._slot_memo.values()
                         if bucket),
        "scan contexts": sum(1 for bq in bound.values() if bq.scan_contexts),
        "plan memo": sum(len(bq.plan_memo) for bq in bound.values()),
    }


def stream_through_service(catalog, events):
    """A one-tenant, unbounded-pool service after *events* events of a
    drifting stream; the backplane's evaluator."""
    service = TuningService(shards=2)
    service.add_backplane("sdss", catalog)
    service.add_tenant(
        "drift", "sdss", recommend_every=30, window=10,
        colt_settings=ColtSettings(epoch_length=5,
                                   space_budget_pages=50_000))
    service.run_scheduled(
        {"drift": drifting_stream(default_phases(events // 3), seed=3)})
    return service.backplane("sdss").evaluator


def test_derived_state_levels_off_while_records_grow(monkeypatch):
    """ROADMAP 34(a): stream N, then 4N events through a service with the
    unbounded pool.  Records and pool entries grow with the stream; what
    is derived from them stays within N // 4 of its size after N — a
    drifting stream's statements rarely come back, so they leave the
    working set.  Derived state kept for good grows about fourfold here
    (149 → 595 slot-memo buckets), far past the bound."""
    compiles = []
    real = WorkloadEvaluator._compile_fresh

    def counting(self, pairs):
        compiles.append(self)
        return real(self, pairs)

    monkeypatch.setattr(WorkloadEvaluator, "_compile_fresh", counting)
    catalog = sdss_catalog(scale=0.01)
    n = 150
    short = stream_through_service(catalog, n)
    assert compiles.count(short) > memos.COMPILED.bound
    long = stream_through_service(catalog, 4 * n)
    after_n, after_4n = derived(short), derived(long)
    for name, count in after_4n.items():
        assert count <= after_n[name] + n // 4, (name, after_n, after_4n)
    assert len(long.exact_service().statements) \
        > 3 * len(short.exact_service().statements)
    assert len(long.pool) > 3 * len(short.pool)


def test_releasing_racing_pricing_stays_exact():
    """One thread compiles workloads past ``COMPILED``'s bound, so their
    statements leave the working set over and over, while two more price
    the same statements through ``slot_choice`` and a
    ``CandidatePricer``: every answer ``==`` a single-threaded run's."""
    catalog = sdss_catalog(scale=0.05)
    statements = [Q_JOIN, Q_TWIN, Q_OTHER, Q_ZMAG]
    configs = [Configuration.empty()] + designs(catalog)
    candidates = [Index("photoobj", ("rmag",)), Index("photoobj", ("type",)),
                  Index("specobj", ("z",)), Index("photoobj", ("zmag",))]
    # Statement by statement, each more workloads than COMPILED holds:
    # the next statement's push the last one's out whole.
    workloads = [[(sql, float(weight))] for sql in statements
                 for weight in range(1, 2 + memos.COMPILED.bound)]

    def grids(evaluator):
        return [evaluator.evaluate_configurations(w, configs).matrix
                for w in workloads]

    def prices(evaluator):
        pricer = CandidatePricer(evaluator)
        out = []
        for sql in statements:
            bq = evaluator.bound(sql)
            for plan in evaluator.cache_for(bq).plans:
                for slot in plan.slots:
                    out.append(evaluator.slot_choice(bq, slot, _DesignView(
                        catalog, configs[1])))
                    out.extend(pricer.price(bq, slot, index)
                               for index in candidates)
        return out

    reference = WorkloadEvaluator(catalog)
    expected_grids, expected_prices = grids(reference), prices(reference)
    evaluator = WorkloadEvaluator(catalog)
    failures, released = [], []
    real = evaluator._drop

    def counting(hook, entries):  # a COLD walk gets the cold entries only
        if hook == memos.COLD:
            released.extend(entries)
        real(hook, entries)

    evaluator._drop = counting
    barrier = threading.Barrier(3)

    def compiler():
        try:
            barrier.wait(timeout=30)
            for __ in range(5):
                assert grids(evaluator) == expected_grids
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    def pricer():
        try:
            barrier.wait(timeout=30)
            for __ in range(10):
                assert prices(evaluator) == expected_prices
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=compiler),
               threading.Thread(target=pricer),
               threading.Thread(target=pricer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert released  # the race ran against releases
    assert len(evaluator._compiled) <= memos.COMPILED.bound
