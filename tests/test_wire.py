"""Tests for the portable wire format and the process-pool backplane.

The ISSUE-3 acceptance pins live here:

* serialized cache entries reproduce ``slot_cost``/``cost``
  **bit-identically** for every SDSS and TPC-H read template under
  random configurations;
* a killed :class:`TuningService` restored from a state dir emits the
  same subsequent recommendations as an uninterrupted run;
* process-pool ``warm_up`` results equal single-process results
  entry for entry — also when a worker is killed mid-batch (its work
  drains to the survivor) or every worker is (local fallback);
* wire payloads with a foreign version are rejected, never guessed at;
* the decode seam is a trust boundary (ISSUE 23 put it on the hot path):
  the one-mutation neighbours of real entries (``tests/shapes.py``:
  keys dropped or added, nodes their shape rejects, slots moved onto
  another alias or table) raise only typed errors — a
  :class:`WireFormatError` wherever the shape alone refuses — and leave
  the pool as it was, and whatever installs prices.
"""

import copy
import itertools
import json
import math
import multiprocessing
import os
import random
import signal
import threading
import time
from contextlib import closing

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro import obs
from repro.catalog import Index
from repro.evaluation import (
    InumCachePool,
    ProcessPoolBackplane,
    WorkloadEvaluator,
    wire,
)
from repro.inum.cache import _DesignView
from repro.optimizer.writecost import locate_query
from repro.service import TuningService
from repro.sql.binder import BoundWrite
from repro.util import ReproError, WireFormatError
from repro.whatif import Configuration
from repro.workloads import sdss, sdss_workload, tpch
from repro.workloads import sdss_catalog as make_sdss
from repro.workloads import tpch_catalog as make_tpch
from repro.workloads.drift import default_phases, drifting_stream

from oracle import PerTextEvaluator
from shapes import conforms, neighbours

ENTRY = wire.SHAPES[wire.KIND_ENTRY]


def random_configuration(catalog, rng, n_indexes=2):
    """A random single/two-column index configuration over *catalog*."""
    indexes = []
    tables = catalog.tables
    for __ in range(n_indexes):
        table = rng.choice(tables)
        width = rng.choice((1, 2))
        columns = tuple(
            rng.sample([c.name for c in table.columns], k=width)
        )
        indexes.append(Index(table.name, columns))
    return Configuration(indexes=frozenset(indexes))


def read_statements(catalog, registry, rng):
    """One bound read statement per template (writes contribute their
    locate query; pure inserts have no cached plans to serialize)."""
    model = WorkloadEvaluator(catalog)
    statements = []
    for name in sorted(registry):
        maker = registry[name]
        bq = model.bound(maker(rng))
        if isinstance(bq, BoundWrite):
            if bq.kind not in ("update", "delete"):
                continue
            bq = model.bound(locate_query(bq))
        statements.append((name, bq))
    return statements


class TestEntryRoundTrip:
    """``loads(dumps(entry))`` reproduces slot_cost/cost bit-identically
    for every SDSS and TPC-H template under random configurations."""

    @pytest.mark.parametrize(
        "make_catalog,registry,seed",
        [
            (make_sdss, sdss.TEMPLATE_REGISTRY, 11),
            (make_tpch, tpch.TEMPLATE_REGISTRY, 29),
        ],
        ids=["sdss", "tpch"],
    )
    def test_costs_bit_identical(self, make_catalog, registry, seed):
        catalog = make_catalog(scale=0.01)
        rng = random.Random(seed)
        original = PerTextEvaluator(catalog)
        restored = PerTextEvaluator(catalog)
        configurations = [Configuration.empty()] + [
            random_configuration(catalog, rng) for __ in range(3)
        ]
        for name, bq in read_statements(catalog, registry, rng):
            cache = original.cache_for(bq)
            text = wire.dumps(wire.entry_to_wire(bq.sql, cache))
            key, cache2 = wire.loads(text, catalog)
            assert key == bq.sql, name
            assert cache2.build_optimizer_calls == cache.build_optimizer_calls
            assert cache2.plans == cache.plans, name
            # Install the deserialized entry in a second model and pin
            # per-slot and total costs exactly.
            restored._caches[cache2.bound_query.sql] = cache2
            for config in configurations:
                view = _DesignView(catalog, config)
                for (i1, s1), (i2, s2) in zip(
                    cache.plan_terms(), cache2.plan_terms()
                ):
                    assert i1 == i2
                    for slot1, slot2 in zip(s1, s2):
                        assert original.slot_cost(
                            cache.bound_query, slot1, view
                        ) == restored.slot_cost(
                            cache2.bound_query, slot2, view
                        ), name
                assert original.cost(cache.bound_query, config) == \
                    restored.cost(cache2.bound_query, config), name

    def test_dumps_is_deterministic_json(self):
        catalog = make_sdss(scale=0.01)
        model = WorkloadEvaluator(catalog)
        sql = sdss.template("cone_search")(random.Random(1))
        cache = model.cache_for(sql)
        key = model.bound(sql).sql
        first = wire.dumps(wire.entry_to_wire(key, cache))
        second = wire.dumps(wire.entry_to_wire(key, cache))
        assert first == second
        assert json.loads(first)["wire_version"] == wire.WIRE_VERSION


class TestVersionRejection:
    def _entry_text(self):
        catalog = make_sdss(scale=0.01)
        model = WorkloadEvaluator(catalog)
        sql = sdss.template("magnitude_cut")(random.Random(2))
        return catalog, wire.dumps(
            wire.entry_to_wire(model.bound(sql).sql, model.cache_for(sql))
        )

    def test_version_mismatch_rejected(self):
        catalog, text = self._entry_text()
        payload = json.loads(text)
        payload["wire_version"] = wire.WIRE_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            wire.loads(json.dumps(payload), catalog)

    def test_missing_version_rejected(self):
        catalog, text = self._entry_text()
        payload = json.loads(text)
        del payload["wire_version"]
        with pytest.raises(WireFormatError, match="version"):
            wire.loads(json.dumps(payload), catalog)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError, match="kind"):
            wire.loads(
                json.dumps({"wire_version": wire.WIRE_VERSION, "kind": "??"})
            )

    def test_entry_requires_catalog(self):
        __, text = self._entry_text()
        with pytest.raises(WireFormatError, match="catalog"):
            wire.loads(text)

    def test_entry_without_plans_rejected(self):
        """A runner reply whose entry has no plans stops at the trust
        boundary: installed, it could never price (per-call ``cost``
        raises "no feasible plan") and would poison every workload
        compiled over it."""
        catalog, text = self._entry_text()
        payload = json.loads(text)
        payload["plans"] = []
        pool = InumCachePool()
        with pytest.raises(WireFormatError, match="no plans"):
            wire.loads(json.dumps(payload), catalog, pool=pool)
        assert len(pool) == 0


class TestEntryFuzz:
    JOIN = ("SELECT p.ra, s.z FROM photoobj p, specobj s "
            "WHERE p.objid = s.bestobjid AND s.z > 2.5 ORDER BY p.ra LIMIT 9")
    WRITE = "UPDATE photoobj SET rmag = 21.5 WHERE objid = 77"

    @pytest.fixture(scope="class")
    def env(self):
        catalog = make_sdss(scale=0.01)
        source = WorkloadEvaluator(catalog)
        payloads = []
        for bq, __, __ in source.warm_targets([(self.JOIN, 1), (self.WRITE, 1)]):
            payloads.append(json.loads(wire.dumps(wire.entry_to_wire(
                bq.sql, source.cache_for(bq)))))
        assert [p["locate"] for p in payloads] == [False, True]
        rng = random.Random(5)
        configs = [None] + [random_configuration(catalog, rng)
                            for __ in range(3)]
        workload = [(self.JOIN, 1.0), (self.WRITE, 2.0)]
        reference = source.evaluate_configurations(workload, configs).matrix
        entries = st.one_of([neighbours(p, ENTRY) for p in payloads])
        return catalog, payloads, workload, configs, reference, entries

    @given(data=st.data())
    def test_only_typed_errors_and_nothing_half_installed(self, env, data):
        catalog, payloads, workload, configs, reference, entries = env
        payload = data.draw(entries)
        text = json.dumps(payload)
        pool = InumCachePool()
        evaluator = WorkloadEvaluator(catalog, pool=pool)
        if not conforms(payload, ENTRY):  # the table alone refuses it
            with pytest.raises(WireFormatError):
                wire.entry_from_wire(copy.deepcopy(payload),
                                     evaluator.known_bound)
        try:
            loaded = wire.loads(text, catalog, pool=pool)
        except ReproError as exc:
            event("refused: %s" % type(exc).__name__)
            assert len(pool) == 0 and pool.kernel_count == 0
            assert pool.stats.as_dict() == InumCachePool().stats.as_dict()
            return
        event("installed")
        key, cache = loaded
        assert pool.keys() == [key] and pool.kernel_count == 1
        # It names a statement of the workload, and prices as that
        # statement's own build does unless a term was really edited
        # (an optional field dropped): either way the kernel runs.
        assert key in [
            bq.sql for bq, __, __ in evaluator.warm_targets(workload)
        ]
        matrix = evaluator.evaluate_configurations(workload, configs).matrix
        assert all(math.isfinite(cost) for row in matrix for cost in row)
        original = next(p for p in payloads if p["sql"] == payload["sql"])
        wire.conform(payload, ENTRY, "entry")  # its defaults, filled in
        if payload["plans"] == original["plans"]:
            assert matrix == reference

    @pytest.mark.parametrize("signature", [
        [[["photoobj", []]], None, False],
        json.loads("[" * 600 + "]" * 600),
    ], ids=["foreign", "nested-deeply"])
    def test_a_signature_an_older_build_writes_is_ignored(
            self, env, signature):
        """Entries an older build wrote still carry an alias-invariant
        signature; whatever it holds, the entry is filed under the text
        the receiver binds."""
        catalog, payloads = env[:2]
        text = json.dumps(dict(payloads[0], signature=signature))
        pool = InumCachePool()
        key, cache = wire.loads(text, catalog, pool=pool)
        assert key == cache.bound_query.sql == payloads[0]["sql"]
        assert pool.keys() == [key] and pool.kernel_count == 1

    def test_text_that_is_not_json_is_a_wire_error(self, env):
        for text in ("", "{", "nope", None, b"\xff", 3, "[" * 100_000):
            with pytest.raises(WireFormatError):
                wire.loads(text, env[0])


def bindings(evaluator):
    """Text -> bound statement, for every text *evaluator* has bound."""
    return {sql: record.bound for sql, record
            in evaluator.exact_service().statements.items()
            if record.bound is not None}


class TestInstallBindsThroughTheOwner:
    """``loads(text, catalog, pool=)`` on an owned pool takes the entry's
    bound query from the owner's binder and never inserts into it."""

    SUBMITTED = "SELECT ra, dec FROM photoobj WHERE rmag < 16.5"
    UNKNOWN = ("SELECT p.ra, s.z FROM photoobj p, specobj s "
               "WHERE p.objid = s.bestobjid AND s.z > 4.5")
    UPDATE = "UPDATE photoobj SET status = 3 WHERE run = 756"

    def shipped(self, catalog, sql):
        """*sql*'s entry as a runner returns it: built elsewhere, text."""
        source = WorkloadEvaluator(catalog)
        (bq, __, __), = source.warm_targets([(sql, 1.0)])
        return source, wire.dumps(wire.entry_to_wire(
            bq.sql, source.cache_for(bq)))

    def test_a_submitted_statement_is_not_bound_again(self):
        catalog = make_sdss(scale=0.05)
        evaluator = WorkloadEvaluator(catalog)
        bq = evaluator.bound(self.SUBMITTED)
        before = bindings(evaluator)
        __, text = self.shipped(catalog, self.SUBMITTED)
        __, cache = wire.loads(text, catalog, pool=evaluator.pool)
        assert cache.bound_query is bq
        assert bindings(evaluator) == before

    def test_an_unknown_reply_installs_bit_identically_and_plants_nothing(
            self):
        catalog = make_sdss(scale=0.05)
        evaluator = WorkloadEvaluator(catalog)
        evaluator.bound(self.SUBMITTED)
        before = bindings(evaluator)
        rng = random.Random(3)
        configs = [None] + [random_configuration(catalog, rng)
                            for __ in range(4)]
        sources = []
        for sql in (self.UNKNOWN, self.UPDATE):
            source, text = self.shipped(catalog, sql)
            key, cache = wire.loads(text, catalog, pool=evaluator.pool)
            assert bindings(evaluator) == before
            assert evaluator.pool.get(key) is cache
            assert evaluator.pool.kernel_for(key) is not None
            sources.append((sql, source))
        calls = evaluator.precompute_calls
        for sql, source in sources:
            workload = [(sql, 2.0)]
            assert evaluator.evaluate_many(workload, configs).matrix == \
                source.evaluate_many(workload, configs).matrix
        assert evaluator.precompute_calls == calls  # priced as installed

    def test_another_catalog_binds_against_its_own(self):
        catalog = make_sdss(scale=0.05)
        evaluator = WorkloadEvaluator(catalog)
        bq = evaluator.bound(self.SUBMITTED)
        __, text = self.shipped(catalog, self.SUBMITTED)
        other = catalog.clone()
        __, cache = wire.loads(text, other, pool=evaluator.pool)
        assert cache.bound_query is not bq
        assert cache.bound_query.sql == bq.sql


def assert_same_entries(pooled, single):
    """The two evaluators' pools hold the same entries, term for term."""
    assert set(pooled.pool.keys()) == set(single.pool.keys())
    for key in single.pool.keys():
        a = pooled.pool.get(key)
        b = single.pool.get(key)
        assert a.plans == b.plans
        assert a.build_optimizer_calls == b.build_optimizer_calls
        assert a.bound_query.sql == b.bound_query.sql


def remote_counter(name):
    family = obs.metrics().snapshot()["counters"].get(name, {})
    return sum(sample["value"] for sample in family.get("samples", ()))


class TestProcessPoolBackplane:
    """Process-pool warm_up equals single-process, entry for entry."""

    def test_warm_up_entries_identical(self):
        catalog = make_sdss(scale=0.01)
        # Every template, reads and writes alike: updates exercise the
        # locate-query wire path (synthetic SQL shipped as the write).
        workload = [
            sdss.template(name)(random.Random(i))
            for i, name in enumerate(sorted(sdss.TEMPLATE_REGISTRY))
        ]
        single = WorkloadEvaluator(catalog)
        single_calls = single.warm_up(workload)
        pooled = WorkloadEvaluator(catalog)
        with closing(ProcessPoolBackplane(pooled, processes=2)) as backplane:
            pooled_calls = backplane.warm_up(workload)
        assert pooled_calls == single_calls
        assert_same_entries(pooled, single)
        # The install bound nothing warm_up had not, and each installed
        # read whose shipped text (its unparse) is the text the
        # evaluator bound shares the evaluator's bound query.
        assert set(bindings(pooled)) == set(workload)
        shared = [sql for sql in workload if pooled.bound(sql).sql == sql
                  and not isinstance(pooled.bound(sql), BoundWrite)]
        assert shared
        for sql in shared:
            assert pooled.cache_for(sql).bound_query is pooled.bound(sql)

    @pytest.mark.parametrize("killed", [1, 2])
    def test_killed_workers_do_not_hang_the_batch(self, killed):
        """SIGKILL *killed* of the two workers once the batch is under
        way.  The call must return (a lost task must not be waited for
        forever — run under a hard timeout, so a hang is a failure, not
        a stuck suite) with the single-process entries: one death drains
        to the survivor, two fall back to building locally."""
        obs.reset()
        catalog = make_sdss(scale=0.01)
        workload = list(sdss_workload(n_queries=200, seed=13))
        single = WorkloadEvaluator(catalog)
        single.warm_up(workload)
        pooled = WorkloadEvaluator(catalog)
        backplane = ProcessPoolBackplane(pooled, processes=2)
        outcome = []

        def warm():
            outcome.append(backplane.warm_up(workload))

        caller = threading.Thread(target=warm, daemon=True)
        caller.start()
        deadline = time.monotonic() + 30.0
        while (remote_counter("repro_remote_tasks_total") < 2
               and time.monotonic() < deadline):
            time.sleep(0.002)
        victims = multiprocessing.active_children()[:killed]
        assert len(victims) == killed
        for process in victims:
            os.kill(process.pid, signal.SIGKILL)
        caller.join(timeout=60.0)
        assert not caller.is_alive(), "warm_up hung on a killed worker"
        backplane.close()
        obs_deaths = remote_counter("repro_remote_node_deaths_total")
        obs_fallback = remote_counter("repro_remote_fallback_total")
        obs.reset()

        assert outcome, "warm_up raised"
        assert_same_entries(pooled, single)
        assert obs_deaths == killed
        assert len(backplane.live_nodes) == 2 - killed
        if killed == 2:
            assert obs_fallback >= 1
        else:
            assert obs_fallback == 0

    @pytest.mark.parametrize("killed", [1, 2])
    def test_workers_killed_between_submit_and_collect(self, killed):
        """The same deaths with the batch submitted and nobody
        collecting yet: the survivor — or the local fallback inside
        ``collect`` — still ends with the single-process entries."""
        obs.reset()
        catalog = make_sdss(scale=0.01)
        workload = list(sdss_workload(n_queries=60, seed=13))
        single = WorkloadEvaluator(catalog)
        single.warm_up(workload)
        pooled = WorkloadEvaluator(catalog)
        backplane = ProcessPoolBackplane(pooled, processes=2)
        outcome = []
        try:
            wanted = backplane.submit(workload)
            for process in multiprocessing.active_children()[:killed]:
                os.kill(process.pid, signal.SIGKILL)
            caller = threading.Thread(
                target=lambda: outcome.append(backplane.collect(wanted)),
                daemon=True,
            )
            caller.start()
            caller.join(timeout=60.0)
            assert not caller.is_alive(), "collect hung on a killed worker"
        finally:
            backplane.close()
        obs_deaths = remote_counter("repro_remote_node_deaths_total")
        obs_fallback = remote_counter("repro_remote_fallback_total")
        obs.reset()

        assert outcome, "collect raised"
        assert_same_entries(pooled, single)
        assert obs_deaths == killed
        assert len(backplane.live_nodes) == 2 - killed
        assert (obs_fallback >= 1) if killed == 2 else (obs_fallback == 0)

    def test_second_backplane_forks_beside_live_drainers(self):
        """One executor, two service backplanes: the second one's
        workers are forked while the first one's drainers are blocked
        on tasks in flight — and both serve."""
        catalog = make_sdss(scale=0.01)
        workloads = [list(sdss_workload(n_queries=12, seed=s))
                     for s in (5, 6)]
        singles = [WorkloadEvaluator(catalog) for __ in workloads]
        for single, workload in zip(singles, workloads):
            single.warm_up(workload)
        first, second = (WorkloadEvaluator(catalog) for __ in workloads)
        with closing(ProcessPoolBackplane(first, processes=2)) as early:
            wanted = early.submit(workloads[0])
            assert wanted and early._drainers
            with closing(ProcessPoolBackplane(second, processes=2)) as late:
                late.warm_up(workloads[1])
            early.collect(wanted)
        assert_same_entries(first, singles[0])
        assert_same_entries(second, singles[1])

    def test_duplicate_texts_ship_one_task(self):
        """Warm-target dedup is by bound text, the pool key: a statement
        named twice, or spelled with other spacing, is one entry and one
        shipped build; an alias-renamed text is a statement of its
        own."""
        obs.reset()
        catalog = make_sdss(scale=0.01)
        sql = "SELECT p.objid FROM photoobj p WHERE p.rmag < 20"
        renamed = "SELECT x.objid FROM photoobj x WHERE x.rmag < 20"
        workload = [sql, sql, sql.replace(" WHERE", "   WHERE"), renamed]
        evaluator = WorkloadEvaluator(catalog)
        assert [bq.sql for bq, __, __ in evaluator.warm_targets(workload)] \
            == [evaluator.bound(sql).sql, evaluator.bound(renamed).sql]
        with closing(ProcessPoolBackplane(
                evaluator, processes=2)) as backplane:
            backplane.warm_up(workload)
        assert len(evaluator.pool) == 2
        assert remote_counter("repro_remote_tasks_total") == 2

    def test_warm_up_skips_resident_entries(self):
        catalog = make_sdss(scale=0.01)
        workload = [sdss.template("cone_search")(random.Random(4))]
        evaluator = WorkloadEvaluator(catalog)
        evaluator.warm_up(workload)
        with closing(ProcessPoolBackplane(
                evaluator, processes=2)) as backplane:
            assert backplane.warm_up(workload) == 0

    def test_bounded_parent_pool_bounds_workers_too(self):
        """A capacity-capped host stays capped: the parent's pool bound
        is mirrored into each worker evaluator, and warm-up still ships
        every built entry (each task encodes its result before any
        later eviction can drop it)."""
        from repro.evaluation import InumCachePool

        catalog = make_sdss(scale=0.01)
        rng = random.Random(21)
        workload = [sdss.template("cone_search")(rng) for __ in range(6)]
        evaluator = WorkloadEvaluator(catalog, pool=InumCachePool(capacity=3))
        with closing(ProcessPoolBackplane(
                evaluator, processes=2)) as backplane:
            calls = backplane.warm_up(workload)
        assert calls > 0
        assert len(evaluator.pool) <= 3

    def test_single_process_fallback(self):
        catalog = make_sdss(scale=0.01)
        workload = [sdss.template("cone_search")(random.Random(6))]
        evaluator = WorkloadEvaluator(catalog)
        with closing(ProcessPoolBackplane(
                evaluator, processes=1)) as backplane:
            calls = backplane.warm_up(workload)
        assert calls > 0 and len(evaluator.pool) == 1


class TestServiceKillRestore:
    """A killed TuningService restored from --state-dir emits the same
    subsequent recommendations as an uninterrupted run."""

    OPTIONS = dict(recommend_every=15, window=20)

    @staticmethod
    def make_service():
        service = TuningService(shards=2)
        service.add_backplane("sdss", make_sdss(scale=0.02))
        return service

    @staticmethod
    def stream():
        return drifting_stream(default_phases(12), seed=5)

    @staticmethod
    def fingerprint(session):
        return (
            [
                (r.at_query, r.phase, r.trigger, r.indexes)
                for r in session.recommendations
            ],
            session.status()["configuration"],
            [
                (e.at_query, e.from_phase, e.to_phase)
                for e in session.drift_events
            ],
            [
                (e.epoch, e.queries, e.observed_cost, e.configuration)
                for e in session.report.epochs
            ],
        )

    def test_restored_run_matches_uninterrupted(self, tmp_path):
        uninterrupted = self.make_service()
        uninterrupted.add_tenant("t0", "sdss", **self.OPTIONS)
        uninterrupted.run_scheduled({"t0": self.stream()})

        # Kill mid-stream (mid-epoch, mid-phase): 17 of 36 events.
        killed = self.make_service()
        killed.add_tenant("t0", "sdss", **self.OPTIONS)
        killed.run_scheduled(
            {"t0": itertools.islice(self.stream(), 17)}, finish=False
        )
        killed.save_state(tmp_path)

        resumed = self.make_service()
        restored = resumed.load_state(tmp_path)
        assert set(restored) == {"t0"}
        session = resumed.tenant("t0")
        assert session.queries == 17
        resumed.run_scheduled(
            {"t0": itertools.islice(self.stream(), 17, None)}
        )

        assert self.fingerprint(session) == self.fingerprint(
            uninterrupted.tenant("t0")
        )

    def test_cold_start_returns_empty(self, tmp_path):
        assert self.make_service().load_state(tmp_path) == {}

    def test_restore_missing_backplane_fails_clean_and_retries(self, tmp_path):
        """Restore validates before registering: a snapshot referencing
        an unregistered backplane fails without registering anything,
        and succeeds once the operator adds the backplane."""
        from repro.util import DesignError

        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        service.save_state(tmp_path)

        bare = TuningService(shards=2)  # no backplanes registered
        with pytest.raises(DesignError, match="backplane"):
            bare.load_state(tmp_path)
        assert not bare._tenants  # nothing half-restored
        bare.add_backplane("sdss", make_sdss(scale=0.02))
        assert set(bare.load_state(tmp_path)) == {"t0"}

    def test_restore_is_all_or_nothing_on_malformed_session(self, tmp_path):
        """A malformed session payload mid-list registers nothing: every
        session materializes before any is registered, so the retry with
        a fixed file starts clean."""
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        service.add_tenant("t1", "sdss", **self.OPTIONS)
        path = service.save_state(tmp_path)
        payload = json.loads(open(path).read())
        del payload["tenants"][1]["session"]["tuner"]["epoch_probes"]
        with open(path, "w") as f:
            json.dump(payload, f)
        fresh = self.make_service()
        with pytest.raises(WireFormatError, match="epoch_probes"):
            fresh.load_state(tmp_path)
        assert not fresh._tenants  # t0 was not half-registered

    def _with_pending(self, tmp_path, pending):
        """A saved two-tenant state file whose scheduler buffers are
        replaced by *pending*."""
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        service.add_tenant("t1", "sdss", **self.OPTIONS)
        path = service.save_state(tmp_path)
        payload = json.loads(open(path).read())
        payload["scheduler"]["pending"] = pending
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    def test_restore_is_all_or_nothing_on_malformed_pending_event(
            self, tmp_path):
        """Pending events are parsed before any session is registered: a
        malformed one raises a typed error with nothing registered, and
        the retry with a fixed file restores every tenant."""
        self._with_pending(tmp_path, {"t1": [[None, "SELECT ra FROM "
                                                    "photoobj"], ["x"]]})
        fresh = self.make_service()
        with pytest.raises(WireFormatError, match=r"pending\.t1\[1\]"):
            fresh.load_state(tmp_path)
        assert not fresh._tenants
        self._with_pending(tmp_path, {})
        assert set(fresh.load_state(tmp_path)) == {"t0", "t1"}

    def test_restore_refuses_pending_for_unrestored_tenant(self, tmp_path):
        """Buffered events for a tenant the file does not restore would
        otherwise sit in the service unseen until the next snapshot."""
        self._with_pending(tmp_path, {"ghost": [[None, "SELECT ra FROM "
                                                       "photoobj"]]})
        fresh = self.make_service()
        with pytest.raises(WireFormatError, match="ghost"):
            fresh.load_state(tmp_path)
        assert not fresh._tenants and fresh.queue_depths() == {}

    def test_state_file_version_checked(self, tmp_path):
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        path = service.save_state(tmp_path)
        payload = json.loads(open(path).read())
        payload["wire_version"] = 99
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.raises(WireFormatError, match="version"):
            self.make_service().load_state(tmp_path)

    def test_snapshot_is_json_and_versioned(self, tmp_path):
        service = self.make_service()
        service.add_tenant("t0", "sdss", **self.OPTIONS)
        service.run_scheduled(
            {"t0": itertools.islice(self.stream(), 5)}, finish=False
        )
        text = wire.dumps(service.snapshot())
        payload = wire.loads(text)
        assert payload["kind"] == wire.KIND_SERVICE
        assert payload["tenants"][0]["session"]["queries"] == 5
