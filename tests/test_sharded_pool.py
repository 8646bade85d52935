"""Tests for the cache pool's get-or-build and the sharded pool:
routing stability, the global budget split, merged statistics, and
locking under concurrent eviction and warm-up."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.evaluation import (
    InumCachePool,
    PoolStats,
    ShardedInumCachePool,
    WorkloadEvaluator,
)
from repro.obs.catalogue import POOL_BUILD_SECONDS
from repro.util import DesignError
from repro.whatif import Configuration

from oracle import threaded_warm_up

Q_RA = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12"
Q_RMAG = "SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1"
Q_GROUP = "SELECT type, COUNT(*) FROM photoobj WHERE gmag < 18 GROUP BY type"
Q_JOIN = (
    "SELECT p.ra, s.z FROM photoobj p, specobj s "
    "WHERE p.objid = s.objid AND s.z > 6.5"
)
QUERIES = [Q_RA, Q_RMAG, Q_GROUP, Q_JOIN]


POOLS = {"pool": InumCachePool,
         "sharded": lambda: ShardedInumCachePool(shards=2)}


def _exploding():
    raise RuntimeError("boom")


def _builds_timed():
    """How many builds ``repro_pool_build_seconds`` has observed."""
    family = obs.metrics().snapshot()["histograms"].get(
        POOL_BUILD_SECONDS.name)
    return sum(sample["count"] for sample in family["samples"]) \
        if family else 0


@pytest.mark.parametrize("make_pool", POOLS.values(), ids=POOLS.keys())
class TestGetOrBuild:
    def test_failed_build_propagates_and_next_prober_retries(
            self, make_pool):
        pool = make_pool()
        with pytest.raises(RuntimeError):
            pool.get_or_build("sig", _exploding)
        assert "sig" not in pool  # a failed build puts nothing
        cache = pool.get_or_build("sig", _FakeCache)
        assert isinstance(cache, _FakeCache)
        assert "sig" in pool

    def test_resident_entry_is_a_plain_hit(self, make_pool):
        pool = make_pool()
        first = pool.get_or_build("sig", _FakeCache)
        again = pool.get_or_build(
            "sig", lambda: pytest.fail("must not rebuild")
        )
        assert again is first
        assert pool.stats.hits == 1 and pool.stats.misses == 1

    def test_each_completed_build_is_timed_once(self, make_pool):
        """``repro_pool_build_seconds`` observes one latency per miss
        whose build returned: none for a hit, none for a build that
        raised."""
        obs.reset()
        try:
            pool = make_pool()
            with pytest.raises(RuntimeError):
                pool.get_or_build("a", _exploding)
            assert _builds_timed() == 0
            for sql in ("a", "a", "b", "a"):
                pool.get_or_build(sql, _FakeCache)
            assert _builds_timed() == 2
            assert pool.stats.misses == 3 and pool.stats.hits == 2
        finally:
            obs.reset()


class _FakeCache:
    build_optimizer_calls = 0


class TestShardedRouting:
    def test_routing_is_stable_and_total(self):
        pool = ShardedInumCachePool(shards=4)
        texts = ["SELECT ra FROM photoobj WHERE ra < %d" % i
                 for i in range(40)]
        for sql in texts:
            assert pool.shard_index(sql) == pool.shard_index(sql)
            assert 0 <= pool.shard_index(sql) < 4
            pool.put(sql, _FakeCache())
        assert len(pool) == 40
        assert sum(size for size, __ in pool.shard_stats()) == 40
        assert sorted(pool.keys()) == sorted(texts)

    def test_routing_is_the_same_in_every_interpreter(self):
        """Under a pinned ``PYTHONHASHSEED`` two fresh interpreters route
        every key of a generated workload to the same shard, with
        address randomisation left on: the key is the statement text,
        whose hash holds no address (``hash(None)`` did before Python
        3.12)."""
        script = (
            "import json\n"
            "from repro.evaluation import ShardedInumCachePool, "
            "WorkloadEvaluator\n"
            "from repro.workloads import sdss_catalog, sdss_workload\n"
            "pool = ShardedInumCachePool(shards=4)\n"
            "evaluator = WorkloadEvaluator(sdss_catalog(scale=0.01), "
            "pool=pool)\n"
            "workload = sdss_workload(n_queries=60, seed=11)\n"
            "print(json.dumps([pool.shard_index(bq.sql) for bq, __, __ "
            "in evaluator.warm_targets(workload)]))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
        runs = [json.loads(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout) for __ in range(2)]
        assert len(runs[0]) > 20 and len(set(runs[0])) == 4
        assert runs[0] == runs[1]

    def test_get_put_contains_route_to_one_shard(self):
        pool = ShardedInumCachePool(shards=4)
        cache = _FakeCache()
        pool.put("sig", cache)
        assert "sig" in pool
        assert pool.get("sig") is cache
        assert len(pool.shard_for("sig")) == 1

    def test_invalid_shapes_rejected(self):
        with pytest.raises(DesignError):
            ShardedInumCachePool(shards=0)
        with pytest.raises(DesignError):
            ShardedInumCachePool(shards=4, capacity=0)
        with pytest.raises(DesignError):
            # A bounded pool must give each shard at least one entry.
            ShardedInumCachePool(shards=4, capacity=3)

    def test_global_capacity_splits_across_shards(self):
        pool = ShardedInumCachePool(shards=4, capacity=10)
        per_shard = [shard.capacity for shard in pool._shards]
        assert sum(per_shard) == 10
        assert max(per_shard) - min(per_shard) <= 1

    def test_eviction_is_per_shard_lru(self):
        pool = ShardedInumCachePool(shards=2, capacity=2)
        sigs = [("sig", i) for i in range(8)]
        for sig in sigs:
            pool.put(sig, _FakeCache())
        assert len(pool) == 2  # one resident entry per shard
        assert pool.stats.evictions == 6


class TestShardedStats:
    def test_merged_stats_sum_shard_counters(self):
        pool = ShardedInumCachePool(shards=3)
        for i in range(9):
            pool.get(("sig", i))  # 9 misses spread over shards
        for i in range(9):
            pool.put(("sig", i), _FakeCache())
        for i in range(9):
            pool.get(("sig", i))  # 9 hits
        merged = pool.stats
        assert merged.misses == 9 and merged.hits == 9
        assert merged.hit_rate == pytest.approx(0.5)
        by_shard = [PoolStats(**stats) for __, stats in pool.shard_stats()]
        assert PoolStats.merged(by_shard).as_dict() == merged.as_dict()

    def test_merged_is_a_snapshot_not_a_live_object(self):
        pool = ShardedInumCachePool(shards=2)
        before = pool.stats
        pool.get("sig")
        assert before.misses == 0
        assert pool.stats.misses == 1

    def test_stats_deterministic_under_concurrent_eviction(self):
        """Deflake pin: per-shard counters are copied under the shard
        lock and merged in fixed shard order, so a stats read racing
        builders/evictors on other threads still sums to exactly the
        work done once those threads join."""
        import threading

        pool = ShardedInumCachePool(shards=4, capacity=8)
        stop = threading.Event()
        reads = []

        def reader():
            while not stop.is_set():
                reads.append(pool.stats)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            workers = []
            for lane in range(4):
                def work(lane=lane):
                    for i in range(200):
                        sql = "SELECT %d FROM lane%d" % (i, lane)
                        if pool.get(sql) is None:
                            pool.put(sql, _FakeCache())
                workers = workers + [threading.Thread(target=work)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        finally:
            stop.set()
            thread.join()
        final = pool.stats
        # 800 distinct probes, all misses; every counter internally
        # consistent and reproducible read-over-read on the quiet pool.
        assert final.misses == 800 and final.hits == 0
        assert final.evictions == 800 - len(pool)
        assert pool.stats.as_dict() == final.as_dict()
        for snapshot in reads:
            assert snapshot.misses >= snapshot.evictions


class TestShardedAsEvaluatorPool:
    """A WorkloadEvaluator takes the sharded pool interchangeably."""

    def _evaluators(self, catalog):
        flat = WorkloadEvaluator(catalog, pool=InumCachePool())
        sharded = WorkloadEvaluator(
            catalog, pool=ShardedInumCachePool(shards=4)
        )
        return flat, sharded

    def test_costs_identical_to_flat_pool(self, sdss_catalog):
        flat, sharded = self._evaluators(sdss_catalog)
        workload = [(q, 1.0) for q in QUERIES]
        for config in (Configuration.empty(),):
            assert flat.workload_cost(workload, config) == \
                sharded.workload_cost(workload, config)
        assert flat.pool.stats.optimizer_calls == \
            sharded.pool.stats.optimizer_calls

    def test_ownership_check_applies(self, sdss_catalog):
        pool = ShardedInumCachePool(shards=2)
        WorkloadEvaluator(sdss_catalog, pool=pool)
        with pytest.raises(ValueError):
            # A clone is a *different* catalog object; keys carry
            # no catalog identity, so the pool must refuse it.
            WorkloadEvaluator(sdss_catalog.clone(), pool=pool)

    def test_second_owner_is_refused(self, sdss_catalog):
        pool = ShardedInumCachePool(shards=2)
        owner = WorkloadEvaluator(sdss_catalog, pool=pool)
        with pytest.raises(ValueError):
            WorkloadEvaluator(sdss_catalog, pool=pool)
        assert all(shard._owner() is owner for shard in pool._shards)

    def test_warm_up_concurrent_equals_sequential(self, sdss_catalog):
        flat, sharded = self._evaluators(sdss_catalog)
        workload = [(q, 1.0) for q in QUERIES]
        calls_seq = flat.warm_up(workload)
        calls_par = threaded_warm_up(sharded, workload, threads=4)
        assert calls_seq == calls_par
        assert len(flat.pool) == len(sharded.pool)
        assert set(flat.pool.keys()) == set(sharded.pool.keys())
        assert flat.workload_cost(workload) == sharded.workload_cost(workload)

    def test_eviction_broadcast_prunes_evaluator_memos(self, sdss_catalog):
        pool = ShardedInumCachePool(shards=2, capacity=2)
        evaluator = WorkloadEvaluator(sdss_catalog, pool=pool)
        for q in QUERIES:
            evaluator.workload_cost([(q, 1.0)])
        # Memos derived from evicted caches are gone: at most one
        # slot-cost bucket per resident entry.
        assert len(evaluator._slot_memo) <= len(pool)
