"""Cache-behavior tests for the shared INUM pool: LRU order, signature
collisions for alias-renamed queries, and exact statistics counters."""

import pytest

from repro.evaluation import InumCachePool, WorkloadEvaluator, query_signature
from repro.sql.binder import bind_statement
from repro.util import DesignError
from repro.whatif import Configuration

Q_RA = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12"
Q_RMAG = "SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1"
Q_GROUP = "SELECT type, COUNT(*) FROM photoobj WHERE gmag < 18 GROUP BY type"
Q_JOIN = (
    "SELECT p.ra, s.z FROM photoobj p, specobj s "
    "WHERE p.objid = s.objid AND s.z > 6.5"
)
Q_JOIN_RENAMED = (
    "SELECT alpha.ra, beta.z FROM photoobj alpha, specobj beta "
    "WHERE alpha.objid = beta.objid AND beta.z > 6.5"
)
Q_JOIN_SWAPPED = (
    "SELECT b.ra, a.z FROM specobj a, photoobj b "
    "WHERE b.objid = a.objid AND a.z > 6.5"
)


class TestSignatures:
    def test_alias_renaming_collides(self, sdss_catalog):
        a = query_signature(bind_statement(Q_JOIN, sdss_catalog))
        b = query_signature(bind_statement(Q_JOIN_RENAMED, sdss_catalog))
        assert a == b

    def test_table_order_is_canonicalized(self, sdss_catalog):
        a = query_signature(bind_statement(Q_JOIN, sdss_catalog))
        b = query_signature(bind_statement(Q_JOIN_SWAPPED, sdss_catalog))
        assert a == b

    def test_different_constants_do_not_collide(self, sdss_catalog):
        a = query_signature(
            bind_statement("SELECT ra FROM photoobj WHERE ra < 10", sdss_catalog)
        )
        b = query_signature(
            bind_statement("SELECT ra FROM photoobj WHERE ra < 20", sdss_catalog)
        )
        assert a != b

    def test_different_projections_do_not_collide(self, sdss_catalog):
        a = query_signature(
            bind_statement("SELECT ra FROM photoobj WHERE ra < 10", sdss_catalog)
        )
        b = query_signature(
            bind_statement(
                "SELECT ra, dec FROM photoobj WHERE ra < 10", sdss_catalog
            )
        )
        assert a != b

    def test_limit_and_order_matter(self, sdss_catalog):
        base = "SELECT ra FROM photoobj WHERE dec > 85"
        a = query_signature(bind_statement(base, sdss_catalog))
        b = query_signature(
            bind_statement(base + " ORDER BY ra LIMIT 5", sdss_catalog)
        )
        assert a != b


class TestAliasRenamedSharing:
    def test_renamed_query_hits_shared_entry(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        first = evaluator.cache_for(Q_JOIN)
        calls_after_first = evaluator.precompute_calls
        second = evaluator.cache_for(Q_JOIN_RENAMED)
        assert second is first  # one shared pool entry
        assert evaluator.precompute_calls == calls_after_first
        assert len(evaluator.pool) == 1
        assert evaluator.pool.stats.hits == 1
        assert evaluator.pool.stats.misses == 1

    def test_renamed_queries_cost_identically(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        from repro.catalog import Index

        config = Configuration.of(Index("specobj", ("z",)))
        assert evaluator.cost(Q_JOIN, config) == pytest.approx(
            evaluator.cost(Q_JOIN_RENAMED, config), rel=1e-12
        )


class TestLru:
    def _evaluator(self, catalog, capacity):
        return WorkloadEvaluator(catalog, pool=InumCachePool(capacity=capacity))

    def test_eviction_order_is_least_recently_used(self, sdss_catalog):
        evaluator = self._evaluator(sdss_catalog, capacity=2)
        evaluator.cache_for(Q_RA)
        evaluator.cache_for(Q_RMAG)
        sig_ra = evaluator.signature(Q_RA)
        sig_rmag = evaluator.signature(Q_RMAG)
        assert evaluator.pool.signatures() == [sig_ra, sig_rmag]

        evaluator.cache_for(Q_GROUP)  # evicts Q_RA (oldest)
        assert evaluator.pool.stats.evictions == 1
        assert sig_ra not in evaluator.pool
        assert sig_rmag in evaluator.pool

    def test_access_refreshes_recency(self, sdss_catalog):
        evaluator = self._evaluator(sdss_catalog, capacity=2)
        evaluator.cache_for(Q_RA)
        evaluator.cache_for(Q_RMAG)
        evaluator.cache_for(Q_RA)  # Q_RA becomes most recent
        evaluator.cache_for(Q_GROUP)  # now Q_RMAG is the LRU victim
        assert evaluator.signature(Q_RA) in evaluator.pool
        assert evaluator.signature(Q_RMAG) not in evaluator.pool

    def test_evicted_entry_is_rebuilt_and_costs_are_stable(self, sdss_catalog):
        evaluator = self._evaluator(sdss_catalog, capacity=1)
        first = evaluator.cost(Q_RA)
        evaluator.cost(Q_RMAG)  # evicts Q_RA's cache
        assert evaluator.cost(Q_RA) == pytest.approx(first, rel=1e-12)
        assert evaluator.pool.stats.evictions >= 2

    def test_eviction_does_not_lose_call_accounting(self, sdss_catalog):
        evaluator = self._evaluator(sdss_catalog, capacity=1)
        evaluator.cache_for(Q_RA)
        calls = evaluator.precompute_calls
        evaluator.cache_for(Q_RMAG)
        assert evaluator.precompute_calls > calls  # cumulative, not resident

    def test_invalid_capacity_rejected(self):
        with pytest.raises(DesignError):
            InumCachePool(capacity=0)


class TestStatsExactness:
    def test_scripted_sequence(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        stats = evaluator.pool.stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)

        cache = evaluator.cache_for(Q_RA)  # miss + build
        assert (stats.hits, stats.misses) == (0, 1)
        assert stats.optimizer_calls == cache.build_optimizer_calls
        assert evaluator.precompute_calls == stats.optimizer_calls

        evaluator.cache_for(Q_RA)  # hit
        evaluator.cache_for(Q_RA)  # hit
        assert (stats.hits, stats.misses) == (2, 1)

        build_calls = stats.optimizer_calls
        evaluator.cost(Q_RA)  # evaluation: one pool hit, zero new builds
        assert (stats.hits, stats.misses) == (3, 1)
        assert stats.optimizer_calls == build_calls
        assert evaluator.evaluations == 1
        assert stats.hit_rate == pytest.approx(0.75)

    def test_stats_surface_merges_pool_and_evaluator(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        evaluator.cost(Q_RA, Configuration.empty())
        merged = evaluator.stats
        assert merged["pool_size"] == 1
        assert merged["misses"] == 1
        assert merged["evaluations"] == 1
        assert merged["optimizer_calls"] == evaluator.precompute_calls
        assert merged["exact_optimizer_calls"] == 0

    def test_empty_pool_hit_rate(self):
        assert InumCachePool().stats.hit_rate == 0.0


class TestClearCaches:
    def test_clear_resets_pool_and_memos(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        evaluator.cost(Q_RA, Configuration.empty())
        workload = [(Q_RA, 1.0), (Q_RMAG, 1.0)]
        evaluator.workload_costs(workload, [Configuration.empty()])
        # The delta seam captures a parent state on the compiled kernel.
        evaluator.evaluate_deltas(
            workload, Configuration.empty(), [Configuration.empty()]
        )
        assert len(evaluator.pool) > 0
        assert evaluator.pool.kernel_count > 0
        assert evaluator._slot_memo
        assert evaluator._compiled
        (compiled,) = evaluator._compiled.values()
        assert compiled.kernel._delta_states
        before = evaluator.cost(Q_RA)

        evaluator.clear_caches()
        assert len(evaluator.pool) == 0
        assert evaluator.pool.kernel_count == 0
        assert not evaluator._slot_memo
        assert not evaluator._compiled
        # Costs are rebuilt identically after a clear.
        assert evaluator.cost(Q_RA) == pytest.approx(before, rel=1e-12)

    def test_pool_clear_returns_dropped_entries(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        evaluator.cache_for(Q_RA)
        evaluator.cache_for(Q_RMAG)
        dropped = evaluator.pool.clear()
        assert len(dropped) == 2
        assert evaluator.pool.stats.evictions == 0


class TestPoolOwnership:
    def test_shared_pool_rejects_different_catalog(self, sdss_catalog):
        pool = InumCachePool()
        WorkloadEvaluator(sdss_catalog, pool=pool)
        with pytest.raises(ValueError):
            WorkloadEvaluator(sdss_catalog.clone(), pool=pool)

    def test_second_owner_is_refused(self, sdss_catalog):
        pool = InumCachePool()
        owner = WorkloadEvaluator(sdss_catalog, pool=pool)
        with pytest.raises(ValueError):
            WorkloadEvaluator(sdss_catalog, pool=pool)
        owner.cache_for(Q_RA)  # the first owner keeps serving
        assert owner.signature(Q_RA) in pool

    def test_ownerless_pool_serves_alone(self, sdss_catalog):
        """A pool nobody attached (a wire replay's) evicts and clears
        without an owner to tell."""
        source = WorkloadEvaluator(sdss_catalog)
        pool = InumCachePool(capacity=1)
        pool.put("a", source.cache_for(Q_RA))
        pool.put("b", source.cache_for(Q_RMAG))
        assert pool.signatures() == ["b"]
        assert len(pool.clear()) == 1

    def test_pool_holds_its_owner_weakly(self, sdss_catalog):
        import gc
        import weakref

        pool = InumCachePool(capacity=1)
        owner = WorkloadEvaluator(sdss_catalog, pool=pool)
        owner.cache_for(Q_RA)
        ref = weakref.ref(owner)
        del owner
        gc.collect()
        assert ref() is None
        pool.put("other", pool.get(pool.signatures()[0]))  # evicts, no owner


class TestExactServiceBound:
    def test_exact_services_are_lru_bounded_with_pinned_base(self, sdss_catalog):
        from repro.catalog import Index
        from repro.evaluation import memos

        evaluator = WorkloadEvaluator(sdss_catalog)
        base = evaluator.exact_service()
        for i in range(memos.EXACT_SERVICES.bound + 20):
            config = Configuration.of(
                Index("photoobj", ("ra",), name="ix_tmp_%d" % i)
            )
            evaluator.exact_service(config)
        assert len(evaluator._exact_services) == memos.EXACT_SERVICES.bound
        assert evaluator.exact_service() is base  # base never evicted

    def test_clear_caches_keeps_base_service(self, sdss_catalog):
        from repro.catalog import Index

        evaluator = WorkloadEvaluator(sdss_catalog)
        base = evaluator.exact_service()
        evaluator.exact_service(Configuration.of(Index("photoobj", ("ra",))))
        evaluator.clear_caches()
        assert evaluator.exact_service() is base
        assert not evaluator._exact_services

    def test_both_paths_share_one_record_per_statement(self):
        """Per text one bound statement, whichever path binds it first;
        ``clear_caches`` empties the records and keeps the service."""
        import random

        from repro.catalog import Index
        from repro.workloads import sdss, sdss_catalog

        evaluator = WorkloadEvaluator(sdss_catalog(scale=0.05))
        base = evaluator.exact_service()
        design = Configuration.of(Index("photoobj", ("ra",)),
                                  Index("specobj", ("z",)))
        for i, name in enumerate(sorted(sdss.TEMPLATE_REGISTRY)):
            inum_first = sdss.template(name)(random.Random(i))
            exact_first = sdss.template(name)(random.Random(i + 100))
            assert evaluator.bound(inum_first) is \
                evaluator.exact_service(design).bound(inum_first)
            assert evaluator.exact_service(design).bound(exact_first) is \
                evaluator.bound(exact_first)
        assert base.statements
        evaluator.clear_caches()
        assert evaluator.exact_service() is base
        assert not base.statements

    def test_clear_caches_re_reads_statistics_on_the_exact_path(self):
        """The pinned base service survives ``clear_caches`` but its
        plan cache does not: after re-ANALYZE plus a clear, the exact
        cost is a fresh evaluator's and the INUM cost."""
        from repro.workloads import sdss_catalog

        catalog = sdss_catalog(scale=0.05)
        sql = ("SELECT objid, ra, dec, zmag, zerr FROM photoobj "
               "WHERE zmag < 14.52 AND type = 5")
        evaluator = WorkloadEvaluator(catalog)
        base = evaluator.exact_service()
        before = evaluator.exact_service().cost(sql)
        assert before == evaluator.cost(sql)
        table = catalog.table("photoobj")
        table.row_count *= 10
        table.build_stats()
        evaluator.clear_caches()
        after = evaluator.exact_service().cost(sql)
        assert evaluator.exact_service() is base
        assert after != before
        assert after == WorkloadEvaluator(catalog).exact_service().cost(sql)
        assert after == evaluator.cost(sql)

    def test_eviction_prunes_the_owners_memos(self, sdss_catalog):
        """An eviction reaches the owner's memos through the pool's
        direct call, whichever code path triggered it."""
        pool = InumCachePool(capacity=2)
        evaluator = WorkloadEvaluator(sdss_catalog, pool=pool)
        evaluator.cost(Q_RA)
        sql = evaluator.cache_for(Q_RA).bound_query.sql
        assert sql in evaluator._slot_memo
        pool.put("x", evaluator.cache_for(Q_RMAG))
        pool.put("y", evaluator.cache_for(Q_GROUP))  # evicts Q_RA
        assert evaluator.signature(Q_RA) not in pool
        assert sql not in evaluator._slot_memo

    def test_pool_clear_prunes_the_owners_memos(self, sdss_catalog):
        pool = InumCachePool()
        evaluator = WorkloadEvaluator(sdss_catalog, pool=pool)
        evaluator.cost(Q_RA)
        sql = evaluator.cache_for(Q_RA).bound_query.sql
        assert sql in evaluator._slot_memo
        pool.clear()  # not through clear_caches
        assert len(pool) == 0
        assert sql not in evaluator._slot_memo
