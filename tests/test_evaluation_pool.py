"""Cache-behavior tests for the shared INUM pool: one entry per bound
statement text, LRU order, and exact statistics counters."""

import pytest

from repro.catalog import Index
from repro.evaluation import InumCachePool, WorkloadEvaluator
from repro.util import DesignError
from repro.whatif import Configuration

from oracle import PerTextEvaluator

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


def pool_keys_of(catalog, *texts):
    """The pool's keys after building an entry for each of *texts*."""
    evaluator = WorkloadEvaluator(catalog)
    for sql in texts:
        evaluator.cache_for(sql)
    return evaluator.pool.keys()


class TestOneKeyPerStatement:
    def test_instances_of_one_template_get_their_own_entries_and_costs(
            self, sdss_catalog):
        """Two texts of one shape (a constant apart) are two statements:
        two pool entries, each priced by its own numbers."""
        evaluator = WorkloadEvaluator(sdss_catalog)
        narrow = "SELECT ra FROM photoobj WHERE rmag < 14"
        wide = "SELECT ra FROM photoobj WHERE rmag < 22"
        assert evaluator.bound(narrow).template is \
            evaluator.bound(wide).template
        first, second = evaluator.cache_for(narrow), evaluator.cache_for(wide)
        assert first is not second
        assert evaluator.pool.keys() == [narrow, wide]
        assert evaluator.pool.stats.misses == 2
        config = Configuration.of(Index("photoobj", ("rmag",)))
        for sql in (narrow, wide):
            assert evaluator.cost(sql, config) == \
                PerTextEvaluator(sdss_catalog).cost(sql, config)
        assert evaluator.cost(narrow, config) < evaluator.cost(wide, config)

    def test_the_key_is_the_bound_text(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        spaced = "SELECT  ra FROM photoobj   WHERE ra < 10"
        bq = evaluator.bound(spaced)
        evaluator.cache_for(spaced)
        assert evaluator.pool.keys() == [bq.sql] and bq.sql != spaced

    def test_different_constants_do_not_collide(self, sdss_catalog):
        a = "SELECT ra FROM photoobj WHERE ra < 10"
        b = "SELECT ra FROM photoobj WHERE ra < 20"
        assert pool_keys_of(sdss_catalog, a, b) == [a, b]

    def test_different_projections_do_not_collide(self, sdss_catalog):
        a = "SELECT ra FROM photoobj WHERE ra < 10"
        b = "SELECT ra, dec FROM photoobj WHERE ra < 10"
        assert pool_keys_of(sdss_catalog, a, b) == [a, b]

    def test_limit_and_order_matter(self, sdss_catalog):
        base = "SELECT ra FROM photoobj WHERE dec > 85"
        ordered = base + " ORDER BY ra LIMIT 5"
        assert pool_keys_of(sdss_catalog, base, ordered) == [base, ordered]

    def test_table_order_is_its_own_statement(self, sdss_catalog):
        """Listing the tables the other way round is another text, so
        another entry, priced as its own build prices it."""
        evaluator = WorkloadEvaluator(sdss_catalog)
        first = evaluator.cache_for(Q_JOIN)
        swapped = evaluator.cache_for(Q_JOIN_SWAPPED)
        assert swapped is not first and len(evaluator.pool) == 2
        config = Configuration.of(Index("specobj", ("z",)))
        assert evaluator.cost(Q_JOIN_SWAPPED, config) == \
            PerTextEvaluator(sdss_catalog).cost(Q_JOIN_SWAPPED, config)


class TestAliasRenamedQueries:
    def test_renamed_query_builds_its_own_entry(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
        first = evaluator.cache_for(Q_JOIN)
        calls_after_first = evaluator.precompute_calls
        second = evaluator.cache_for(Q_JOIN_RENAMED)
        assert second is not first
        assert evaluator.precompute_calls > calls_after_first
        assert evaluator.pool.keys() == [Q_JOIN, Q_JOIN_RENAMED]
        assert evaluator.pool.stats.hits == 0
        assert evaluator.pool.stats.misses == 2

    def test_renamed_queries_cost_identically(self, sdss_catalog):
        evaluator = WorkloadEvaluator(sdss_catalog)
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
        assert evaluator.pool.keys() == [Q_RA, Q_RMAG]

        evaluator.cache_for(Q_GROUP)  # evicts Q_RA (oldest)
        assert evaluator.pool.stats.evictions == 1
        assert Q_RA not in evaluator.pool
        assert Q_RMAG in evaluator.pool

    def test_access_refreshes_recency(self, sdss_catalog):
        evaluator = self._evaluator(sdss_catalog, capacity=2)
        evaluator.cache_for(Q_RA)
        evaluator.cache_for(Q_RMAG)
        evaluator.cache_for(Q_RA)  # Q_RA becomes most recent
        evaluator.cache_for(Q_GROUP)  # now Q_RMAG is the LRU victim
        assert evaluator.bound(Q_RA).sql in evaluator.pool
        assert evaluator.bound(Q_RMAG).sql not in evaluator.pool

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

    def test_empty_pool_hit_rate(self):
        assert InumCachePool().stats.hit_rate == 0.0


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
        assert owner.bound(Q_RA).sql in pool

    def test_ownerless_pool_serves_alone(self, sdss_catalog):
        """A pool nobody attached (a wire replay's) evicts without an
        owner to tell."""
        source = WorkloadEvaluator(sdss_catalog)
        pool = InumCachePool(capacity=1)
        pool.put("a", source.cache_for(Q_RA))
        pool.put("b", source.cache_for(Q_RMAG))
        assert pool.keys() == ["b"]

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
        pool.put("other", pool.get(pool.keys()[0]))  # evicts, no owner


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

    def test_both_paths_share_one_record_per_statement(self):
        """Per text one bound statement, whichever path binds it first."""
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
        assert evaluator.bound(Q_RA).sql not in pool
        assert sql not in evaluator._slot_memo

