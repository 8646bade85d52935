"""Tests for the INUM cost model: exactness, caching, partition extension."""

import random

import pytest

from repro.catalog import Index, VerticalFragment, VerticalLayout
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.whatif import Configuration

QUERIES = [
    "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12",
    "SELECT rmag FROM photoobj WHERE rmag < 15 AND type = 1",
    "SELECT p.ra, s.z FROM photoobj p, specobj s WHERE p.objid = s.objid AND s.z > 6.5",
    "SELECT type, COUNT(*) FROM photoobj WHERE gmag < 18 GROUP BY type",
    "SELECT ra FROM photoobj WHERE dec > 85 ORDER BY ra LIMIT 5",
]

CANDIDATES = [
    Index("photoobj", ("ra",)),
    Index("photoobj", ("rmag", "type")),
    Index("photoobj", ("objid",)),
    Index("specobj", ("z",)),
    Index("specobj", ("z",), include=("objid",)),
    Index("photoobj", ("gmag",)),
]


@pytest.fixture
def inum(sdss_catalog):
    return WorkloadEvaluator(sdss_catalog)


class TestBuildPhase:
    def test_warm_counts_calls(self, inum):
        calls = inum.warm_up([(q, 1.0) for q in QUERIES])
        assert calls > 0
        # Warming again costs nothing.
        assert inum.warm_up([(q, 1.0) for q in QUERIES]) == 0

    def test_cache_has_plans(self, inum):
        cache = inum.cache_for(QUERIES[2])
        assert len(cache.plans) >= 2  # at least unordered + one ordered vector
        for cached in cache.plans:
            assert cached.internal_cost >= 0
            assert {s.alias for s in cached.slots} == {"p", "s"}

    def test_single_table_has_single_slot(self, inum):
        cache = inum.cache_for(QUERIES[0])
        for cached in cache.plans:
            assert len(cached.slots) == 1


class TestExactness:
    """INUM's core promise: configuration costs match the real optimizer."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_optimizer_on_random_configs(self, sdss_catalog, inum, seed):
        rng = random.Random(seed)
        workload = [(q, 1.0) for q in QUERIES]
        for __ in range(4):
            config = Configuration(
                indexes=frozenset(rng.sample(CANDIDATES, rng.randint(0, 4)))
            )
            real = CostService(config.apply(sdss_catalog)).workload_cost(workload)
            estimate = inum.workload_cost(workload, config)
            assert estimate == pytest.approx(real, rel=0.02)

    def test_empty_config_matches_base(self, sdss_catalog, inum):
        workload = [(q, 1.0) for q in QUERIES]
        real = CostService(sdss_catalog).workload_cost(workload)
        assert inum.workload_cost(workload) == pytest.approx(real, rel=0.02)

    def test_no_optimizer_calls_during_evaluation(self, sdss_catalog, inum):
        workload = [(q, 1.0) for q in QUERIES]
        inum.warm_up(workload)
        before = inum.precompute_calls
        for ix in CANDIDATES:
            inum.workload_cost(workload, Configuration.of(ix))
        assert inum.precompute_calls == before


class TestMonotonicity:
    def test_more_indexes_never_cost_more(self, inum):
        workload = [(q, 1.0) for q in QUERIES]
        small = Configuration.of(CANDIDATES[0])
        large = Configuration(indexes=frozenset(CANDIDATES))
        assert inum.workload_cost(workload, large) <= inum.workload_cost(
            workload, small
        ) + 1e-6

    def test_irrelevant_index_changes_nothing(self, inum):
        sql = "SELECT ra FROM photoobj WHERE ra BETWEEN 10 AND 11"
        base = inum.cost(sql)
        with_z = inum.cost(sql, Configuration.of(Index("specobj", ("z",))))
        assert with_z == pytest.approx(base)


class TestPartitionExtension:
    """The paper's extension: INUM prices partitions without re-planning."""

    def test_vertical_layout_priced(self, sdss_catalog, inum):
        layout = VerticalLayout(
            "photoobj",
            (
                VerticalFragment("photoobj", ("objid", "ra", "dec")),
                VerticalFragment(
                    "photoobj", ("rmag", "gmag", "type", "flags", "status")
                ),
            ),
        )
        config = Configuration(layouts=(layout,))
        sql = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 0 AND 200"
        inum.cache_for(sql)
        before = inum.precompute_calls
        cheaper = inum.cost(sql, config)
        assert inum.precompute_calls == before  # no new optimizer calls
        assert cheaper < inum.cost(sql)

    def test_layout_cost_close_to_optimizer(self, sdss_catalog, inum):
        layout = VerticalLayout(
            "photoobj",
            (
                VerticalFragment("photoobj", ("objid", "ra", "dec")),
                VerticalFragment(
                    "photoobj", ("rmag", "gmag", "type", "flags", "status")
                ),
            ),
        )
        config = Configuration(layouts=(layout,))
        workload = [(QUERIES[0], 1.0)]
        real = CostService(config.apply(sdss_catalog)).workload_cost(workload)
        assert inum.workload_cost(workload, config) == pytest.approx(real, rel=0.05)


class TestSlotCacheConsistency:
    def test_repeated_evaluations_are_stable(self, inum):
        config = Configuration.of(*CANDIDATES[:3])
        workload = [(q, 1.0) for q in QUERIES]
        first = inum.workload_cost(workload, config)
        for __ in range(3):
            assert inum.workload_cost(workload, config) == first

    def test_evaluation_counter(self, inum):
        """Each evaluation is one pool probe, whatever the design."""
        probes = inum.pool.stats.hits + inum.pool.stats.misses
        inum.cost(QUERIES[0])
        inum.cost(QUERIES[0], Configuration.of(CANDIDATES[0]))
        assert inum.pool.stats.hits + inum.pool.stats.misses == probes + 2
