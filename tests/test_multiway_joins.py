"""Stress tests: 3- and 4-way join planning and execution — and the
heavy INUM build (three aliases, twelve order vectors, one disconnected
pair) that shares its relation-subset path sets between the vectors."""

import math

import pytest

from repro.catalog import Catalog, Column, DataType, Distribution, Index, Table
from repro.optimizer import CostService, PlannerSettings
from repro.optimizer import paths as P
from repro.optimizer import planner
from repro.sql.binder import bind_statement
from repro.workloads import sdss_catalog as full_sdss_catalog
from repro.workloads import tpch_catalog

from datagen import generate_database
from executor import run_query
from oracle import build_with_plans, reference_planning


def star_catalog(rows=800):
    """A small star schema: fact + three dimensions."""
    catalog = Catalog()
    catalog.add_table(
        Table(
            "fact",
            [
                Column("fid", DataType.INT, Distribution(kind="sequence")),
                Column("d1", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=19)),
                Column("d2", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=14)),
                Column("d3", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=9)),
                Column("m", DataType.DOUBLE,
                       Distribution(kind="uniform", low=0.0, high=100.0)),
            ],
            row_count=rows,
        ).build_stats()
    )
    for name, n in (("dim1", 20), ("dim2", 15), ("dim3", 10)):
        catalog.add_table(
            Table(
                name,
                [
                    Column("id", DataType.INT, Distribution(kind="sequence")),
                    Column("attr", DataType.INT,
                           Distribution(kind="uniform_int", low=0, high=4)),
                ],
                row_count=n,
            ).build_stats()
        )
    return catalog


FOUR_WAY = (
    "SELECT f.fid, a.attr, b.attr, c.attr "
    "FROM fact f, dim1 a, dim2 b, dim3 c "
    "WHERE f.d1 = a.id AND f.d2 = b.id AND f.d3 = c.id AND f.m < 25"
)


class TestPlanning:
    def test_four_way_join_plans(self):
        catalog = star_catalog()
        plan = CostService(catalog).plan(FOUR_WAY)
        joins = [n for n in plan.walk() if "Join" in n.node_type or n.node_type == "NestLoop"]
        assert len(joins) == 3
        assert math.isfinite(plan.total_cost)

    def test_four_way_with_indexes_not_worse(self):
        catalog = star_catalog()
        indexed = catalog.clone()
        for name in ("dim1", "dim2", "dim3"):
            indexed.add_index(Index(name, ("id",)))
        indexed.add_index(Index("fact", ("d1",)))
        assert CostService(indexed).cost(FOUR_WAY) <= CostService(catalog).cost(
            FOUR_WAY
        ) + 1e-6

    def test_tpch_three_way_join(self):
        catalog = tpch_catalog(scale=0.01)
        sql = (
            "SELECT c.c_custkey, o.o_orderkey, l.l_quantity "
            "FROM customer c, orders o, lineitem l "
            "WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey "
            "AND c.c_mktsegment = 2 AND l.l_shipdate < 500"
        )
        plan = CostService(catalog).plan(sql)
        assert math.isfinite(plan.total_cost)

    def test_join_order_independent_of_from_order(self):
        """The DP must find the same best cost however FROM is written."""
        catalog = star_catalog()
        svc = CostService(catalog)
        a = svc.cost(
            "SELECT f.fid FROM fact f, dim1 a, dim2 b "
            "WHERE f.d1 = a.id AND f.d2 = b.id"
        )
        b = svc.cost(
            "SELECT f.fid FROM dim2 b, fact f, dim1 a "
            "WHERE f.d2 = b.id AND f.d1 = a.id"
        )
        assert a == pytest.approx(b, rel=1e-9)


# The ledger's heavy statement (``benchmarks/e2e/workloads.py``): p joins
# s and n, s and n share no clause — {s, n} exists only as a cartesian
# product — and the vectors are 3 (p) x 2 (s) x 2 (n).
CROSS_MATCH = (
    "SELECT p.objid, s.z, n.distance "
    "FROM photoobj p, specobj s, neighbors n "
    "WHERE p.objid = s.bestobjid AND p.objid = n.objid "
    "AND s.z > 1.250 AND n.distance < 0.0300 AND p.rmag < 20.50 "
    "ORDER BY p.ra LIMIT 500"
)


class TestOneEnumerationPerBuild:
    """``build_cache`` hands every ``plan_query`` of a build one dict of
    subset path sets (ISSUE 24)."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts of ``_join_pair`` calls and base-relation
        enumerations."""
        seen = {"pairs": 0, "bases": 0}

        def counting(real, key):
            def wrapper(*args, **kwargs):
                seen[key] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            planner._Planner, "_join_pair",
            counting(planner._Planner._join_pair, "pairs"),
        )
        monkeypatch.setattr(
            P, "access_paths", counting(P.access_paths, "bases"))
        return seen

    def build(self, catalog, settings=None):
        return build_with_plans(
            bind_statement(CROSS_MATCH, catalog), catalog,
            settings or PlannerSettings(),
        )

    def test_cross_match_enumerates_each_subset_once(self, counted):
        catalog = full_sdss_catalog(scale=0.05)
        shared, shared_plans = self.build(catalog)
        assert shared.build_optimizer_calls == len(shared_plans) == 12
        # 7 base sets (3 + 2 + 2 distinct inputs) instead of 12 x 3; the
        # pairs once per distinct input pair — 6 + 6 + 4, the cartesian
        # {s, n} costing its two splits a time — and the full set, never
        # shared, 12 x 6.
        assert counted["bases"] == 7
        assert counted["pairs"] == 6 * 2 + 6 * 2 + 4 * 2 + 12 * 6 == 104

        # What build_cache did before: a fresh search per vector.
        counted.update(pairs=0, bases=0)
        with reference_planning():
            reference, reference_plans = self.build(catalog)
        assert counted["bases"] == 36 and reference_plans == shared_plans
        assert shared.plans == reference.plans
        assert len({
            tuple(order for __, order in plan.order_vector)
            for plan in shared.plans
        }) == len(shared.plans) > 1

    @pytest.mark.parametrize("settings", [
        PlannerSettings(enable_hashjoin=False),
        PlannerSettings(enable_mergejoin=False, enable_nestloop=False),
        PlannerSettings(work_mem=32 * 1024),
    ], ids=["no-hash", "hash-only", "small-mem"])
    def test_cross_match_terms_equal_cold_planning(self, settings):
        catalog = full_sdss_catalog(scale=0.05)
        shared, shared_plans = self.build(catalog, settings)
        with reference_planning():
            reference, reference_plans = self.build(catalog, settings)
        assert reference_plans == shared_plans
        assert shared.plans == reference.plans

    def test_the_dict_is_the_callers_and_dies_with_the_build(self):
        """``plan_query`` keeps nothing: without *subsets* every call
        enumerates afresh, with it the caller's dict holds base sets and
        proper subsets only."""
        catalog = full_sdss_catalog(scale=0.05)
        bq = bind_statement(CROSS_MATCH, catalog)
        subsets = {}
        first = planner.plan_query(bq, catalog, subsets=subsets)
        sizes = sorted(len(key) for key in subsets)
        assert sizes == [1, 1, 1, 2, 2, 2]
        frozen = {key: list(pset) for key, pset in subsets.items()}
        again = planner.plan_query(bq, catalog, subsets=subsets)
        assert again.explain() == first.explain()
        assert {key: list(pset) for key, pset in subsets.items()} == frozen
        assert planner.plan_query(bq, catalog).explain() == first.explain()


class TestExecution:
    @pytest.fixture(scope="class")
    def env(self):
        catalog = star_catalog(rows=400)
        return catalog, generate_database(catalog, seed=2)

    def test_four_way_results_match_across_designs(self, env):
        catalog, database = env
        indexed = catalog.clone()
        for name in ("dim1", "dim2", "dim3"):
            indexed.add_index(Index(name, ("id",)))
        __, base = run_query(FOUR_WAY, catalog, database)
        __, tuned = run_query(FOUR_WAY, indexed, database)
        assert sorted(map(repr, base)) == sorted(map(repr, tuned))
        assert base  # the join actually produces rows

    def test_four_way_matches_forced_join_methods(self, env):
        catalog, database = env
        __, expected = run_query(FOUR_WAY, catalog, database)
        for settings in (
            PlannerSettings(enable_hashjoin=False),
            PlannerSettings(enable_mergejoin=False, enable_nestloop=False),
        ):
            __, actual = run_query(FOUR_WAY, catalog, database, settings)
            assert sorted(map(repr, actual)) == sorted(map(repr, expected))

    def test_aggregate_over_four_way(self, env):
        catalog, database = env
        sql = (
            "SELECT a.attr, COUNT(*) FROM fact f, dim1 a, dim2 b, dim3 c "
            "WHERE f.d1 = a.id AND f.d2 = b.id AND f.d3 = c.id "
            "GROUP BY a.attr ORDER BY a.attr"
        )
        __, rows = run_query(sql, catalog, database)
        total = sum(count for __, count in rows)
        __, flat = run_query(FOUR_WAY.replace(" AND f.m < 25", ""), catalog, database)
        assert total == len(flat)


class TestConfigurationSerialization:
    def test_round_trip(self, sdss_catalog):
        from repro.catalog import VerticalFragment, VerticalLayout
        from repro.evaluation import wire
        from repro.whatif import Configuration

        config = Configuration(
            indexes=frozenset([Index("photoobj", ("ra", "dec"))]),
            layouts=(
                VerticalLayout(
                    "specobj",
                    (
                        VerticalFragment("specobj", ("specid", "z")),
                        VerticalFragment(
                            "specobj", ("objid", "zerr", "class")
                        ),
                    ),
                ),
            ),
        )
        restored = wire.record_from_wire(Configuration,
                                         wire.record_to_wire(config))
        assert restored == config
