"""Executor-backed validation: plans of every shape return identical rows,
and cost-model estimates track measured cardinalities."""

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.catalog import (
    Catalog,
    Column,
    DataType,
    Distribution,
    HorizontalPartitioning,
    Index,
    Table,
    VerticalFragment,
    VerticalLayout,
)
from repro.optimizer import PlannerSettings

from datagen import analyze_values, generate_database, generate_table
from executor import run_query
from test_backward_and_solver_props import share


def exec_catalog(rows=3000):
    catalog = Catalog()
    catalog.add_table(
        Table(
            "t",
            [
                Column("id", DataType.INT, Distribution(kind="sequence")),
                Column("a", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=49, correlation=0.9)),
                Column("b", DataType.DOUBLE,
                       Distribution(kind="uniform", low=0.0, high=100.0)),
                Column("c", DataType.INT,
                       Distribution(kind="zipf", n_values=5, s=1.0)),
            ],
            row_count=rows,
        ).build_stats()
    )
    catalog.add_table(
        Table(
            "u",
            [
                Column("uid", DataType.INT, Distribution(kind="sequence")),
                Column("tid", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=rows - 1)),
                Column("v", DataType.DOUBLE,
                       Distribution(kind="uniform", low=0.0, high=1.0)),
            ],
            row_count=max(50, rows // 8),
        ).build_stats()
    )
    return catalog


@pytest.fixture(scope="module")
def env():
    catalog = exec_catalog()
    database = generate_database(catalog, seed=3)
    indexed = catalog.clone()
    indexed.add_index(Index("t", ("a", "b")))
    indexed.add_index(Index("t", ("id",)))
    indexed.add_index(Index("u", ("v",)))
    indexed.add_index(Index("u", ("tid",)))
    return catalog, indexed, database


QUERIES = [
    "SELECT id, b FROM t WHERE a = 7 AND b < 50",
    "SELECT id FROM t WHERE a BETWEEN 10 AND 12",
    "SELECT id FROM t WHERE a IN (1, 5, 9)",
    "SELECT c, COUNT(*), AVG(b) FROM t WHERE b > 20 GROUP BY c ORDER BY c",
    "SELECT t.id, u.v FROM t, u WHERE t.id = u.tid AND u.v < 0.05",
    "SELECT COUNT(*) FROM t, u WHERE t.id = u.tid AND t.a = 3",
    "SELECT id, a FROM t WHERE b < 5 ORDER BY a, id LIMIT 10",
    "SELECT MIN(b), MAX(b), SUM(a) FROM t WHERE c = 1",
    "SELECT id FROM t WHERE a = 7 AND b BETWEEN 10 AND 90",
]


def rows_equal(r1, r2):
    return sorted(map(repr, r1)) == sorted(map(repr, r2))


class TestPlanEquivalence:
    """The core validation: physical design never changes query results."""

    @pytest.mark.parametrize("sql", QUERIES)
    def test_indexed_plan_matches_base_plan(self, env, sql):
        base_catalog, indexed_catalog, database = env
        __, base_rows = run_query(sql, base_catalog, database)
        plan, indexed_rows = run_query(sql, indexed_catalog, database)
        assert rows_equal(base_rows, indexed_rows)

    @pytest.mark.parametrize(
        "settings",
        [
            PlannerSettings(enable_hashjoin=False),
            PlannerSettings(enable_nestloop=False),
            PlannerSettings(enable_hashjoin=False, enable_nestloop=False),
            PlannerSettings(enable_bitmapscan=False),
        ],
    )
    def test_join_method_toggles_preserve_results(self, env, settings):
        __, indexed_catalog, database = env
        sql = "SELECT t.id, u.v FROM t, u WHERE t.id = u.tid AND u.v < 0.1"
        __, expected = run_query(sql, indexed_catalog, database)
        __, actual = run_query(sql, indexed_catalog, database, settings)
        assert rows_equal(expected, actual)

    def test_partitioned_layouts_preserve_results(self, env):
        base_catalog, __, database = env
        partitioned = base_catalog.clone()
        partitioned.set_vertical_layout(
            VerticalLayout(
                "t",
                (
                    VerticalFragment("t", ("id", "a")),
                    VerticalFragment("t", ("b", "c")),
                ),
            )
        )
        partitioned.set_horizontal_partitioning(
            HorizontalPartitioning("t", "a", (10, 20, 30, 40))
        )
        for sql in QUERIES:
            __, expected = run_query(sql, base_catalog, database)
            __, actual = run_query(sql, partitioned, database)
            assert rows_equal(expected, actual), sql


class TestOrderingAndLimit:
    def test_order_by_honored(self, env):
        base_catalog, indexed_catalog, database = env
        sql = "SELECT a, id FROM t WHERE b < 30 ORDER BY a"
        for catalog in (base_catalog, indexed_catalog):
            __, rows = run_query(sql, catalog, database)
            values = [r[0] for r in rows]
            assert values == sorted(values)

    def test_order_by_desc(self, env):
        base_catalog, __, database = env
        __, rows = run_query(
            "SELECT b FROM t WHERE a = 3 ORDER BY b DESC", base_catalog, database
        )
        values = [r[0] for r in rows]
        assert values == sorted(values, reverse=True)

    def test_limit_truncates(self, env):
        base_catalog, __, database = env
        __, rows = run_query("SELECT id FROM t LIMIT 7", base_catalog, database)
        assert len(rows) == 7


class TestEstimateAccuracy:
    def test_range_cardinality_close(self, env):
        base_catalog, __, database = env
        plan, rows = run_query(
            "SELECT id FROM t WHERE a BETWEEN 10 AND 12", base_catalog, database
        )
        assert plan.rows == pytest.approx(len(rows), rel=0.5)

    def test_equality_cardinality_close(self, env):
        base_catalog, __, database = env
        plan, rows = run_query(
            "SELECT id FROM t WHERE a = 25", base_catalog, database
        )
        assert plan.rows == pytest.approx(len(rows), rel=0.6)

    def test_join_cardinality_close(self, env):
        base_catalog, __, database = env
        plan, rows = run_query(
            "SELECT t.id FROM t, u WHERE t.id = u.tid", base_catalog, database
        )
        assert plan.rows == pytest.approx(len(rows), rel=0.5)


class TestDataGenerator:
    def test_sequence_is_identity(self):
        catalog = exec_catalog(rows=100)
        data = generate_table(catalog.table("t"), seed=0)
        assert data.columns["id"] == list(range(100))

    def test_seed_determinism(self):
        catalog = exec_catalog(rows=500)
        a = generate_table(catalog.table("t"), seed=5)
        b = generate_table(catalog.table("t"), seed=5)
        c = generate_table(catalog.table("t"), seed=6)
        assert a.columns == b.columns
        assert a.columns != c.columns

    def test_correlation_target_roughly_met(self):
        catalog = exec_catalog(rows=2000)
        data = generate_table(catalog.table("t"), seed=1)
        measured = analyze_values(data.columns["a"]).correlation
        assert measured > 0.7  # spec was 0.9

    def test_uniform_bounds_respected(self):
        catalog = exec_catalog(rows=1000)
        data = generate_table(catalog.table("t"), seed=2)
        assert all(0 <= v <= 100 for v in data.columns["b"])

    def test_analyze_into_refreshes_stats(self):
        catalog = exec_catalog(rows=1000)
        table = catalog.table("t")
        data = generate_table(table, seed=7)
        data.analyze_into(table)
        stats = table.stats("a")
        assert 40 <= stats.n_distinct <= 50


class TestExecutorProperties:
    @given(
        low=st.integers(0, 49),
        span=st.integers(0, 20),
        seed=st.integers(0, 3),
    )
    @hsettings(max_examples=share(0.25), deadline=None)
    def test_index_scan_equals_filter_scan(self, low, span, seed):
        catalog = exec_catalog(rows=800)
        database = generate_database(catalog, seed=seed)
        indexed = catalog.clone()
        indexed.add_index(Index("t", ("a",)))
        sql = "SELECT id FROM t WHERE a BETWEEN %d AND %d" % (low, low + span)
        __, expected = run_query(sql, catalog, database)
        __, actual = run_query(sql, indexed, database)
        assert rows_equal(expected, actual)

    @given(value=st.integers(-5, 55))
    @hsettings(max_examples=share(0.2), deadline=None)
    def test_equality_probe_matches_scan(self, value):
        catalog = exec_catalog(rows=800)
        database = generate_database(catalog, seed=1)
        indexed = catalog.clone()
        indexed.add_index(Index("t", ("a", "b")))
        sql = "SELECT id, b FROM t WHERE a = %d" % value
        __, expected = run_query(sql, catalog, database)
        __, actual = run_query(sql, indexed, database)
        assert rows_equal(expected, actual)
