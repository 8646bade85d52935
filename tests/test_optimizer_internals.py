"""White-box tests for optimizer internals: matching, costing, pruning."""

import math

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.catalog import Catalog, Column, DataType, Distribution, Index, Table
from repro.optimizer import PlannerSettings
from repro.optimizer import joins as J
from repro.optimizer import paths as P
from repro.optimizer import selectivity as S
from repro.optimizer.planner import _PathSet
from repro.optimizer.plan import Plan
from repro.sql import bind_sql

from oracle import hashjoin_path

SETTINGS = PlannerSettings()


def match_index(bq, catalog, index, param_columns=()):
    """``paths._match_index`` of *index* under *bq*'s scan context of
    ``t`` (the reference form is ``tests/oracle.py``'s)."""
    return P._match_index(P.scan_context(bq, "t", catalog), index,
                          param_columns)


@pytest.fixture
def table():
    return Table(
        "t",
        [
            Column("a", DataType.INT, Distribution(kind="uniform_int", low=0, high=99)),
            Column("b", DataType.DOUBLE, Distribution(kind="uniform", low=0, high=1)),
            Column("c", DataType.INT, Distribution(kind="zipf", n_values=10, s=1.0)),
            Column("d", DataType.INT, Distribution(kind="uniform_int", low=0, high=9,
                                                   null_frac=0.2)),
        ],
        row_count=100_000,
    ).build_stats()


@pytest.fixture
def catalog(table):
    cat = Catalog()
    cat.add_table(table)
    return cat


def filters_for(catalog, where):
    bq = bind_sql("SELECT a FROM t WHERE " + where, catalog)
    return bq, bq.filters_for("t")


class TestSelectivity:
    def test_eq_uniform(self, catalog, table):
        __, [f] = filters_for(catalog, "a = 5")
        assert S.filter_selectivity(f, table) == pytest.approx(0.01, rel=0.05)

    def test_ne_complements_eq(self, catalog, table):
        __, [f] = filters_for(catalog, "a <> 5")
        assert S.filter_selectivity(f, table) == pytest.approx(0.99, rel=0.05)

    def test_range(self, catalog, table):
        __, [f] = filters_for(catalog, "a BETWEEN 10 AND 29")
        assert S.filter_selectivity(f, table) == pytest.approx(0.2, rel=0.15)

    def test_in_sums_eq(self, catalog, table):
        __, [f] = filters_for(catalog, "a IN (1, 2, 3)")
        assert S.filter_selectivity(f, table) == pytest.approx(0.03, rel=0.15)

    def test_null_fractions(self, catalog, table):
        __, [f] = filters_for(catalog, "d IS NULL")
        assert S.filter_selectivity(f, table) == pytest.approx(0.2, rel=0.01)
        __, [f] = filters_for(catalog, "d IS NOT NULL")
        assert S.filter_selectivity(f, table) == pytest.approx(0.8, rel=0.01)

    def test_conjunction_multiplies(self, catalog, table):
        __, fs = filters_for(catalog, "a = 5 AND b < 0.5")
        combined = S.conjunction_selectivity(fs, table)
        product = S.filter_selectivity(fs[0], table) * S.filter_selectivity(
            fs[1], table
        )
        assert combined == pytest.approx(product)

    def test_equality_fraction_join_probe(self, table):
        assert S.equality_fraction(table, "a") == pytest.approx(1.0 / 100, rel=0.05)

    @given(lo=st.integers(0, 99), hi=st.integers(0, 99))
    @hsettings(max_examples=40, deadline=None)
    def test_selectivity_always_in_unit_interval(self, lo, hi):
        cat = Catalog()
        t = Table(
            "t",
            [Column("a", DataType.INT, Distribution(kind="uniform_int", low=0, high=99))],
            row_count=1000,
        ).build_stats()
        cat.add_table(t)
        __, [f] = filters_for(cat, "a BETWEEN %d AND %d" % (lo, hi))
        assert 0.0 <= S.filter_selectivity(f, t) <= 1.0


class TestIndexMatching:
    def test_eq_prefix_then_range(self, catalog, table):
        bq, __ = filters_for(catalog, "a = 5 AND b < 0.2")
        match = match_index(bq, catalog, Index("t", ("a", "b")))
        assert len(match.boundary_filters) == 2
        assert match.eq_prefix == 1
        assert match.residual_filters == ()

    def test_range_closes_prefix(self, catalog, table):
        bq, __ = filters_for(catalog, "a < 50 AND b < 0.2")
        match = match_index(bq, catalog, Index("t", ("a", "b")))
        assert len(match.boundary_filters) == 1  # only the range on a
        assert [f.column for f in match.residual_filters] == ["b"]

    def test_wrong_leading_column_matches_nothing(self, catalog, table):
        bq, __ = filters_for(catalog, "b < 0.2")
        match = match_index(bq, catalog, Index("t", ("a", "b")))
        assert not match.boundary_filters
        assert match.boundary_selectivity == 1.0

    def test_param_column_extends_prefix(self, catalog, table):
        bq, __ = filters_for(catalog, "b < 0.2")
        match = match_index(
            bq, catalog, Index("t", ("a", "b")), param_columns=("a",)
        )
        assert match.param_columns == ("a",)
        assert match.eq_prefix == 1
        assert len(match.boundary_filters) == 1  # the range on b

    def test_ordering_columns_drop_eq_prefix(self, catalog, table):
        bq, __ = filters_for(catalog, "a = 5")
        match = match_index(bq, catalog, Index("t", ("a", "b", "c")))
        assert match.ordering_columns == ("b", "c")


class TestMackertLohman:
    def test_never_exceeds_pages(self):
        for pages in (1, 10, 1000):
            for tuples in (0, 1, 50, 10**7):
                assert P.mackert_lohman_pages(pages, tuples) <= pages

    def test_monotone_in_tuples(self):
        values = [P.mackert_lohman_pages(500, n) for n in (1, 10, 100, 1000)]
        assert values == sorted(values)

    def test_single_tuple_about_one_page(self):
        assert P.mackert_lohman_pages(10_000, 1) == pytest.approx(1.0, rel=0.01)


class TestSortCosting:
    def make_input(self, rows, width=16):
        return Plan(total_cost=100.0, rows=rows, width=width)

    def test_in_memory_vs_external(self):
        small = J.sort_path(self.make_input(1000), (("t", "a", True),), SETTINGS)
        big = J.sort_path(self.make_input(10_000_000), (("t", "a", True),), SETTINGS)
        assert not small.external
        assert big.external

    def test_cost_superlinear(self):
        # Subtract the constant child cost: the sort itself grows ~ n log n.
        costs = [
            J.sort_path(self.make_input(n), (("t", "a", True),), SETTINGS).total_cost
            - 100.0
            for n in (1000, 10_000, 100_000)
        ]
        assert costs[1] / costs[0] > 10
        assert costs[2] / costs[1] > 10

    def test_sort_provides_ordering(self):
        keys = (("t", "a", True), ("t", "b", False))
        sort = J.sort_path(self.make_input(100), keys, SETTINGS)
        assert sort.ordering == keys


class TestOrderingSatisfies:
    def test_prefix_rule(self):
        provided = (("t", "a", True), ("t", "b", True))
        assert J.ordering_satisfies(provided, (("t", "a", True),))
        assert J.ordering_satisfies(provided, provided)
        assert not J.ordering_satisfies(provided, (("t", "b", True),))
        assert not J.ordering_satisfies((), (("t", "a", True),))

    def test_empty_requirement_always_satisfied(self):
        assert J.ordering_satisfies((), ())
        assert J.ordering_satisfies((("t", "a", True),), ())

    def test_direction_matters(self):
        assert not J.ordering_satisfies(
            (("t", "a", True),), (("t", "a", False),)
        )


class TestHashJoinCosting:
    def outer(self, rows):
        return Plan(total_cost=1000.0, rows=rows, width=16)

    def test_batching_kicks_in(self, catalog):
        bq = bind_sql("SELECT a FROM t", catalog)
        clause_stub = bq.joins  # empty; fabricate via binder below
        from repro.sql.binder import BoundJoin

        clause = BoundJoin("x", "t", "a", "y", "t", "a")
        small = hashjoin_path(
            self.outer(1000), Plan(total_cost=500, rows=1000, width=16),
            (clause,), 1000, SETTINGS,
        )
        huge = hashjoin_path(
            self.outer(1000), Plan(total_cost=500, rows=10_000_000, width=64),
            (clause,), 1000, SETTINGS,
        )
        assert small.batches == 1
        assert huge.batches > 1

    def test_no_clauses_returns_none(self):
        assert hashjoin_path(self.outer(10), self.outer(10), (), 100, SETTINGS) is None


class TestPathSetPruning:
    def path(self, cost, ordering=()):
        return Plan(total_cost=cost, rows=10, ordering=ordering)

    def test_dominated_path_dropped(self):
        ps = _PathSet()
        ps.add(self.path(10.0))
        ps.add(self.path(20.0))  # same (empty) ordering, more expensive
        assert len(ps) == 1
        assert ps.cheapest().total_cost == 10.0

    def test_better_ordered_path_kept_despite_cost(self):
        ps = _PathSet()
        ps.add(self.path(10.0))
        ps.add(self.path(50.0, ordering=(("t", "a", True),)))
        assert len(ps) == 2

    def test_cheaper_and_better_ordered_dominates(self):
        ps = _PathSet()
        ps.add(self.path(50.0))
        ps.add(self.path(10.0, ordering=(("t", "a", True),)))
        assert len(ps) == 1
        assert ps.cheapest().ordering

    def test_capacity_cap(self):
        ps = _PathSet()
        for i in range(40):
            ps.add(self.path(float(i), ordering=(("t", "c%d" % i, True),)))
        assert len(ps) <= 12


class TestScanPathGeneration:
    def test_no_boundary_no_interest_no_index_path(self, catalog, table):
        catalog.add_index(Index("t", ("a",)))
        bq = bind_sql("SELECT a FROM t WHERE b < 0.5", catalog)
        paths = P.scan_paths(bq, "t", catalog, SETTINGS)
        kinds = {p.node_type for p in paths}
        assert kinds == {"SeqScan"}

    def test_interesting_column_generates_ordered_scan(self, catalog, table):
        catalog.add_index(Index("t", ("a",)))
        bq = bind_sql("SELECT a FROM t WHERE b < 0.5", catalog)
        paths = P.scan_paths(bq, "t", catalog, SETTINGS, interesting_columns={"a"})
        assert any(p.node_type in ("IndexScan", "IndexOnlyScan") for p in paths)

    def test_boundary_generates_index_and_bitmap(self, catalog, table):
        catalog.add_index(Index("t", ("a",)))
        bq = bind_sql("SELECT a, b FROM t WHERE a = 3", catalog)
        kinds = {p.node_type for p in P.scan_paths(bq, "t", catalog, SETTINGS)}
        assert "IndexScan" in kinds and "BitmapHeapScan" in kinds

    def test_index_only_when_covered(self, catalog, table):
        catalog.add_index(Index("t", ("a",), include=("b",)))
        bq = bind_sql("SELECT a, b FROM t WHERE a = 3", catalog)
        assert any(
            p.node_type == "IndexOnlyScan"
            for p in P.scan_paths(bq, "t", catalog, SETTINGS)
        )

    def test_parameterized_paths_per_probe_rows(self, catalog, table):
        catalog.add_index(Index("t", ("a",)))
        bq = bind_sql("SELECT a FROM t", catalog)
        [path] = P.parameterized_paths(bq, "t", catalog, SETTINGS, ("a",))
        assert path.is_parameterized
        assert path.rows == pytest.approx(1000.0, rel=0.1)  # 100k rows / 100 values

    def test_rows_identical_across_access_paths(self, catalog, table):
        catalog.add_index(Index("t", ("a",)))
        bq = bind_sql("SELECT a, b FROM t WHERE a = 3 AND b < 0.7", catalog)
        rows = {round(p.rows, 6) for p in P.scan_paths(bq, "t", catalog, SETTINGS)}
        assert len(rows) == 1
