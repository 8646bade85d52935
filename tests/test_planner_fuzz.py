"""Property-based fuzzing of the whole planning + execution stack.

Hypothesis drives three generators — a random schema, a random conjunctive
query against it, and a random physical design — and asserts the two core
invariants of the substrate:

1. the planner always produces a finite, positive-cost plan, and
2. the physical design never changes query *results* (executor check).

These are exactly the properties every designer component silently
assumes, so a counterexample here would invalidate everything above.

A third property rides on the same generators (ISSUE 24): an INUM build
that shares its relation-subset path sets between order vectors emits
the terms the old enumeration emitted planning every vector cold — on
self-joins of the fuzzed table, where one covering index reaches every
alias at once.
"""

import math

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
from repro.inum.cache import build_cache
from repro.optimizer import CostService, PlannerSettings
from repro.optimizer.settings import DISABLE_COST
from repro.sql.binder import bind_statement

from datagen import generate_database
from executor import run_query
from oracle import reference_planning

COLUMN_POOL = [
    ("k", DataType.INT, Distribution(kind="sequence")),
    ("a", DataType.INT, Distribution(kind="uniform_int", low=0, high=30)),
    ("b", DataType.DOUBLE, Distribution(kind="uniform", low=-10.0, high=10.0)),
    ("c", DataType.INT, Distribution(kind="zipf", n_values=6, s=1.1)),
    ("d", DataType.INT, Distribution(kind="uniform_int", low=0, high=5, null_frac=0.15)),
    ("e", DataType.DOUBLE, Distribution(kind="normal", mu=0.0, sigma=3.0)),
]


def build_catalog(n_cols, rows):
    cols = [
        Column(name, dtype, dist) for name, dtype, dist in COLUMN_POOL[:n_cols]
    ]
    catalog = Catalog()
    catalog.add_table(Table("t", cols, row_count=rows).build_stats())
    return catalog


@st.composite
def query_strategy(draw, column_names):
    """A random conjunctive single-table query over *column_names*."""
    preds = []
    n_preds = draw(st.integers(0, 3))
    for __ in range(n_preds):
        col = draw(st.sampled_from(column_names))
        kind = draw(st.sampled_from(["eq", "lt", "gt", "between", "in", "null"]))
        v1 = draw(st.integers(-12, 32))
        v2 = draw(st.integers(-12, 32))
        lo, hi = min(v1, v2), max(v1, v2)
        if kind == "eq":
            preds.append("%s = %d" % (col, v1))
        elif kind == "lt":
            preds.append("%s < %d" % (col, v1))
        elif kind == "gt":
            preds.append("%s > %d" % (col, v1))
        elif kind == "between":
            preds.append("%s BETWEEN %d AND %d" % (col, lo, hi))
        elif kind == "in":
            preds.append("%s IN (%d, %d)" % (col, v1, v2))
        else:
            preds.append("%s IS NOT NULL" % col)
    select = draw(st.sampled_from(["k", "k, " + column_names[-1], "*"]))
    sql = "SELECT %s FROM t" % select
    if preds:
        sql += " WHERE " + " AND ".join(preds)
    if draw(st.booleans()):
        sql += " ORDER BY k"
        if draw(st.booleans()):
            sql += " LIMIT %d" % draw(st.integers(1, 20))
    return sql


@st.composite
def design_strategy(draw, column_names):
    """A random physical design: indexes and maybe partitions."""
    indexes = []
    for __ in range(draw(st.integers(0, 3))):
        width = draw(st.integers(1, min(2, len(column_names))))
        cols = draw(
            st.lists(
                st.sampled_from(column_names),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        indexes.append(Index("t", tuple(cols)))
    layout = None
    if draw(st.booleans()) and len(column_names) >= 3:
        split = draw(st.integers(1, len(column_names) - 1))
        layout = VerticalLayout(
            "t",
            (
                VerticalFragment("t", tuple(column_names[:split])),
                VerticalFragment("t", tuple(column_names[split:])),
            ),
        )
    horizontal = None
    if draw(st.booleans()):
        horizontal = HorizontalPartitioning("t", "a", (8, 16, 24))
    return indexes, layout, horizontal


def apply_design(catalog, design):
    indexes, layout, horizontal = design
    out = catalog.clone()
    for ix in indexes:
        if not out.has_index(ix):
            out.add_index(ix)
    if layout is not None:
        out.set_vertical_layout(layout)
    if horizontal is not None:
        out.set_horizontal_partitioning(horizontal)
    return out


class TestPlannerNeverBreaks:
    @given(data=st.data(), n_cols=st.integers(3, 6))
    @hsettings(max_examples=80, deadline=None)
    def test_any_query_any_design_plans(self, data, n_cols):
        catalog = build_catalog(n_cols, rows=20_000)
        names = catalog.table("t").column_names
        sql = data.draw(query_strategy(names))
        design = data.draw(design_strategy(names))
        service = CostService(apply_design(catalog, design))
        plan = service.plan(sql)
        assert math.isfinite(plan.total_cost)
        assert plan.total_cost > 0
        assert plan.total_cost < DISABLE_COST / 2  # nothing disabled here
        assert plan.rows >= 0

    @given(data=st.data())
    @hsettings(max_examples=30, deadline=None)
    def test_disabled_planners_still_plan(self, data):
        catalog = build_catalog(4, rows=5_000)
        names = catalog.table("t").column_names
        sql = data.draw(query_strategy(names))
        settings = PlannerSettings(
            enable_bitmapscan=data.draw(st.booleans()),
            enable_nestloop=data.draw(st.booleans()),
            enable_hashjoin=data.draw(st.booleans()),
            enable_mergejoin=data.draw(st.booleans()),
        )
        plan = CostService(catalog, settings).plan(sql)
        assert math.isfinite(plan.total_cost)


class TestDesignInvariance:
    """The golden rule: physical design never changes results."""

    @given(data=st.data())
    @hsettings(max_examples=40, deadline=None)
    def test_results_invariant_under_design(self, data):
        catalog = build_catalog(5, rows=600)
        database = generate_database(catalog, seed=9)
        names = catalog.table("t").column_names
        sql = data.draw(query_strategy(names))
        design = data.draw(design_strategy(names))
        __, base_rows = run_query(sql, catalog, database)
        __, designed_rows = run_query(sql, apply_design(catalog, design), database)
        if " LIMIT " in sql:
            # LIMIT without a total order is nondeterministic; compare sizes.
            assert len(base_rows) == len(designed_rows)
        else:
            assert sorted(map(repr, base_rows)) == sorted(map(repr, designed_rows))

    @given(data=st.data())
    @hsettings(max_examples=25, deadline=None)
    def test_estimates_bounded_by_table_size(self, data):
        catalog = build_catalog(5, rows=10_000)
        names = catalog.table("t").column_names
        sql = data.draw(query_strategy(names))
        plan = CostService(catalog).plan(sql)
        if "LIMIT" not in sql and "GROUP" not in sql:
            assert plan.rows <= 10_000 * 1.01


@st.composite
def self_join_strategy(draw, column_names):
    """A two- or three-way self-join of ``t`` — a chain, a star or (one
    clause dropped) a disconnected pair — with filters, and maybe a
    grouping or an ordering for the interesting orders to pick up."""
    aliases = ["x", "y", "z"][: draw(st.integers(2, 3))]
    joinable = [c for c in column_names if c in ("k", "a", "c", "d")]
    clauses = []
    for position, alias in enumerate(aliases[1:], start=1):
        other = aliases[draw(st.integers(0, position - 1))]
        clauses.append("%s.%s = %s.%s" % (
            other, draw(st.sampled_from(joinable)),
            alias, draw(st.sampled_from(joinable)),
        ))
    if len(clauses) == 2 and draw(st.booleans()):
        clauses.pop()  # the last alias joins nothing: cartesian
    for __ in range(draw(st.integers(0, 2))):
        clauses.append("%s.%s < %d" % (
            draw(st.sampled_from(aliases)),
            draw(st.sampled_from(column_names)),
            draw(st.integers(-12, 32)),
        ))
    sql = "SELECT x.k FROM %s" % ", ".join("t " + a for a in aliases)
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    tail = draw(st.sampled_from(["", "order", "order-limit"]))
    if tail:
        sql += " ORDER BY %s.%s" % (
            draw(st.sampled_from(aliases)), draw(st.sampled_from(column_names))
        )
    if tail == "order-limit":
        sql += " LIMIT %d" % draw(st.integers(1, 50))
    return sql


class TestSharedSubsetsChangeNothing:
    @given(data=st.data(), n_cols=st.integers(3, 6))
    def test_build_equals_cold_per_vector_planning(self, data, n_cols):
        catalog = build_catalog(n_cols, rows=20_000)
        names = catalog.table("t").column_names
        sql = data.draw(
            self_join_strategy(names) | query_strategy(names))
        designed = apply_design(catalog, data.draw(design_strategy(names)))
        settings = PlannerSettings(
            enable_nestloop=data.draw(st.booleans()),
            enable_hashjoin=data.draw(st.booleans()),
            enable_mergejoin=data.draw(st.booleans()),
            work_mem=data.draw(st.sampled_from([16 * 1024, 4 * 1024 * 1024])),
        )
        shipped = build_cache(
            bind_statement(sql, designed), designed, settings)
        with reference_planning():
            reference = build_cache(
                bind_statement(sql, designed), designed, settings)
        assert shipped.plans == reference.plans
        assert shipped.build_optimizer_calls == reference.build_optimizer_calls
