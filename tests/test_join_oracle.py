"""Join enumeration, pinned against how it ran before ISSUE 24.

Three things changed under ``plan_query`` and each must be invisible:

* ``_PathSet.admits`` stops at the first dearer path and answers an
  unordered requirement from the cheapest alone; ``_PathSet.add``
  inserts by bisection instead of appending and re-sorting;
* ``_Planner._join_pair`` derives what a cost reads of one input once
  per path (``joins.JoinCosting``) instead of once per pair;
* an INUM build shares one dict of relation-subset path sets between
  its order vectors.

The references are in ``tests/oracle.py``: the full-scan
:func:`~oracle.admits_reference`, the append-and-sort
:class:`~oracle.PathSetReference`, the per-pair constructors under
:func:`~oracle.join_pair_reference`, and
:func:`~oracle.reference_planning`, which runs the shipped planner over
all of them with every order vector planned cold.  Every comparison is
``==`` on costs, orderings and ``explain()`` — same arithmetic, same
operand order, same insertion order, so not one bit may move.

Example budgets come from the hypothesis profile (``tests/conftest.py``).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import Index
from repro.optimizer import PlannerSettings
from repro.optimizer import joins as J
from repro.optimizer import paths as P
from repro.optimizer import planner
from repro.optimizer.plan import Materialize, Plan, Sort
from repro.sql.binder import bind_statement
from repro.workloads import sdss_catalog

from oracle import (
    PathSetReference,
    admits_reference,
    build_with_plans,
    hashjoin_path,
    hashjoin_reference,
    join_pair_reference,
    mergejoin_path,
    mergejoin_reference,
    nestloop_path,
    nestloop_reference,
    reference_planning,
)
from test_scan_memo import ENVIRONMENTS, bind_read, read_statements


def fingerprint(plan):
    """Everything observable of a plan tree, floats unrounded."""
    return (
        plan.node_type, plan.startup_cost, plan.total_cost, plan.rows,
        plan.width, plan.ordering, plan.is_parameterized, plan.describe(),
        tuple(fingerprint(child) for child in plan.children),
    )


def always(total_cost, ordering):
    return True


# ----------------------------------------------------------------------
# Strategies: synthetic paths over the aliases of one real join.
# ----------------------------------------------------------------------

ONE_CLAUSE = (
    "SELECT p.objid, s.z FROM photoobj p, specobj s "
    "WHERE p.objid = s.bestobjid"
)
TWO_CLAUSES = ONE_CLAUSE + " AND p.type = s.specclass"

ORDERINGS = st.sampled_from([
    (),
    (("p", "objid", True),),
    (("s", "bestobjid", True),),
    (("p", "objid", True), ("p", "type", True)),
    (("s", "bestobjid", True), ("s", "specclass", True)),
    (("p", "objid", False),),
    (("p", "ra", True),),
])
# Few distinct values, so equal-cost ties are the common case.
COSTS = st.sampled_from([0.0, 1.0, 10.0, 10.0, 250.5, 1e4, 1e7]) | st.floats(
    0.0, 1e8, allow_nan=False
)
# From fractional to large enough that a hash table and a sort outgrow
# every work_mem drawn below.
ROWS = st.sampled_from([0.0, 0.4, 1.0, 37.0, 1e3, 2e5, 5e8])


@st.composite
def drawn_path(draw, parameterized=st.just(False)):
    total = draw(COSTS)
    fields = dict(
        startup_cost=total * draw(st.sampled_from([0.0, 0.5, 1.0])),
        total_cost=total,
        rows=draw(ROWS),
        width=draw(st.integers(1, 300)),
        ordering=draw(ORDERINGS),
    )
    kind = draw(st.sampled_from(["plain", "plain", "sort", "materialize"]))
    if kind == "plain":
        return Plan(is_parameterized=draw(parameterized), **fields)
    child = Plan(total_cost=total * 0.5, rows=fields["rows"])
    if kind == "materialize":
        return Materialize(children=(child,), **fields)
    return Sort(children=(child,), external=draw(st.booleans()), **fields)


PATHS = st.lists(drawn_path(), min_size=1, max_size=6)
# "Parameterized inners": the real probes come from the catalog's
# indexes; a parameterized member of the inner *set* is drawn as well.
INNER_PATHS = st.lists(
    drawn_path(parameterized=st.sampled_from([False, False, True])),
    min_size=1, max_size=6,
)
SETTINGS = st.builds(
    PlannerSettings,
    enable_nestloop=st.booleans(),
    enable_hashjoin=st.booleans(),
    enable_mergejoin=st.booleans(),
    work_mem=st.sampled_from([1, 64 * 1024, 4 * 1024 * 1024]),
)


@pytest.fixture(scope="module")
def join_catalog():
    catalog = sdss_catalog(scale=0.05)
    # Probe paths for either side as the nested-loop inner.
    catalog.add_index(Index("specobj", ("bestobjid",)))
    catalog.add_index(Index("photoobj", ("objid", "type")))
    return catalog


# ----------------------------------------------------------------------
# _PathSet: admits and add.
# ----------------------------------------------------------------------


class TestPathSet:
    @given(paths=st.lists(drawn_path(), max_size=30),
           asked=st.lists(st.tuples(COSTS, ORDERINGS), max_size=8))
    def test_add_and_admits_equal_the_references(self, paths, asked):
        shipped, reference = planner._PathSet(), PathSetReference()
        for path in paths:
            verdict = shipped.admits(path.total_cost, path.ordering)
            assert verdict == admits_reference(
                list(reference), path.total_cost, path.ordering
            )
            shipped.add(path)
            reference.add(path)
            # The same objects in the same places — ties included.
            assert [id(p) for p in shipped] == [id(p) for p in reference]
            assert (id(path) in map(id, shipped)) <= verdict
            for total_cost, ordering in asked:
                assert shipped.admits(total_cost, ordering) == admits_reference(
                    list(reference), total_cost, ordering
                )
        costs = [p.total_cost for p in shipped]
        assert costs == sorted(costs)
        assert len(shipped) <= planner.MAX_PATHS_PER_SET

    def test_equal_cost_paths_keep_arrival_order(self):
        a = Plan(total_cost=5.0, ordering=(("p", "objid", True),))
        b = Plan(total_cost=5.0, ordering=(("p", "ra", True),))
        c = Plan(total_cost=5.0, ordering=(("s", "bestobjid", True),))
        pset = planner._PathSet()
        for path in (a, b, c):
            pset.add(path)
        assert list(pset) == [a, b, c]
        # Equal cost still dominates: strict ">" ends the scan.
        assert not pset.admits(5.0, (("p", "ra", True),))
        assert not pset.admits(5.0, ())
        assert pset.admits(4.9, ())


# ----------------------------------------------------------------------
# _join_pair and the one-off constructors.
# ----------------------------------------------------------------------


class TestJoinPair:
    @given(outers=PATHS, inners=INNER_PATHS, seeded=st.lists(drawn_path(), max_size=4),
           settings=SETTINGS, rows_out=ROWS,
           sql=st.sampled_from([ONE_CLAUSE, TWO_CLAUSES]),
           cartesian=st.booleans(), swap=st.booleans())
    def test_equals_the_per_pair_reference(
            self, join_catalog, outers, inners, seeded, settings, rows_out,
            sql, cartesian, swap):
        bq = bind_statement(sql, join_catalog)
        search = planner._Planner(
            bq, P.plan_inputs(bq, join_catalog), settings, {}
        )
        left, right = frozenset("p"), frozenset("s")
        if swap:
            left, right = right, left
        clauses = () if cartesian else search._clauses_between(left, right)
        sets = {left: outers, right: inners}
        shipped, reference = planner._PathSet(), PathSetReference()
        for path in seeded:
            shipped.add(path)
            reference.add(path)
        search._join_pair(sets, left, right, clauses, rows_out, shipped)
        join_pair_reference(
            search, sets, left, right, clauses, rows_out, reference
        )
        assert [fingerprint(p) for p in shipped] == [
            fingerprint(p) for p in reference
        ]
        assert [p.explain() for p in shipped] == [
            p.explain() for p in reference
        ]

    @given(outer=drawn_path(),
           inner=drawn_path(parameterized=st.booleans()),
           settings=SETTINGS, rows_out=ROWS,
           sql=st.sampled_from([ONE_CLAUSE, TWO_CLAUSES]))
    def test_constructors_equal_the_reference_constructors(
            self, join_catalog, outer, inner, settings, rows_out, sql):
        clauses = bind_statement(sql, join_catalog).joins
        keys_outer, keys_inner = planner._Planner._merge_keys(
            clauses, frozenset("p")
        )
        assert fingerprint(
            nestloop_path(outer, inner, clauses, rows_out, settings)
        ) == fingerprint(
            nestloop_reference(outer, inner, clauses, rows_out, settings, always)
        )
        assert fingerprint(
            hashjoin_path(outer, inner, clauses, rows_out, settings)
        ) == fingerprint(
            hashjoin_reference(outer, inner, clauses, rows_out, settings, always)
        )
        assert fingerprint(mergejoin_path(
            outer, inner, clauses, keys_outer, keys_inner, rows_out, settings
        )) == fingerprint(mergejoin_reference(
            outer, inner, clauses, keys_outer, keys_inner, rows_out,
            settings, always,
        ))

    def test_drawn_cases_reach_every_branch(self, join_catalog):
        """The strategies above are only a pin if they get there: real
        parameterized probes on either side, a multi-batch hash join, an
        external sort and every DISABLE_COST branch are all within the
        drawn ranges."""
        bq = bind_statement(TWO_CLAUSES, join_catalog)
        for alias, columns in (("s", ("bestobjid", "specclass")),
                               ("p", ("objid", "type"))):
            probes = P.parameterized_paths(
                bq, alias, join_catalog, PlannerSettings(), columns)
            assert probes and all(p.is_parameterized for p in probes)
        tight = PlannerSettings(work_mem=1)
        big = Plan(total_cost=10.0, rows=5e8, width=300)
        clauses = ("clause",)
        assert hashjoin_path(big, big, clauses, 1.0, tight).batches > 1
        assert J.sort_cost(big, tight)[2]
        off = PlannerSettings(
            enable_nestloop=False, enable_hashjoin=False,
            enable_mergejoin=False,
        )
        small = Plan(total_cost=10.0, rows=37.0)
        keys = ((("p", "objid", True),),) * 2
        for build in (
            lambda s: nestloop_path(small, small, clauses, 1.0, s),
            lambda s: hashjoin_path(small, small, clauses, 1.0, s),
            lambda s: mergejoin_path(small, small, clauses, *keys, 1.0, s),
        ):
            assert build(off).total_cost > build(PlannerSettings()).total_cost + 9e9


# ----------------------------------------------------------------------
# A whole INUM build: shared subsets == every vector planned cold, the
# old way.
# ----------------------------------------------------------------------


def assert_build_equals_reference(sql, catalog, settings):
    shipped, shipped_plans = build_with_plans(
        bind_read(sql, catalog), catalog, settings)
    with reference_planning():
        reference, reference_plans = build_with_plans(
            bind_read(sql, catalog), catalog, settings)
    assert shipped_plans == reference_plans
    assert shipped.plans == reference.plans  # term for term
    assert shipped.build_optimizer_calls == reference.build_optimizer_calls


@ENVIRONMENTS
@pytest.mark.parametrize("settings", [
    PlannerSettings(),
    PlannerSettings(enable_hashjoin=False, work_mem=64 * 1024),
    PlannerSettings(enable_nestloop=False),
], ids=["default", "no-hash-small-mem", "no-nestloop"])
def test_every_template_builds_as_it_did(registry, make_catalog, settings):
    catalog = make_catalog()
    sqls = read_statements(registry, catalog)
    assert len(sqls) > 5
    for sql in sqls:
        assert_build_equals_reference(sql, catalog, settings)
