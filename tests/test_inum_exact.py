"""INUM is the designer's cost engine: its cached plans, re-costed under a
design, must give the planner's own answer for that design.

Every SDSS and TPC-H template is drawn with fresh literals and priced
under drawn designs — index sets, then AutoPart vertical layouts (with a
few indexes beside them) — by ``WorkloadEvaluator.cost`` and by a
``CostService`` over the design applied to the catalog.  The two must
agree within 1e-12 relative (they differ only in float association), or
the cell must be an entry of :data:`INUM_GAPS`, which names the plan
INUM misses; the test checks that the planner's plan is that plan.
"""

import random
import re
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro.catalog import Index, VerticalFragment, VerticalLayout
from repro.cophy import candidate_indexes
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.whatif import Configuration
from repro.workloads import sdss, sdss_catalog, tpch, tpch_catalog

from test_backward_and_solver_props import share

REL = 1e-12

# One cause of INUM pricing a cell above the planner: what it misses,
# and ``shows(plan, names, config)``, whether the planner's plan for the
# cell is that plan (``names``: the design's indexes the gap keys on).
Gap = namedtuple("Gap", "cause shows")


def _probes_a_gap_index(plan, names, config):
    return "NestLoop" in plan and any(
        re.search(r"Index(Only)?Scan using %s on " % re.escape(name), plan)
        for name in names)


def _merges_two_index_only_scans(plan, names, config):
    merge = re.search(r"MergeJoin[^\n]*\n( *)->  IndexOnlyScan using (\S+) "
                      r"[^\n]*\n\1->  IndexOnlyScan using (\S+) ", plan)
    return bool(config.layouts and merge
                and set(merge.group(2, 3)) & set(names))


_INDEX_NESTED_LOOP = Gap(
    "INUM's cache holds no index nested loop whose inner side probes an "
    "index on the join column: the planner probes it once per outer "
    "row and INUM prices the best cached plan that does not (ROADMAP "
    "30(b))", _probes_a_gap_index)
_MERGE_OVER_INDEX_ONLY = Gap(
    "Beside a vertical layout of a joined table, the planner merges two "
    "index-only scans on the join column, and INUM's cached plans price "
    "that join above it (ROADMAP 30(b))",
    _merges_two_index_only_scans)
# "template/table.column": a design holding an index led by that column
# may price the template above the planner, for the cause given.
INUM_GAPS = {
    # Narrow s.z ranges: 75 outer rows, 8.30 per probe.
    "photo_spec_join/photoobj.objid": _INDEX_NESTED_LOOP,
    # Only beside a vertical layout of lineitem, whose stitched scan
    # then costs more than a probe per qualifying part row.
    "part_supplier/lineitem.l_partkey": _INDEX_NESTED_LOOP,
    # With covering objid indexes on both tables and a layout of
    # neighbors: 855.83 by INUM, 845.17 by the planner.
    "neighbor_search/neighbors.objid": _MERGE_OVER_INDEX_ONLY,
}


def _environment(module, catalog):
    """The evaluator, the templates and the index pool of one
    benchmark: CoPhy's candidates for three statements of every
    template, and a one-column index on every column."""
    rng = random.Random(3)
    sample = [maker(rng) for maker in module.TEMPLATE_REGISTRY.values()
              for __ in range(3)]
    pool = candidate_indexes(catalog, sample, max_candidates=None)
    pool += [Index(table.name, (column,)) for table in catalog.tables
             for column in table.column_names]
    return WorkloadEvaluator(catalog), module.TEMPLATE_REGISTRY, pool


ENVIRONMENTS = {
    "sdss": _environment(sdss, sdss_catalog(scale=0.01)),
    "tpch": _environment(tpch, tpch_catalog(scale=0.01)),
}
TEMPLATES = [(env, name) for env, (__, makers, __) in ENVIRONMENTS.items()
             for name in makers]


def _tables(bq):
    if bq.is_write:
        return [bq.table.name]
    return sorted({table.name for table in bq.tables.values()})


@st.composite
def statements(draw, env, template):
    """A statement of *template* with drawn literals, and its tables."""
    evaluator, makers, __ = ENVIRONMENTS[env]
    sql = makers[template](random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    return sql, _tables(evaluator.bound(sql))


@st.composite
def indexes(draw, env, tables, most):
    """Up to *most* indexes of the pool on *tables*."""
    pool = [ix for ix in ENVIRONMENTS[env][2] if ix.table_name in tables]
    return frozenset(draw(st.lists(st.sampled_from(pool), max_size=most,
                                   unique=True)))


@st.composite
def layouts(draw, catalog, tables):
    """AutoPart's design space over *tables*: each table left whole or
    cut into up to four fragments of a drawn column order, the first
    fragment perhaps replicating a column of the second."""
    chosen = []
    for name in tables:
        if not draw(st.booleans()):
            continue
        columns = draw(st.permutations(catalog.table(name).column_names))
        cuts = sorted(draw(st.lists(st.integers(1, len(columns) - 1),
                                    max_size=3, unique=True))
                      if len(columns) > 1 else ())
        parts = [list(columns[a:b])
                 for a, b in zip([0, *cuts], [*cuts, len(columns)])]
        if len(parts) > 1 and draw(st.booleans()):
            parts[0].append(parts[1][0])
        chosen.append(VerticalLayout(name, tuple(
            VerticalFragment(name, tuple(part)) for part in parts)))
    return tuple(chosen)


def check_cell(env, template, sql, config):
    """INUM's cost of *sql* under *config* is the planner's, or a gap
    of :data:`INUM_GAPS` whose plan the planner chose; returns the key
    of that gap (``None``: no gap)."""
    evaluator = ENVIRONMENTS[env][0]
    inum = evaluator.cost(sql, config)
    service = CostService(config.apply(evaluator.catalog))
    exact = service.cost(sql)
    if abs(inum - exact) <= REL * abs(exact):
        return None
    keys = {}  # gap key -> names of the design's indexes it keys on
    for ix in config.indexes:
        key = "%s/%s.%s" % (template, ix.table_name, ix.columns[0])
        if key in INUM_GAPS:
            keys.setdefault(key, []).append(ix.name)
    assert keys and inum > exact, (
        "INUM %r, planner %r for %r under %r" % (inum, exact, sql, config))
    plan = service.explain(sql)
    shown = [key for key, names in keys.items()
             if INUM_GAPS[key].shows(plan, names, config)]
    assert shown, plan
    return shown[0]


@pytest.mark.parametrize("env,template", TEMPLATES,
                         ids=["%s-%s" % pair for pair in TEMPLATES])
@hsettings(max_examples=share(0.25))
@given(data=st.data())
def test_inum_prices_drawn_indexes_as_the_planner_does(env, template, data):
    sql, tables = data.draw(statements(env, template))
    config = Configuration(indexes=data.draw(indexes(env, tables, 6)))
    check_cell(env, template, sql, config)


@pytest.mark.parametrize("env,template", TEMPLATES,
                         ids=["%s-%s" % pair for pair in TEMPLATES])
@hsettings(max_examples=share(0.25))
@given(data=st.data())
def test_inum_prices_drawn_layouts_as_the_planner_does(env, template, data):
    sql, tables = data.draw(statements(env, template))
    catalog = ENVIRONMENTS[env][0].catalog
    config = Configuration(indexes=data.draw(indexes(env, tables, 3)),
                           layouts=data.draw(layouts(catalog, tables)))
    check_cell(env, template, sql, config)


def test_the_found_neighbor_search_cell_is_its_declared_gap():
    """Either hypothesis profile can draw this cell: a known gap of its
    declared cause, never a disagreement, and priced alike without the
    layout (both then hash-join).  Mending ROADMAP 30(b) deletes it with
    its entry."""
    sql = ("SELECT p.objid, n.neighborobjid, n.distance FROM photoobj p, "
           "neighbors n WHERE p.objid = n.objid AND n.distance < 0.0683 "
           "AND p.type = 2")
    indexes = frozenset((
        Index("photoobj", ("objid",), include=("type",)),
        Index("neighbors", ("objid",),
              include=("distance", "neighborobjid"))))
    layout = VerticalLayout("neighbors", tuple(
        VerticalFragment("neighbors", columns) for columns in (
            ("objid",), ("neighborobjid",), ("distance", "neighbortype"))))
    config = Configuration(indexes=indexes, layouts=(layout,))
    assert check_cell("sdss", "neighbor_search", sql, config) == (
        "neighbor_search/neighbors.objid")
    assert check_cell("sdss", "neighbor_search", sql,
                      Configuration(indexes=indexes)) is None
