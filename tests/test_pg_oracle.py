"""The cost model's inputs against PostgreSQL, an oracle sharing no code.

(i)  Cardinalities: per single-table filter of every SDSS and TPC-H
     template, our row estimate, PostgreSQL's ``Plan Rows`` and the
     ``count(*)`` truth, over the same generated rows.
(ii) Index sizes: ``pg_relation_size / 8192`` of a single-column btree
     on every filtered column against ``catalog/pagemodel.py``.
(iii) Scan choice: per single-table filter and single-column btree on
     one of its filtered columns, the scan class (seq, index or bitmap)
     each planner picks for ``SELECT *`` with that index alone, and the
     sign and size of the index's benefit, under the same cost
     constants; and per statement of each read template, how the two
     planners rank its designs — the empty one and each of its top five
     candidate indexes alone — by Spearman correlation.

Every threshold below is the first run's observed value widened by a
margin; every comparison beyond its threshold is listed by name with
its cause in ``KNOWN_GAPS``, and the test fails when that list is
wrong in either direction.  (iv) executed work is not compared yet.
Skips when no PostgreSQL server is installed.
"""

import os
import pwd
import random
import shutil
import statistics

import pytest
from scipy.stats import spearmanr

from repro.catalog import Index
from repro.cophy import candidate_indexes
from repro.optimizer import paths as P
from repro.optimizer.planner import plan_query
from repro.optimizer.settings import DEFAULT_SETTINGS
from repro.sql.binder import bind_statement
from repro.workloads import sdss, sdss_catalog, tpch, tpch_catalog

from datagen import generate_database
from pg_oracle import Cluster, find_bindir, predicate

# Small enough that ANALYZE reads every row (its sample is 30 000), so
# PostgreSQL's statistics, like ours, are deterministic.
ENVIRONMENTS = (
    (sdss, lambda: sdss_catalog(scale=0.01)),
    (tpch, lambda: tpch_catalog(scale=0.005)),
)

Q_PG = 1.25  # ours vs PostgreSQL's estimate (observed 1.20)
Q_TRUTH = 1.35  # ours vs count(*) (observed 1.29 outside KNOWN_GAPS)
Q_VS_PG = 1.05  # our q-error over PostgreSQL's (observed 1.01)
INDEX_RATIO = (1.0, 1.45)  # our pages / PostgreSQL's (observed 1.0-1.39)
# |our relative benefit - PostgreSQL's| where both pick the same scan
# class (observed 0.127: specobj.specclass, a 3-value key).
BENEFIT_DIFF = 0.15
# Spearman correlation of the two sides' costs over one statement's
# designs (observed 0.725 outside KNOWN_GAPS: shipping_window).
RANK_RHO = 0.7

_FEW = ("two or fewer qualifying rows, so one row is a 2x q-error; "
        "PostgreSQL's estimate is as far off")
_DEDUP = ("PostgreSQL 13+ btree deduplication stores a run of equal keys "
          "once; pagemodel.btree_shape sizes one leaf tuple per row")
_STREAMING = ("GROUP BY ... LIMIT over an index in group order: "
              "PostgreSQL's GroupAggregate streams, so LIMIT pays only for "
              "the groups it returns; our sorted Aggregate "
              "(joins.aggregate_paths) starts after its whole input, so "
              "LIMIT cannot cut that index scan short and the index looks "
              "useless (big_spenders + ix_lineitem_l_orderkey: 697 vs 55; "
              "order_lineitem_join's plan also needs an incremental sort)")
KNOWN_GAPS = {
    "rows:color_cut/photoobj": _FEW,
    "rows:spec_quality_join/s": _FEW,
    "rows:part_supplier/p": _FEW,
    "index:customer.c_mktsegment": _DEDUP,
    "index:lineitem.l_shipdate": _DEDUP,
    "index:orders.o_orderdate": _DEDUP,
    "index:part.p_brand": _DEDUP,
    "index:part.p_size": _DEDUP,
    "index:photoobj.mode": _DEDUP,
    "index:photoobj.type": _DEDUP,
    "index:specobj.specclass": _DEDUP,
    "rank:big_spenders": _STREAMING,
    "rank:order_lineitem_join": _STREAMING,
    "scan:color_cut/photoobj+mode": (
        "mode = 1 keeps 65 % of the rows, so a bitmap scan and the seq "
        "scan are within 5 % on both sides and land on opposite sides: "
        "our bitmap index scan charges no cpu_operator_cost per index "
        "tuple for its qual and seq_page_cost for every leaf page after "
        "the first (PostgreSQL: random_page_cost each, 149 vs our 118), "
        "and our heap is 409 pages to PostgreSQL's 426"),
    # Inside INDEX_RATIO, but it is why the ratio sits near 1.4.
    "index:*": "Index.key_width adds the 6-byte heap TID on top of the "
               "8-byte IndexTupleData header that already holds it: 28 "
               "instead of 20 bytes per leaf tuple of an 8-byte key",
}


@pytest.fixture(scope="module")
def oracle():
    bindir = find_bindir()
    if bindir is None:
        pytest.skip("no PostgreSQL server binaries installed")
    if os.geteuid() == 0:
        try:
            pwd.getpwnam("postgres")
        except KeyError:
            pytest.skip("running as root without a postgres user")
        if shutil.which("runuser") is None:
            pytest.skip("running as root without runuser")
    cluster = Cluster(bindir)
    try:
        cluster.start()
        envs = []
        for module, make in ENVIRONMENTS:
            catalog = make()
            cluster.load(catalog, generate_database(catalog, seed=1))
            envs.append((module, catalog))
        yield cluster, envs
    finally:
        cluster.stop()


def filters(envs):
    """``(name, catalog, bound query, alias, table)`` per filtered table
    reference of one statement per read template."""
    out = []
    for module, catalog in envs:
        rng = random.Random(7)
        for maker, __ in module.TEMPLATES:
            bq = bind_statement(maker(rng), catalog)
            for alias, table in bq.tables.items():
                if bq.filters_for(alias):
                    name = "%s/%s" % (maker.__name__.lstrip("_"), alias)
                    out.append((name, catalog, bq, alias, table))
    return out


def q_error(a, b):
    a, b = max(a, 1.0), max(b, 1.0)
    return max(a / b, b / a)


def test_cardinalities_agree_with_postgresql_and_the_truth(oracle):
    cluster, envs = oracle
    cases = filters(envs)
    measured = cluster.estimates(
        [(table.name, predicate(bq.filters_for(alias)))
         for __, __, bq, alias, table in cases]
    )
    assert len(cases) >= 15
    gaps = set()
    for (name, catalog, bq, alias, __), (pg, truth) in zip(cases, measured):
        ours = P.scan_context(bq, alias, catalog).rows_out
        assert q_error(ours, pg) <= Q_PG, (name, ours, pg)
        assert q_error(ours, truth) <= Q_VS_PG * q_error(pg, truth), (
            name, ours, pg, truth)
        if q_error(ours, truth) > Q_TRUTH:
            gaps.add("rows:" + name)
    assert gaps == {gap for gap in KNOWN_GAPS if gap.startswith("rows:")}


def test_index_sizes_agree_with_the_page_model(oracle):
    cluster, envs = oracle
    columns = sorted({
        (table.name, f.column): catalog
        for __, catalog, bq, alias, table in filters(envs)
        for f in bq.filters_for(alias)
    }.items())
    pages = cluster.index_pages([key for key, __ in columns])
    gaps, ratios = set(), []
    for ((table, column), catalog), pg in zip(columns, pages):
        ours = Index(table, (column,)).size_pages(catalog.table(table))
        ratio = ours / pg
        assert ratio >= INDEX_RATIO[0], (table, column, ours, pg)
        if ratio > INDEX_RATIO[1]:
            gaps.add("index:%s.%s" % (table, column))
        else:
            ratios.append(ratio)
    listed = {gap for gap in KNOWN_GAPS
              if gap.startswith("index:") and gap != "index:*"}
    assert gaps == listed
    # The TID gap: the typical ratio is what it says (fixing the page
    # model must update KNOWN_GAPS and INDEX_RATIO).
    assert 1.3 <= statistics.median(ratios) <= INDEX_RATIO[1]


# Our plan node type -> the scan class PostgreSQL's is compared on.
OUR_SCAN_CLASSES = {
    "SeqScan": "seq", "IndexScan": "index", "IndexOnlyScan": "index",
    "BitmapHeapScan": "bitmap",
}


def relative_benefit(without, with_index):
    return (without - with_index) / without


def test_scan_choice_agrees_with_postgresql(oracle):
    """Per (filter, single-column btree on a filtered column), both
    planners over ``SELECT *`` with that index alone: the scan class,
    the sign of the benefit, and its size within BENEFIT_DIFF."""
    cluster, envs = oracle
    cases = [
        (name, catalog, table, predicate(bq.filters_for(alias)), column)
        for name, catalog, bq, alias, table in filters(envs)
        for column in sorted({f.column for f in bq.filters_for(alias)})
    ]
    measured = cluster.scan_choices(
        DEFAULT_SETTINGS,
        [(table.name, pred, column) for __, __, table, pred, column in cases],
    )
    assert len(cases) >= 25
    gaps, classes = set(), set()
    for (name, catalog, table, pred, column), (pg_class, pg_without, pg_with) \
            in zip(cases, measured):
        sql = "SELECT * FROM %s WHERE %s" % (table.name, pred)
        without = plan_query(bind_statement(sql, catalog), catalog)
        design = catalog.clone()
        design.add_index(Index(table.name, (column,)))
        plan = plan_query(bind_statement(sql, design), design)
        ours = relative_benefit(without.total_cost, plan.total_cost)
        theirs = relative_benefit(pg_without, pg_with)
        if (OUR_SCAN_CLASSES[plan.node_type] != pg_class
                or (ours > 1e-9) != (theirs > 1e-9)):
            gaps.add("scan:%s+%s" % (name, column))
            continue
        classes.add(pg_class)
        assert abs(ours - theirs) <= BENEFIT_DIFF, (name, column, ours, theirs)
    # Not vacuous: the agreeing cases span all three classes.
    assert classes == {"seq", "index", "bitmap"}
    assert gaps == {gap for gap in KNOWN_GAPS if gap.startswith("scan:")}


def test_design_ranks_agree_with_postgresql(oracle):
    """Per statement, one of each read template: its total cost under
    the empty design and under each of its top five candidate indexes
    alone, planned exactly by both sides; the two rankings of those six
    designs agree to a Spearman correlation of at least RANK_RHO."""
    cluster, envs = oracle
    cases = []
    for module, catalog in envs:
        rng = random.Random(7)
        for maker, __ in module.TEMPLATES:
            sql = maker(rng)
            cases.append((maker.__name__.lstrip("_"), catalog, sql,
                          candidate_indexes(catalog, [sql], max_candidates=5)))
    measured = cluster.design_costs(DEFAULT_SETTINGS, [
        (sql, [(ix.table_name, ix.columns, ix.include) for ix in indexes])
        for __, __, sql, indexes in cases
    ])
    assert len(cases) == 15
    gaps, rhos = set(), []
    for (name, catalog, sql, indexes), theirs in zip(cases, measured):
        ours = [plan_query(bind_statement(sql, catalog), catalog).total_cost]
        for ix in indexes:
            design = catalog.clone()
            design.add_index(ix)
            ours.append(
                plan_query(bind_statement(sql, design), design).total_cost)
        if len(set(ours)) == len(set(theirs)) == 1:
            continue  # no candidate changes either side's plan: a tie
        rho = spearmanr(ours, theirs)[0]
        if rho < RANK_RHO:
            gaps.add("rank:" + name)
        rhos.append(rho)
    # Not vacuous: most statements have designs to rank, most agree.
    assert len(rhos) >= 12 and statistics.median(rhos) >= 0.9
    assert gaps == {gap for gap in KNOWN_GAPS if gap.startswith("rank:")}
