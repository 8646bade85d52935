"""Statement templates pinned to their per-text references.

A text is bound through its template (``repro.sql.template``): the
first text of a shape runs ``bind_statement``, every later one only the
numbers pass, and the consumers read what reads no constant off the
template.  For every SDSS and TPC-H template, plus a few shapes the
generators never emit (merged ranges, ``IN`` lists, ``<>``, ``IS
[NOT] NULL``, self-joins, ``DELETE``), hypothesis redraws the literals
of a seed text — crossed and equal range bounds and duplicate ``IN``
values from a small pool, ``NULL``, negative numbers, ints against
floats, strings — and binds the result through a service whose template
map already holds the seed's shape.  Each answer must ``==`` its cold
per-text reference in ``tests/oracle.py``, computed from
``bind_statement`` of that one text alone: the bound statement, every
``ScanContext`` field, ``_match_index``, ``reaching_indexes`` over drawn
index sets, the order vectors with their covering indexes,
``candidate_indexes``, ``query_signature``, COLT's harvest, write
statements' locate queries and the INUM plan terms.  Where the
reference raises, the template path raises the same error.
"""

import random

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.catalog import Index
from repro.colt import tuner as colt_tuner
from repro.cophy import candidate_indexes
from repro.evaluation import query_signature
from repro.inum import cache as inum_cache
from repro.optimizer import CostService, PlannerSettings
from repro.optimizer import paths as P
from repro.optimizer.selectivity import filter_selectivity
from repro.optimizer.writecost import locate_query
from repro.sql import Lexer
from repro.sql.binder import BoundWrite, bind_statement
from repro.sql.template import template_key
from repro.workloads import sdss, sdss_catalog, tpch, tpch_catalog

from oracle import (
    build_cache_reference,
    candidate_indexes_reference,
    harvest_reference,
    match_index_reference,
    order_vectors_reference,
    query_signature_reference,
    reaching_reference,
    referenced_reference,
    scan_context_reference,
)
from test_backward_and_solver_props import share

EXTRA = {
    "sdss": [
        "SELECT objid, ra FROM photoobj WHERE ra > 10 AND ra <= 20 "
        "AND ra >= 15 AND dec < 5 AND dec < 7.5 ORDER BY ra LIMIT 5",
        "SELECT objid FROM photoobj WHERE type IN (1, 2, 2, 3) "
        "AND mode <> 1 AND flags IS NOT NULL AND status IS NULL",
        "SELECT a.objid, b.objid FROM photoobj a, photoobj b "
        "WHERE a.run = b.run AND a.rmag < 15 AND b.rmag < 16 AND b.type = 3",
        "SELECT plate, COUNT(*) FROM specobj WHERE z BETWEEN 1 AND 2 "
        "AND zerr < 0.1 GROUP BY plate ORDER BY plate DESC LIMIT 3",
        "UPDATE photoobj SET status = 1, flags = 7 "
        "WHERE ra BETWEEN 10 AND 20 AND ra > 12 AND type IN (3, 3)",
        "DELETE FROM neighbors WHERE distance > 0.45 AND distance > 0.4 "
        "AND neighbortype = 2",
    ],
    "tpch": [
        "SELECT l_orderkey FROM lineitem WHERE l_shipdate >= 100 "
        "AND l_shipdate < 200 AND l_shipdate > 150 "
        "AND l_returnflag IN (1, 2) LIMIT 7",
        "SELECT a.o_orderkey FROM orders a, orders b "
        "WHERE a.o_custkey = b.o_custkey AND a.o_totalprice > 100 "
        "AND b.o_totalprice > 100",
        "UPDATE orders SET o_totalprice = 10.5 WHERE o_orderkey = 77",
        "DELETE FROM lineitem WHERE l_shipdate < 120 AND l_discount > 0.08",
        "INSERT INTO part VALUES (1, 18, 7, 3, 905.0)",
    ],
}
CATALOGS = {"sdss": lambda: sdss_catalog(scale=0.05),
            "tpch": lambda: tpch_catalog(scale=0.05)}
REGISTRIES = {"sdss": sdss.TEMPLATE_REGISTRY, "tpch": tpch.TEMPLATE_REGISTRY}
SEEDS = [
    (env, maker(random.Random(7)))
    for env, registry in REGISTRIES.items()
    for __, maker in sorted(registry.items())
] + [(env, sql) for env, texts in EXTRA.items() for sql in texts]


@pytest.fixture(scope="module")
def services():
    """One service per catalog whose template map knows every seed."""
    out = {}
    for env, make in CATALOGS.items():
        out[env] = service = CostService(make())
        for seed_env, sql in SEEDS:
            if seed_env == env:
                service.bound(sql)
    return out


# A small pool, so that bounds cross and tie and IN lists repeat.
NUMBERS = [0, 1, 2, 3, 5, 15, 100, 0.5, 1.0, 2.5, 3.0, 15.0, 16.25]


@st.composite
def redrawn(draw, sql):
    """*sql* with each literal redrawn: mostly a number of the pool (or
    the literal it had), sometimes a negative number, a string or
    NULL — which change the text's shape, and so its template."""
    tokens = Lexer(sql).tokens()
    parts, at = [], 0
    for tok, nxt in zip(tokens, tokens[1:]):
        if tok.kind not in ("number", "string"):
            continue
        literal = sql[tok.position:nxt.position].rstrip()
        kind = draw(st.sampled_from(
            ["pool"] * 5 + ["same", "negative", "string", "null"]))
        if kind == "pool":
            literal = repr(draw(st.sampled_from(NUMBERS)))
        elif kind == "negative":
            literal = repr(-draw(st.sampled_from(NUMBERS[1:])))
        elif kind == "string":
            literal = draw(st.sampled_from(["'a'", "'b'", "'it''s'"]))
        elif kind == "null":
            literal = "NULL"
        parts += [sql[at:tok.position], literal]
        at = tok.position + len(sql[tok.position:nxt.position].rstrip())
    return "".join(parts) + sql[at:]


def outcome(compute):
    """``("ok", value)``, or ``("raised", type, message)``."""
    try:
        return ("ok", compute())
    except Exception as exc:  # the reference's own errors, compared
        return ("raised", type(exc), str(exc))


def bind_pair(service, sql):
    """``(through the template map, cold)`` for *sql*, or ``None`` once
    both raised the same error."""
    reference = outcome(lambda: bind_statement(sql, service.catalog))
    shipped = outcome(lambda: service.bound(sql))
    if reference[0] == "raised":
        assert shipped == reference
        return None
    assert shipped[0] == "ok", shipped
    got, want = shipped[1], reference[1]
    assert got.sql == want.sql  # also fills a query's lazily unparsed text
    assert got == want
    return got, want


def indexes_over(bq, alias):
    """Single- and two-column indexes over *alias*'s referenced columns."""
    table = bq.table_for(alias).name
    columns = sorted(referenced_reference(bq, alias))
    out = [Index(table, (c,)) for c in columns]
    out += [Index(table, (a, b)) for a in columns[:4] for b in columns[:4]
            if a != b]
    return out


def check_read(service, got, want, draw_indexes):
    catalog = service.catalog
    assert got.template is not want.template
    for alias in want.aliases:
        table = want.table_for(alias)
        assert got.referenced_columns(alias) == \
            referenced_reference(want, alias)
        context = outcome(lambda: P.scan_context(got, alias, catalog))
        expected = outcome(lambda: scan_context_reference(want, alias,
                                                          catalog))
        if expected[0] == "raised":
            assert context == expected
            continue
        ctx, fields = context[1], expected[1]
        assert {name: getattr(ctx, name) for name in fields} == fields
        assert ctx.shape is got.template.part(P._scan_shape, got, alias)
        cold = P.scan_context(want, alias, catalog)
        probes = [()] + [(c.side_for(alias)[0],)
                         for c in want.joins_for(alias)]
        indexes = indexes_over(want, alias)
        for index in indexes:
            for params in probes:
                assert P._match_index(ctx, index, params) == \
                    match_index_reference(
                        index, want.filters_for(alias), table, params,
                        lambda f: filter_selectivity(f, table))
        chosen = draw_indexes(indexes)
        for interesting in [(), ctx.interesting,
                            *((c,) for c in sorted(ctx.interesting))]:
            assert P.reaching_indexes(ctx, chosen, interesting) == \
                reaching_reference(cold, chosen, interesting)
        for params in probes[1:]:
            assert P.reaching_indexes(ctx, chosen, (), params) == \
                reaching_reference(cold, chosen, (), params)
    assert got.template.part(inum_cache._order_vectors, got) == \
        order_vectors_reference(want)
    assert outcome(lambda: query_signature(got)) == \
        outcome(lambda: query_signature_reference(want))
    assert got.template.part(colt_tuner._harvest, got) == harvest_reference(want)


@pytest.mark.parametrize("env, seed", SEEDS,
                         ids=["%s-%d" % (env, i) for i, (env, __)
                              in enumerate(SEEDS)])
@hsettings(max_examples=share(0.1))
@given(data=st.data())
def test_an_instance_is_its_text_bound_afresh(services, env, seed, data):
    service = services[env]
    sql = data.draw(redrawn(seed))
    pair = bind_pair(service, sql)
    if pair is None:
        return
    got, want = pair

    def draw_indexes(indexes):
        return data.draw(st.lists(st.sampled_from(indexes), unique=True))

    if isinstance(want, BoundWrite):
        if want.kind != "insert":
            locate, reference = locate_query(got), locate_query(want)
            assert locate.sql == reference.sql and locate == reference
            check_read(service, locate, reference, draw_indexes)
    else:
        check_read(service, got, want, draw_indexes)
    workload = [(seed, 2.0), (sql, 0.5)]
    assert candidate_indexes(service.catalog, workload,
                             bind=service.bound) == \
        candidate_indexes_reference(service.catalog, workload)


@hsettings(max_examples=share(0.3))
@given(data=st.data())
def test_plan_terms_are_the_texts_own(services, data):
    env, seed = data.draw(st.sampled_from(SEEDS))
    service = services[env]
    pair = bind_pair(service, data.draw(redrawn(seed)))
    if pair is None:
        return
    got, want = pair
    if isinstance(want, BoundWrite):
        if want.kind == "insert":
            return
        got, want = locate_query(got), locate_query(want)
    settings = PlannerSettings()
    built = outcome(lambda: inum_cache.build_cache(
        got, service.catalog, settings).plans)
    assert built == outcome(lambda: build_cache_reference(
        want, service.catalog, settings))


def test_seeds_and_redraws_share_templates(services):
    """The map holds one template per shape, and a redrawn text of a
    seed's shape is an instance of the seed's template."""
    for env, seed in SEEDS:
        service = services[env]
        key = template_key(Lexer(seed).tokens())
        template = service.templates[key]
        assert service.bound(seed).template is template
        twin = seed.replace("15", "16") if "15" in seed else seed + " "
        assert template_key(Lexer(twin).tokens()) == key
        assert service.bound(twin).template is template
    keys = {template_key(Lexer(sql).tokens()) for __, sql in SEEDS}
    assert sum(map(len, (s.templates for s in services.values()))) >= \
        len(keys)


def test_a_literal_keys_as_its_kind():
    """A number and a string in one place are two templates: the parser
    reads them differently (``LIMIT``, a unary minus)."""
    def key(sql):
        return template_key(Lexer(sql).tokens())

    base = "SELECT objid FROM photoobj WHERE type = %s LIMIT %s"
    assert key(base % ("1", "2")) == key(base % ("1.5", "7"))
    assert key(base % ("1", "2")) != key(base % ("'1'", "2"))
    assert key(base % ("1", "2")) != key(base % ("1", "'2'"))
    assert key(base % ("1", "2")) != key(base % ("-1", "2"))
    assert key(base % ("1", "2")) != key(base % ("NULL", "2"))
    catalog = sdss_catalog(scale=0.05)
    service = CostService(catalog)
    service.bound(base % ("1", "2"))
    service.bound("SELECT objid FROM photoobj WHERE dec BETWEEN -1 AND 2")
    for sql in (base % ("1", "'2'"), base % ("1", "2.0"),
                "SELECT objid FROM photoobj WHERE dec BETWEEN -'a' AND 2"):
        assert outcome(lambda: service.bound(sql)) == \
            outcome(lambda: bind_statement(sql, catalog))
