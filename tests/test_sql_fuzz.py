"""The SQL front end as a trust boundary (ROADMAP item 4(d)).

Statement text reaches ``bind_statement`` from a CLI flag, a tenant's
stream and — through a runner's task frames — from any peer that can
open a socket.  Hypothesis mangles real SDSS / TPC-H statements, reads
and writes alike (spans deleted, inserted, truncated and spliced in from
another statement; tokens shuffled; stray quotes, ``1e999``, NUL and
non-ASCII text dropped in) and holds the lexer, parser and binder to
the contract the runner relies on when it answers ``wire_error=True``:

* nothing but a typed :class:`~repro.util.ReproError` escapes;
* whatever still binds is well-formed, so it must plan (reads) or price
  (writes) to a finite, non-negative cost.

This is a pin, not a fix: 20 000 crude mutations of the same templates
found nothing before it was written, so it guards a front end that
already holds.  Example budgets come from the hypothesis profile
(``tests/conftest.py``; ``--hypothesis-profile=ci`` for ten times more).
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optimizer import CostService
from repro.sql.binder import BoundQuery, BoundWrite, bind_statement
from repro.util import ReproError
from repro.workloads import sdss, sdss_catalog, tpch, tpch_catalog

ENVIRONMENTS = {
    "sdss": (sdss.TEMPLATE_REGISTRY, lambda: sdss_catalog(scale=0.05)),
    "tpch": (tpch.TEMPLATE_REGISTRY, lambda: tpch_catalog(scale=0.05)),
}

HOSTILE = [
    "'", '"', "''", "`", "1e999", "-1e999", "1e-999", "\x00", "\x00\x00",
    "é", "∞", "ｓｅｌｅｃｔ", "‮", "퟿", "--", "/*", "*/", ";", "(",
    ")", "((", ",", ".", "..", "*", "=", "<", ">=", "<>", "!", "%", "\\",
    "\n", "\t", "9" * 40, "0x1F", "1.2.3", ".5", "5.", "1e", "e9",
    " AND ", " OR ", " NOT ", " NULL ", " IN ()", " BETWEEN ", " SELECT ",
    " FROM ", " WHERE ", " GROUP BY ", " ORDER BY ", " LIMIT ", " LIMIT -1",
    " LIMIT 1e999", " SET ", " VALUES ", " DELETE FROM ", " p.", "p..objid",
    " COUNT(", " SUM(*) ",
]


# The registries carry SDSS's UPDATE and INSERT templates; no template
# deletes, so each pool gets a DELETE and an UPDATE over its own schema.
EXTRA_WRITES = {
    "sdss": [
        "DELETE FROM neighbors WHERE distance > 0.45 AND neighbortype = 2",
        "UPDATE specobj SET z = 0.5, zerr = 0.01 WHERE plate = 301",
    ],
    "tpch": [
        "DELETE FROM lineitem WHERE l_shipdate < 120 AND l_discount > 0.08",
        "UPDATE orders SET o_totalprice = 10.5 WHERE o_orderkey = 77",
        "INSERT INTO part VALUES (1, 18, 7, 3, 905.0)",
    ],
}


def statements(name, per_template=3):
    rng = random.Random(97)
    return EXTRA_WRITES[name] + [
        maker(rng)
        for __, maker in sorted(ENVIRONMENTS[name][0].items())
        for __ in range(per_template)
    ]


@st.composite
def mangled(draw, pool):
    """A statement of *pool* after one to three edits."""
    text = draw(st.sampled_from(pool))
    for __ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(
            ["delete", "insert", "truncate", "splice", "shuffle", "text"]
        ))
        cut = draw(st.integers(0, len(text)))
        end = min(len(text), cut + draw(st.integers(0, 12)))
        if edit == "delete":
            text = text[:cut] + text[end:]
        elif edit == "insert":
            text = text[:cut] + draw(st.sampled_from(HOSTILE)) + text[cut:]
        elif edit == "truncate":
            text = text[:cut]
        elif edit == "splice":
            other = draw(st.sampled_from(pool))
            start = draw(st.integers(0, len(other)))
            text = text[:cut] + other[start:start + 20] + text[end:]
        elif edit == "shuffle":
            tokens = text.split(" ")
            first = draw(st.integers(0, len(tokens)))
            window = tokens[first:first + 4]
            tokens[first:first + 4] = draw(st.permutations(window))
            text = " ".join(tokens)
        else:
            text = text[:cut] + draw(st.text(max_size=5)) + text[end:]
    return text


@pytest.fixture(scope="module", params=sorted(ENVIRONMENTS))
def environment(request):
    catalog = ENVIRONMENTS[request.param][1]()
    return catalog, CostService(catalog), statements(request.param)


def test_the_unmangled_statements_bind_and_cost(environment):
    """The fuzz below starts from statements that are themselves fine —
    and that include every kind of write."""
    catalog, service, pool = environment
    kinds = set()
    for sql in pool:
        bound = bind_statement(sql, catalog)
        kinds.add(getattr(bound, "kind", "select"))
        assert math.isfinite(service.cost(bound))
    assert {"select", "update", "delete", "insert"} <= kinds


@given(data=st.data())
def test_only_typed_errors_escape_and_survivors_plan(environment, data):
    catalog, service, pool = environment
    sql = data.draw(mangled(pool))
    try:
        bound = bind_statement(sql, catalog)
    except ReproError:
        return
    assert isinstance(bound, (BoundQuery, BoundWrite))
    cost = service.cost(bound)
    assert math.isfinite(cost) and cost >= 0.0, (sql, cost)
    if isinstance(bound, BoundQuery):
        assert service.plan(bound).explain()
