"""The interactive claim as a work budget (ROADMAP item 37).

The paper's Scenario 1 is interactive: the DBA proposes a design and
sees its benefit at once.  Seconds cannot pin that on a shared box, so
this module counts the work one question costs.  A warm
:class:`~repro.designer.Designer` is asked :meth:`evaluate_design` a
fixed sequence of questions — a new design, an extended one, a layout
design, then the first again — on SDSS and on TPC-H, and each question
counts:

* ``exact``: exact planner runs (``plan_query`` under ``CostService``);
* ``builds``: INUM builds (``build_cache``);
* ``slots``: slot resolutions (``_access_cost`` on the evaluator's
  slot memo misses);
* ``compiles``: statement kernels compiled.

``tests/data/whatif_budget.json`` holds each count with one reason per
question; a count above it fails.  A change that lowers one rewrites
the file in the same diff:

    PYTHONPATH=src python tests/test_whatif_budget.py   # print the counts
"""

import json
import sys
from pathlib import Path

import pytest

from repro.catalog import Index, VerticalFragment, VerticalLayout
from repro.designer import Designer
from repro.evaluation import evaluator as evaluator_module
from repro.evaluation import kernel as kernel_module
from repro.optimizer import service as service_module
from repro.workloads import (
    sdss_catalog,
    sdss_workload,
    tpch_catalog,
    tpch_workload,
)

BUDGET = Path(__file__).parent / "data" / "whatif_budget.json"
COUNTS = ("exact", "builds", "slots", "compiles")


def split(catalog, table, hot):
    """A two-fragment layout of *table*: *hot* and every other column."""
    rest = tuple(c for c in catalog.table(table).column_names if c not in hot)
    return VerticalLayout(table, (VerticalFragment(table, hot),
                                  VerticalFragment(table, rest)))


def sdss(catalog):
    ra, z = Index("photoobj", ("ra",)), Index("specobj", ("z",))
    return [("new", {"indexes": [ra]}),
            ("extended", {"indexes": [ra, z]}),
            ("layout", {"layouts": [split(catalog, "photoobj",
                                          ("objid", "ra", "dec", "type"))]}),
            ("repeat", {"indexes": [ra]})]


def tpch(catalog):
    ship = Index("lineitem", ("l_shipdate",))
    date = Index("orders", ("o_orderdate",))
    return [("new", {"indexes": [ship]}),
            ("extended", {"indexes": [ship, date]}),
            ("layout", {"layouts": [split(
                catalog, "lineitem",
                ("l_orderkey", "l_shipdate", "l_quantity",
                 "l_extendedprice"))]}),
            ("repeat", {"indexes": [ship]})]


# name -> (catalog, workload, questions)
ENVIRONMENTS = {
    "sdss": (lambda: sdss_catalog(scale=0.05),
             lambda: sdss_workload(n_queries=20, seed=42), sdss),
    "tpch": (lambda: tpch_catalog(scale=0.05),
             lambda: tpch_workload(n_queries=15, seed=7), tpch),
}


def counting(patch, counts):
    """Wrap each counted function where its callers look it up."""
    for name, module, attr in (
            ("exact", service_module, "plan_query"),
            ("builds", evaluator_module, "build_cache"),
            ("slots", evaluator_module, "_access_cost"),
            ("compiles", kernel_module, "compile_statement")):
        real = getattr(module, attr)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        patch(module, attr, counted)


def spend(name, patch):
    """``{question: {count: n}}`` for environment *name*."""
    make_catalog, make_workload, questions = ENVIRONMENTS[name]
    catalog = make_catalog()
    workload = list(make_workload())
    designer = Designer(catalog)
    designer.evaluator.warm_up(workload)
    counts = dict.fromkeys(COUNTS, 0)
    counting(patch, counts)
    spent = {}
    for question, design in questions(catalog):
        before = dict(counts)
        designer.evaluate_design(workload, **design)
        spent[question] = {k: counts[k] - before[k] for k in COUNTS}
    return spent


def budget():
    with open(BUDGET) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_a_question_costs_no_more_than_its_budget(name, monkeypatch):
    spent = spend(name, monkeypatch.setattr)
    allowed = budget()[name]
    assert list(spent) == list(allowed)
    for question, counts in spent.items():
        limit = allowed[question]
        assert limit["reason"].strip(), question
        over = {k: (counts[k], limit[k]) for k in COUNTS
                if counts[k] > limit[k]}
        assert not over, (question, over)


def test_a_repeated_question_is_answered_from_memory():
    """The fourth question is the first again: no planner run, no
    build, no slot resolved and no kernel compiled."""
    for name, questions in budget().items():
        assert questions["repeat"] == dict(
            questions["repeat"], exact=0, builds=0, slots=0,
            compiles=0), name


if __name__ == "__main__":
    spent = {}
    for name in sorted(ENVIRONMENTS):
        with pytest.MonkeyPatch.context() as patch:
            spent[name] = spend(name, patch.setattr)
    json.dump(spent, sys.stdout, indent=1)
    print()
