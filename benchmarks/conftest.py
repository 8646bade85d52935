"""Shared environments for the experiment benchmarks.

Each bench regenerates one artifact of the paper's evaluation (see the
README's experiment table).  Fixtures are session-scoped: the SDSS-lite catalog and
workload are the common substrate, built once.

``--json PATH`` additionally writes every table a bench prints to
machine-readable JSON: one ``BENCH_<slug>.json`` per table when PATH is
a directory, or a single combined file otherwise.  The JSON carries the
same numbers as the printed tables — it is a serialization, not a
second measurement — plus a ``meta`` block (timestamp, git SHA, CPU
count, python version) so an archived artifact identifies the run that
produced it.  ``--json-timestamp`` lets a harness stamp its own ISO
timestamp instead of the collection wall clock.
"""

import json
import os
import platform
import re
import subprocess
import sys
from datetime import datetime, timezone

import pytest

# The reference implementations benches measure against (full-batch
# greedy, the serial walks) live with the tests, not in ``src/``.
sys.path.append(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"
))

from repro.evaluation import WorkloadEvaluator
from repro.whatif import Configuration
from repro.workloads import sdss_catalog, sdss_workload, tpch_catalog, tpch_workload

SDSS_SCALE = 0.1
SDSS_QUERIES = 20
SEED = 42


@pytest.fixture(scope="session")
def sdss_env():
    """(catalog, workload) for the SDSS-lite setting used across benches."""
    catalog = sdss_catalog(scale=SDSS_SCALE)
    workload = sdss_workload(n_queries=SDSS_QUERIES, seed=SEED)
    return catalog, workload


@pytest.fixture(scope="session")
def sdss_evaluator(sdss_env):
    """A warmed ``WorkloadEvaluator`` over ``sdss_env``, shared by the
    benches whose components price on a warm backplane."""
    catalog, workload = sdss_env
    evaluator = WorkloadEvaluator(catalog)
    evaluator.warm_up(workload)
    return evaluator


@pytest.fixture(scope="session")
def tpch_env():
    catalog = tpch_catalog(scale=0.05)
    workload = tpch_workload(n_queries=15, seed=7)
    return catalog, workload


_tables = []  # every print_table emission, in print order


def print_table(title, header, rows):
    """Uniform experiment output: the series the demo panels display."""
    _tables.append(
        {"title": title, "header": list(header),
         "rows": [list(row) for row in rows]}
    )
    print("\n=== %s ===" % title)
    print("  " + "  ".join("%14s" % h for h in header))
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append("%14.2f" % value)
            else:
                cells.append("%14s" % (value,))
        print("  " + "  ".join(cells))


def assert_recommends(evaluator, workload, recommendation):
    """*recommendation* names an index, and *evaluator* prices its design
    strictly below the empty one on *workload*: an advisor recommending
    nothing must fail a bench, not pass its comparisons vacuously."""
    assert recommendation.indexes, "the advisor recommended no index"
    assert evaluator.workload_cost(
        workload, recommendation.configuration
    ) < evaluator.workload_cost(workload, Configuration.empty())


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help="write printed bench tables as JSON: one BENCH_<slug>.json "
             "per table if PATH is a directory, else one combined file",
    )
    parser.addoption(
        "--json-timestamp",
        action="store",
        default=None,
        metavar="ISO8601",
        help="run timestamp recorded in the JSON meta block (default: "
             "the UTC wall clock at write time)",
    )


def _slug(title):
    return re.sub(r"[^A-Za-z0-9]+", "_", title).strip("_")


def _git_sha():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        return None


def _run_meta(config):
    return {
        "timestamp": config.getoption("--json-timestamp")
        or datetime.now(timezone.utc).isoformat(),
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def pytest_sessionfinish(session):
    path = session.config.getoption("--json")
    if not path or not _tables:
        return
    meta = _run_meta(session.config)
    payload = [
        {**table, "rows": [
            [cell if isinstance(cell, (int, float, str, bool)) or cell is None
             else str(cell) for cell in row]
            for row in table["rows"]
        ]}
        for table in _tables
    ]
    if os.path.isdir(path):
        for table in payload:
            target = os.path.join(
                path, "BENCH_%s.json" % _slug(table["title"])
            )
            with open(target, "w") as handle:
                json.dump({**table, "meta": meta}, handle, indent=2)
    else:
        with open(path, "w") as handle:
            json.dump({"meta": meta, "tables": payload}, handle, indent=2)
