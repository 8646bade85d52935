"""CL-WHATIF — the paper's claim that what-if simulation lets the tool
"escape the cost of explicitly building a structure" (§3.1).

Method: compare the wall time of evaluating a candidate design through
the what-if optimizer against the *estimated build work* of actually
materializing it (in cost-model units, converted via the measured
sequential-scan throughput of the same machine-independent unit system),
and verify a what-if session issues only optimizer calls.

Expected shape: what-if evaluation is milliseconds and touches zero
pages; materialization is billions of cost units (hours of page writes).
"""

import time

from repro.catalog import Index
from repro.evaluation import WorkloadEvaluator
from repro.whatif import Configuration, WhatIfSession

from conftest import print_table


def candidate_config():
    return Configuration.of(
        Index("photoobj", ("ra", "dec")),
        Index("photoobj", ("type", "rmag")),
        Index("specobj", ("z",), include=("bestobjid",)),
    )


def test_claim_whatif_vs_build(sdss_env, benchmark):
    catalog, workload = sdss_env
    config = candidate_config()

    session = WhatIfSession(WorkloadEvaluator(catalog))
    t0 = time.perf_counter()
    report = session.evaluate(workload, config)
    t_whatif = time.perf_counter() - t0
    calls = session.base_service.optimizer_calls

    build_cost_units = config.build_cost(catalog)
    build_pages = (config.apply(catalog).design_size_pages()
                   - catalog.design_size_pages())

    print_table(
        "CL-WHATIF: evaluating a 3-index design on 20 queries",
        ("what-if seconds", "optimizer calls", "pages written"),
        [(t_whatif, calls, 0)],
    )
    print_table(
        "CL-WHATIF: actually building it would take",
        ("build cost units", "pages written"),
        [(build_cost_units, build_pages)],
    )
    print_table(
        "CL-WHATIF: benefit estimate obtained without building",
        ("avg improvement %",),
        [(report.average_improvement_pct,)],
    )

    # The whole point: exploration costs optimizer calls, not page writes.
    assert calls <= 2 * len(workload) + 5
    assert build_pages > 1000, "the design is physically substantial"
    assert report.average_improvement_pct > 0

    fresh = WhatIfSession(WorkloadEvaluator(catalog))
    benchmark(fresh.evaluate, workload, config)


def test_claim_whatif_catalog_isolation(sdss_env):
    """What-if exploration must not leak into the real catalog."""
    catalog, workload = sdss_env
    session = WhatIfSession(WorkloadEvaluator(catalog))
    before = set(ix.name for ix in catalog.indexes)
    for ix in candidate_config().indexes:
        session.evaluate(workload, Configuration.of(ix))
    assert set(ix.name for ix in catalog.indexes) == before


def test_claim_join_whatif_component(sdss_env, benchmark):
    """The what-if *join* sub-component: costing designs under altered
    join-method availability without touching the server config."""
    catalog, workload = sdss_env
    base = WhatIfSession(WorkloadEvaluator(catalog))

    def evaluate_join_matrix():
        rows = []
        for flag in ("enable_hashjoin", "enable_mergejoin", "enable_nestloop"):
            session = base.with_join_methods(**{flag: False})
            rows.append((flag, session.workload_cost(workload)))
        return rows

    rows = benchmark.pedantic(evaluate_join_matrix, rounds=1, iterations=1)
    full = base.workload_cost(workload)
    print_table(
        "CL-WHATIF: join-method what-if matrix",
        ("disabled method", "workload cost"),
        [("(none)", full)] + rows,
    )
    for __, cost in rows:
        assert cost >= full - 1e-6  # removing an option can never help
