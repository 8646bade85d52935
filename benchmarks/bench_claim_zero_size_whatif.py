"""CL-ZSIZE — the paper's §2 critique of prior PostgreSQL advisors:

    "Monteiro et al. implement an index suggestion tool for PostgreSQL.
     They, however, assume the size of the indexes to be zero, which
     severely affects the accuracy of the optimizer when what-if indexes
     are used."

Method: run the same advisor pipeline twice — once with honest what-if
index costing, once with the zero-size assumption
(``assume_zero_size_indexes``) — and judge *both* recommendations under
the honest cost model.

Expected shape: the zero-size advisor systematically overestimates index
benefit (its predicted costs are far below what the honest model assigns
to the same design), and its chosen design is no better (typically worse)
in true cost.
"""

import pytest

from repro.cophy import CoPhyAdvisor
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import PlannerSettings

from conftest import print_table


def test_claim_zero_size_whatif_misleads(sdss_env, benchmark):
    catalog, __ = sdss_env
    # Index-only-scan-heavy queries: with honest costing the leaf pages ARE
    # the cost, so pretending indexes have zero size is maximally wrong.
    workload = [
        ("SELECT COUNT(*) FROM photoobj WHERE ra BETWEEN 0 AND 300", 1.0),
        ("SELECT COUNT(*) FROM photoobj WHERE dec BETWEEN -20 AND 60", 1.0),
        ("SELECT MIN(rmag) FROM photoobj WHERE rmag < 24", 1.0),
        ("SELECT COUNT(*) FROM photoobj WHERE gmag BETWEEN 16 AND 26", 1.0),
    ]
    budget = sum(t.pages for t in catalog.tables)  # room for every candidate

    honest_model = WorkloadEvaluator(catalog)
    honest = CoPhyAdvisor(honest_model).recommend(
        workload, budget
    )

    zero_settings = PlannerSettings(assume_zero_size_indexes=True)
    zero_model = WorkloadEvaluator(catalog, zero_settings)
    zero = CoPhyAdvisor(zero_model).recommend(
        workload, budget
    )

    # Judge both configurations with the honest model.
    true_cost_honest = honest_model.workload_cost(
        workload, honest.configuration
    )
    true_cost_zero = honest_model.workload_cost(workload, zero.configuration)

    print_table(
        "CL-ZSIZE: the zero-size what-if flaw",
        ("advisor", "predicted", "true cost", "prediction error %"),
        [
            (
                "honest",
                honest.predicted_workload_cost,
                true_cost_honest,
                100.0
                * abs(honest.predicted_workload_cost - true_cost_honest)
                / true_cost_honest,
            ),
            (
                "zero-size",
                zero.predicted_workload_cost,
                true_cost_zero,
                100.0
                * abs(zero.predicted_workload_cost - true_cost_zero)
                / true_cost_zero,
            ),
        ],
    )
    print_table(
        "CL-ZSIZE: design quality (true cost, lower=better)",
        ("honest design", "zero-size design"),
        [(true_cost_honest, true_cost_zero)],
    )

    # The honest advisor predicts its own outcome accurately...
    assert honest.predicted_workload_cost == pytest.approx(
        true_cost_honest, rel=0.02
    )
    # ...the zero-size advisor severely underestimates true cost
    # ("severely affects the accuracy of the optimizer")...
    assert zero.predicted_workload_cost < true_cost_zero * 0.9
    # ...and its design is no better under the truth.
    assert true_cost_honest <= true_cost_zero + 1e-6

    benchmark.pedantic(
        lambda: CoPhyAdvisor(WorkloadEvaluator(catalog)).recommend(
            workload, budget
        ),
        rounds=1,
        iterations=1,
    )


def test_claim_zero_size_inflates_per_query_benefit(sdss_env):
    """Per-query view: zero-size costing claims gains the honest model
    denies, on exactly the index-heavy queries."""
    catalog, workload = sdss_env
    from repro.catalog import Index
    from repro.whatif import Configuration

    config = Configuration.of(Index("photoobj", ("dec",)))
    honest = WorkloadEvaluator(catalog)
    zero = WorkloadEvaluator(catalog, PlannerSettings(assume_zero_size_indexes=True))

    sql = "SELECT ra, dec FROM photoobj WHERE dec BETWEEN 10 AND 30"
    honest_gain = honest.cost(sql) - honest.cost(sql, config)
    zero_gain = zero.cost(sql) - zero.cost(sql, config)
    print_table(
        "CL-ZSIZE: claimed benefit of an index on a 11% dec range",
        ("model", "claimed gain"),
        [("honest", honest_gain), ("zero-size", zero_gain)],
    )
    assert zero_gain > honest_gain
