"""A baseline for judging online tuning quality.

:func:`static_oracle` is the best *static* design chosen with hindsight
over the whole stream (an offline CoPhy run on the full trace).  An
online tuner cannot beat a clairvoyant static design on a static
workload, but on a drifting one it can, because no single configuration
fits all phases — exactly the regime Scenario 3 demonstrates.
"""

from dataclasses import dataclass

from repro.cophy import CoPhyAdvisor
from repro.cophy.compression import compress_workload
from repro.evaluation import WorkloadEvaluator
from repro.whatif import WhatIfSession
from repro.workloads.workload import Workload


@dataclass
class OracleResult:
    configuration: object
    stream_cost: float
    build_cost: float

    @property
    def total_cost(self):
        return self.stream_cost + self.build_cost


def static_oracle(catalog, stream, space_budget_pages):
    """Best static configuration in hindsight for the whole stream."""
    statements = [
        item[1] if isinstance(item, tuple) else item for item in stream
    ]
    workload = Workload((sql, 1.0) for sql in statements)
    compressed, __ = compress_workload(catalog, workload)
    evaluator = WorkloadEvaluator(catalog)
    advisor = CoPhyAdvisor(evaluator)
    recommendation = advisor.recommend(
        compressed, space_budget_pages, max_candidates=40
    )
    config = recommendation.configuration
    session = WhatIfSession(evaluator)
    stream_cost = sum(session.cost(sql, config) for sql in statements)
    return OracleResult(
        configuration=config,
        stream_cost=stream_cost,
        build_cost=config.build_cost(catalog),
    )
