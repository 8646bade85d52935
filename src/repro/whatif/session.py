"""What-if sessions: evaluate queries and workloads under hypothetical
configurations, with per-configuration service caching.

The session is the single entry point through which every designer
component obtains optimizer costs for designs that do not exist — the
paper's claim that "we escape the cost of explicitly building a
structure".
"""

from dataclasses import dataclass, field, replace

from repro.util import workload_pairs
from repro.whatif.config import Configuration


def _improvement_pct(base, new):
    """Percentage improvement with the degenerate-cost convention shared
    by per-query and report-level numbers: a zero/negative base with a
    *different* new cost is ±inf (mirroring ``speedup``), never a silent
    0.0 no-op."""
    if base <= 0:
        if new == base:
            return 0.0
        return float("inf") if new < base else float("-inf")
    return 100.0 * (base - new) / base


@dataclass
class QueryBenefit:
    """Per-query outcome of a what-if comparison."""

    sql: str
    base_cost: float
    new_cost: float
    weight: float = 1.0

    @property
    def benefit(self):
        return self.base_cost - self.new_cost

    @property
    def improvement_pct(self):
        return _improvement_pct(self.base_cost, self.new_cost)


@dataclass
class WhatIfReport:
    """Workload-level what-if comparison (the demo's benefit panels)."""

    configuration: Configuration
    per_query: list = field(default_factory=list, init=False)

    @property
    def base_total(self):
        return sum(b.weight * b.base_cost for b in self.per_query)

    @property
    def new_total(self):
        return sum(b.weight * b.new_cost for b in self.per_query)

    @property
    def average_improvement_pct(self):
        return _improvement_pct(self.base_total, self.new_total)

    def to_text(self):
        max_rows = 20
        lines = [
            "What-if evaluation of:",
            _indent(self.configuration.describe()),
            "",
            "%-6s %12s %12s %9s  %s" % ("query", "base", "new", "gain%", "sql"),
        ]
        for i, b in enumerate(self.per_query[:max_rows]):
            lines.append(
                "q%-5d %12.1f %12.1f %8.1f%%  %s"
                % (i, b.base_cost, b.new_cost, b.improvement_pct, _clip(b.sql))
            )
        if len(self.per_query) > max_rows:
            lines.append("... (%d more queries)" % (len(self.per_query) - max_rows))
        lines.append(
            "workload: base=%.1f new=%.1f improvement=%.1f%%"
            % (self.base_total, self.new_total, self.average_improvement_pct)
        )
        return "\n".join(lines)


def _indent(text):
    return "\n".join("  " + line for line in text.splitlines())


def _clip(sql, limit=60):
    return sql if len(sql) <= limit else sql[: limit - 3] + "..."


class WhatIfSession:
    """Cost evaluation under hypothetical configurations.

    The session routes all costing through a shared
    :class:`~repro.evaluation.WorkloadEvaluator` — the designer's single
    costing backplane.  Exact optimizer costs (this class's contract)
    come from the evaluator's per-configuration :class:`CostService`
    cache, so repeated probes of the same design (COLT does many) cost
    nothing extra beyond the underlying plan cache; batched analytic
    sweeps over many designs go through the evaluator's
    :meth:`~repro.evaluation.WorkloadEvaluator.evaluate_configurations`.
    """

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.catalog = evaluator.catalog
        self.base_service = evaluator.exact_service()

    # ------------------------------------------------------------------

    def service_for(self, config):
        """CostService seeing *config* overlaid on the base catalog."""
        return self.evaluator.exact_service(config)

    def with_join_methods(self, **enable_flags):
        """What-if join control: a session whose optimizer has the given
        join flags overridden (e.g. ``enable_hashjoin=False``)."""
        # Imported here: repro.evaluation itself imports repro.whatif.
        from repro.evaluation.evaluator import WorkloadEvaluator

        settings = replace(self.evaluator.settings, **enable_flags)
        return WhatIfSession(WorkloadEvaluator(self.catalog, settings))

    # ------------------------------------------------------------------

    def cost(self, query, config=None):
        config = config or Configuration.empty()
        return self.service_for(config).cost(query)

    def workload_cost(self, workload, config=None):
        config = config or Configuration.empty()
        return self.service_for(config).workload_cost(workload)

    def evaluate(self, workload, config):
        """Full what-if comparison: base design vs *config* (Scenario 1)."""
        report = WhatIfReport(configuration=config)
        new_service = self.service_for(config)
        for query, weight in workload_pairs(workload):
            bq = self.base_service.bound(query)
            report.per_query.append(
                QueryBenefit(
                    sql=bq.sql,
                    base_cost=self.base_service.cost(bq),
                    new_cost=new_service.cost(bq),
                    weight=weight,
                )
            )
        return report
