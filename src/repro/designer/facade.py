"""The Designer facade: Figure 1 wired together."""

import itertools
from dataclasses import dataclass, field

from repro.autopart import AutoPartAdvisor, rewrite_for_layout
from repro.colt import ColtTuner
from repro.cophy import CoPhyAdvisor, candidate_indexes
from repro.evaluation import WorkloadEvaluator
from repro.interaction import (
    InteractionAnalyzer,
    schedule_greedy,
    schedule_naive,
    schedule_optimal,
)
from repro.interaction.schedule import MAX_EXACT
from repro.util import DesignError, workload_pairs
from repro.whatif import Configuration, WhatIfSession


@dataclass
class DesignEvaluation:
    """Scenario 1 output: benefits of a user-proposed design."""

    report: object  # WhatIfReport
    interaction_graph: object  # InteractionGraph or None
    rewritten_queries: list = field(default_factory=list)

    def to_text(self):
        parts = [self.report.to_text()]
        if self.interaction_graph is not None:
            parts.append(self.interaction_graph.to_text())
        if self.rewritten_queries:
            parts.append("Rewritten queries for the new partitions:")
            for sql in self.rewritten_queries[:10]:
                parts.append("  %s" % sql)
        return "\n\n".join(parts)


@dataclass
class FullRecommendation:
    """Scenario 2 output: indexes + partitions + schedule + interactions."""

    index_recommendation: object
    partition_recommendation: object
    combined_configuration: Configuration
    base_workload_cost: float
    combined_workload_cost: float
    schedule: object = None
    naive_schedule: object = None
    interaction_graph: object = None

    @property
    def improvement_pct(self):
        if self.base_workload_cost <= 0:
            return 0.0
        return (
            100.0
            * (self.base_workload_cost - self.combined_workload_cost)
            / self.base_workload_cost
        )

    def to_text(self):
        parts = [self.index_recommendation.to_text()]
        if self.partition_recommendation is not None:
            parts.append(self.partition_recommendation.to_text())
        if self.interaction_graph is not None:
            parts.append(self.interaction_graph.to_text())
        if self.schedule is not None:
            parts.append(self.schedule.to_text())
            if self.naive_schedule is not None:
                parts.append(
                    "(naive benefit-order schedule area: %.1f vs %.1f — %.1f%% worse)"
                    % (
                        self.naive_schedule.area,
                        self.schedule.area,
                        100.0
                        * (self.naive_schedule.area - self.schedule.area)
                        / max(self.schedule.area, 1e-9),
                    )
                )
        parts.append(
            "combined design: workload %.1f -> %.1f (%.1f%% better)"
            % (
                self.base_workload_cost,
                self.combined_workload_cost,
                self.improvement_pct,
            )
        )
        return "\n\n".join(parts)


class Designer:
    """The automated, interactive, portable physical designer."""

    def __init__(self, catalog, evaluator=None):
        if evaluator is None:
            evaluator = WorkloadEvaluator(catalog)
        elif evaluator.catalog is not catalog:
            raise DesignError(
                "catalog conflict: the evaluator prices a different "
                "catalog than the designer's"
            )
        self.catalog = catalog
        # One WorkloadEvaluator is the costing backplane for every
        # component: the advisors share its INUM cache pool, the what-if
        # session its exact per-configuration services.
        self.evaluator = evaluator
        self.session = WhatIfSession(evaluator)
        self._index_advisor = CoPhyAdvisor(evaluator)
        self._partition_advisor = AutoPartAdvisor(evaluator)

    # ------------------------------------------------------------------
    # Scenario 1: interactive what-if evaluation.
    # ------------------------------------------------------------------

    def evaluate_design(self, workload, indexes=(), layouts=(), horizontals=()):
        """Estimate the benefit of a user-chosen design without building it."""
        workload = list(workload)
        if not workload:
            raise DesignError("provide a workload to evaluate against")
        config = Configuration(
            indexes=frozenset(indexes),
            layouts=tuple(layouts),
            horizontals=tuple(horizontals),
        )
        report = self.session.evaluate(workload, config)
        graph = None
        if len(config.indexes) >= 2:
            analyzer = InteractionAnalyzer(self.evaluator, workload)
            graph = analyzer.interaction_graph(config.indexes)
        rewrites = []
        if config.layouts:
            layout_map = {l.table_name: l for l in config.layouts}
            for sql, __ in workload_pairs(workload):
                bound = self.session.base_service.bound(sql)
                if bound.is_write:
                    continue  # writes are not rewritten onto fragments
                # The rewriter re-renders SQL, so "text changed" says
                # nothing: a statement is rewritten iff it reads a
                # re-laid-out table.
                if any(t.name in layout_map for t in bound.tables.values()):
                    rewrites.append(
                        rewrite_for_layout(bound, self.catalog, layout_map)
                    )
        return DesignEvaluation(
            report=report, interaction_graph=graph, rewritten_queries=rewrites
        )

    # ------------------------------------------------------------------
    # Scenario 2: automatic recommendation + schedule.
    # ------------------------------------------------------------------

    def recommend(
        self,
        workload,
        storage_budget_pages,
        solver="milp",
        partitions=True,
        seed_indexes=(),
        max_candidates=60,
        schedule=True,
    ):
        """Recommend indexes (CoPhy) and partitions (AutoPart) within budget.

        ``seed_indexes`` lets the DBA steer the search: user-suggested
        candidates are merged into the generated candidate set, the
        paper's "starting point of the search algorithm".

        An identical call on this backplane (every argument; statement
        order too, float accumulation and greedy ties follow it) gets
        the earlier result object back: treat it as read-only.
        """
        workload = list(workload)
        key = (
            tuple(workload_pairs(workload)), storage_budget_pages, solver,
            partitions, tuple(seed_indexes), max_candidates, schedule,
        )
        return self.evaluator.recommendation(
            key, lambda: self._recommend(workload, *key[1:])
        )

    def _recommend(self, workload, storage_budget_pages, solver, partitions,
                   seed_indexes, max_candidates, schedule):
        candidates = candidate_indexes(
            self.catalog, workload, max_candidates=max_candidates,
            bind=self.evaluator.bound,
        )
        for seed in seed_indexes:
            if seed not in candidates:
                candidates.insert(0, seed)
        index_rec = self._index_advisor.recommend(
            workload,
            storage_budget_pages,
            candidates=candidates,
            solver=solver,
        )

        partition_rec = None
        combined = index_rec.configuration
        if partitions:
            remaining = max(0, storage_budget_pages - index_rec.size_pages)
            partition_rec = self._partition_advisor.recommend(
                workload, replication_budget_pages=remaining
            )
            candidate = combined.union(partition_rec.configuration)
            candidate_cost, combined_only = self.evaluator.workload_costs(
                workload, [candidate, combined]
            )
            if candidate_cost < combined_only:
                combined = candidate
            else:
                partition_rec = None  # partitions did not help on top of indexes

        base_cost, combined_cost = self.evaluator.workload_costs(
            workload, [Configuration.empty(), combined]
        )

        graph = None
        sched = naive = None
        if len(index_rec.indexes) >= 2:
            analyzer = InteractionAnalyzer(self.evaluator, workload)
            graph = analyzer.interaction_graph(index_rec.indexes)
            if schedule:
                if len(index_rec.indexes) <= MAX_EXACT:
                    # The exact DP reads every subset: one lattice pass
                    # prices those the graph's contexts did not.
                    analyzer.prefetch(itertools.chain.from_iterable(
                        itertools.combinations(index_rec.indexes, r)
                        for r in range(len(index_rec.indexes) + 1)))
                sched = schedule_optimal(index_rec.indexes, analyzer.cost, self.catalog)
                naive = schedule_naive(index_rec.indexes, analyzer.cost, self.catalog)
        elif schedule and index_rec.indexes:
            analyzer = InteractionAnalyzer(self.evaluator, workload)
            sched = schedule_greedy(index_rec.indexes, analyzer.cost, self.catalog)

        return FullRecommendation(
            index_recommendation=index_rec,
            partition_recommendation=partition_rec,
            combined_configuration=combined,
            base_workload_cost=base_cost,
            combined_workload_cost=combined_cost,
            schedule=sched,
            naive_schedule=naive,
            interaction_graph=graph,
        )

    # ------------------------------------------------------------------
    # Scenario 3: continuous tuning.
    # ------------------------------------------------------------------

    def continuous(self, stream, colt_settings=None):
        """Monitor *stream* and tune online; returns the OnlineReport."""
        return self.continuous_tuner(colt_settings).run(stream)

    def continuous_tuner(self, colt_settings=None):
        """A live tuner for feed-as-you-go use (alerts stay pending until
        the DBA adopts them when ``auto_adopt=False``)."""
        return ColtTuner(self.evaluator, colt_settings)

    # ------------------------------------------------------------------
    # Design hygiene: drop suggestions.
    # ------------------------------------------------------------------

    def suggest_drops(self, workload):
        """Existing indexes no plan of *workload* touches — candidates
        for DROP INDEX.

        Returns ``[(index, pages_reclaimed), ...]`` sorted by reclaimed
        space.  Complements Scenario 2: commercial advisors flag unused
        indexes alongside new ones.
        """
        workload = list(workload)
        if not workload:
            raise DesignError("provide a workload to judge index usage against")
        service = self.session.service_for(Configuration.empty())
        used = set()
        for sql, __ in workload_pairs(workload):
            if service.bound(sql).is_write:
                continue  # writes maintain indexes, they don't justify them
            used |= {ix.name for ix in service.plan(sql).indexes_used()}
        drops = []
        for ix in self.catalog.indexes:
            if ix.name not in used:
                table = self.catalog.table(ix.table_name)
                drops.append((ix, ix.size_pages(table)))
        drops.sort(key=lambda pair: -pair[1])
        return drops

    # ------------------------------------------------------------------

    def materialize(self, configuration):
        """Physically create a configuration: returns the new catalog and
        the total build cost charged (the demo's "create the suggested
        partitions and indexes" button)."""
        cost = configuration.build_cost(self.catalog)
        return configuration.apply(self.catalog), cost

