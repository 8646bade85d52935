"""The AutoPart partition advisor."""

from dataclasses import dataclass, field

from repro.catalog import HorizontalPartitioning, VerticalFragment, VerticalLayout
from repro.sql.binder import BoundWrite
from repro.util import DesignError, workload_pairs
from repro.whatif import Configuration


def _bound_queries(workload, bind):
    """Yield ``(bound_query, weight)`` for read statements only — writes
    affect partitioning decisions through the cost model, not through the
    attribute-usage analysis.  ``bind(sql)`` binds one statement: the
    advisor passes its backplane's ``bound``, which has already bound
    every statement the search prices."""
    for sql, weight in workload_pairs(workload):
        bound = bind(sql)
        if not isinstance(bound, BoundWrite):
            yield bound, weight

MAX_HORIZONTAL_PARTITIONS = 16


@dataclass
class PartitionRecommendation:
    """Suggested partitions plus their predicted impact (Figure 3 panel)."""

    configuration: Configuration
    base_workload_cost: float
    predicted_workload_cost: float
    replication_pages: int
    per_query: list = field(default_factory=list)  # (sql, base, new)
    merge_log: list = field(default_factory=list)

    @property
    def layouts(self):
        return {l.table_name: l for l in self.configuration.layouts}

    @property
    def benefit(self):
        return self.base_workload_cost - self.predicted_workload_cost

    @property
    def improvement_pct(self):
        if self.base_workload_cost <= 0:
            return 0.0
        return 100.0 * self.benefit / self.base_workload_cost

    def to_text(self):
        max_rows = 12
        lines = ["Suggested partitions:"]
        for layout in self.configuration.layouts:
            lines.append("  table %s:" % layout.table_name)
            for frag in layout.fragments:
                lines.append("    fragment {%s}" % ", ".join(frag.columns))
        for horizontal in self.configuration.horizontals:
            lines.append(
                "  table %s: range partition on %s (%d partitions)"
                % (
                    horizontal.table_name,
                    horizontal.column,
                    horizontal.partition_count,
                )
            )
        if not self.configuration.layouts and not self.configuration.horizontals:
            lines.append("  (none — current layout is already good)")
        lines.append("%-6s %12s %12s %9s" % ("query", "base", "new", "gain%"))
        for i, (sql, base, new) in enumerate(self.per_query[:max_rows]):
            pct = 100.0 * (base - new) / base if base > 0 else 0.0
            lines.append("q%-5d %12.1f %12.1f %8.1f%%" % (i, base, new, pct))
        lines.append(
            "workload: %.1f -> %.1f (%.1f%% better), replication %d pages"
            % (
                self.base_workload_cost,
                self.predicted_workload_cost,
                self.improvement_pct,
                self.replication_pages,
            )
        )
        return "\n".join(lines)


class AutoPartAdvisor:
    """Workload-driven partition designer over one
    :class:`~repro.evaluation.WorkloadEvaluator`, which prices its search
    as kernel delta batches."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.catalog = evaluator.catalog

    def _totals(self, workload, parent, children):
        """Workload cost of each of *children*, priced as deltas off
        *parent* — only slots on tables whose design differs re-resolve
        (and, through the cover-keyed slot memo, only references whose
        cover changed weight re-price).  Equal to ``workload_cost`` per
        child, bit for bit."""
        return self.evaluator.evaluate_deltas(workload, parent, children).totals

    # ------------------------------------------------------------------

    def recommend(
        self,
        workload,
        replication_budget_pages=0,
        vertical=True,
        horizontal=True,
        max_merge_rounds=50,
    ):
        """Suggest partitions for *workload*."""
        workload = list(workload)
        if not workload:
            raise DesignError("cannot partition for an empty workload")
        if replication_budget_pages < 0:
            raise DesignError("replication budget must be non-negative")

        merge_log = []
        config = Configuration.empty()
        if vertical:
            config = self._vertical_phase(
                workload, replication_budget_pages, max_merge_rounds, merge_log
            )
        if horizontal:
            config = self._horizontal_phase(workload, config, merge_log)

        report = self.evaluator.evaluate_many(
            workload, [Configuration.empty(), config]
        )
        base_cost, new_cost = report.totals
        base_row, new_row = report.matrix
        per_query = [
            (sql, weight * base, weight * new)
            for (sql, weight), base, new in zip(
                workload_pairs(workload), base_row, new_row
            )
        ]
        return PartitionRecommendation(
            configuration=config,
            base_workload_cost=base_cost,
            predicted_workload_cost=new_cost,
            replication_pages=sum(
                l.replication_pages(self.catalog.table(l.table_name))
                for l in config.layouts
            ),
            per_query=per_query,
            merge_log=merge_log,
        )

    # ------------------------------------------------------------------
    # Vertical phase.
    # ------------------------------------------------------------------

    def _usage_signatures(self, workload):
        """Per table: column -> frozenset of query ids referencing it."""
        usage = {}
        bound = _bound_queries(workload, self.evaluator.bound)
        for qid, (bq, __) in enumerate(bound):
            for alias in bq.aliases:
                table = bq.table_for(alias)
                per_table = usage.setdefault(table.name, {})
                for col in bq.referenced_columns(alias):
                    per_table.setdefault(col, set()).add(qid)
        return usage

    def _primary_layout(self, table, column_usage):
        """Group columns by identical access signature."""
        groups = {}
        for col in table.column_names:
            signature = frozenset(column_usage.get(col, ()))
            groups.setdefault(signature, []).append(col)
        fragments = tuple(
            VerticalFragment(table.name, tuple(cols))
            for __, cols in sorted(
                groups.items(), key=lambda kv: tuple(sorted(kv[1]))
            )
        )
        return VerticalLayout(table.name, fragments)

    def _vertical_phase(self, workload, replication_budget, max_rounds, merge_log):
        usage = self._usage_signatures(workload)
        config = Configuration.empty()
        for table_name, column_usage in sorted(usage.items()):
            table = self.catalog.table(table_name)
            layout = self._primary_layout(table, column_usage)
            if len(layout.fragments) <= 1:
                continue  # everything accessed together: no point
            config = config.with_layout(layout)

        if not config.layouts:
            return config

        (current_cost,) = self._totals(workload, config, [config])
        for round_no in range(max_rounds):
            # One delta batch per round: every pairwise merge of every
            # layout, in enumeration order, priced off the current design.
            merges = []  # (candidate configuration, layout, i, j)
            for layout in config.layouts:
                frags = layout.fragments
                for i in range(len(frags)):
                    for j in range(i + 1, len(frags)):
                        merged = self._merge_fragments(layout, i, j)
                        merges.append((config.with_layout(merged), layout, i, j))
            if not merges:
                break
            costs = self._totals(workload, config, [m[0] for m in merges])
            best = None  # position of the first strictly lowest total
            for pos, cost in enumerate(costs):
                if cost < current_cost - 1e-9 and (
                    best is None or cost < costs[best]
                ):
                    best = pos
            if best is None:
                break
            current_cost = costs[best]
            config, layout, i, j = merges[best]
            merge_log.append(
                "round %d: merge %s: {%s}+{%s} -> cost %.1f"
                % (
                    round_no,
                    layout.table_name,
                    ",".join(layout.fragments[i].columns),
                    ",".join(layout.fragments[j].columns),
                    current_cost,
                )
            )

        if replication_budget > 0:
            config, current_cost = self._replication_phase(
                workload, config, current_cost, replication_budget, merge_log
            )
        # Drop layouts that ended up trivial (single fragment, no benefit).
        kept = tuple(l for l in config.layouts if len(l.fragments) > 1)
        return Configuration(
            indexes=config.indexes, layouts=kept, horizontals=config.horizontals
        )

    @staticmethod
    def _merge_fragments(layout, i, j):
        frags = list(layout.fragments)
        merged_cols = tuple(frags[i].columns) + tuple(
            c for c in frags[j].columns if c not in frags[i].columns
        )
        merged = VerticalFragment(layout.table_name, merged_cols)
        rest = [f for k, f in enumerate(frags) if k not in (i, j)]
        return VerticalLayout(layout.table_name, tuple(rest + [merged]))

    def _replication_phase(self, workload, config, current_cost, budget, merge_log):
        """Add replicated composite fragments for queries spanning fragments."""
        layout_by_table = {l.table_name: l for l in config.layouts}
        candidates = []
        bound = _bound_queries(workload, self.evaluator.bound)
        for qid, (bq, __) in enumerate(bound):
            for alias in bq.aliases:
                table = bq.table_for(alias)
                layout = layout_by_table.get(table.name)
                if layout is None:
                    continue
                needed = tuple(sorted(bq.referenced_columns(alias)))
                if not needed or len(layout.fragments_for(needed)) <= 1:
                    continue
                candidates.append((table.name, needed))
        seen = set()
        for table_name, needed in candidates:
            if (table_name, needed) in seen:
                continue
            seen.add((table_name, needed))
            layout = layout_by_table[table_name]
            extra = VerticalFragment(table_name, needed)
            widened = VerticalLayout(table_name, layout.fragments + (extra,))
            candidate = config.with_layout(widened)
            replication = sum(
                l.replication_pages(self.catalog.table(l.table_name))
                for l in candidate.layouts
            )
            if replication > budget:
                continue
            # Accepts are sequential: a one-child delta off the current design.
            (cost,) = self._totals(workload, config, [candidate])
            if cost < current_cost - 1e-9:
                config, current_cost = candidate, cost
                layout_by_table[table_name] = widened
                merge_log.append(
                    "replicate %s: {%s} -> cost %.1f"
                    % (table_name, ",".join(needed), cost)
                )
        return config, current_cost

    # ------------------------------------------------------------------
    # Horizontal phase.
    # ------------------------------------------------------------------

    def _horizontal_phase(self, workload, config, merge_log):
        stats_by_table = {}
        for bq, weight in _bound_queries(workload, self.evaluator.bound):
            for alias in bq.aliases:
                table = bq.table_for(alias)
                for f in bq.filters_for(alias):
                    if f.kind in ("range", "eq"):
                        counts = stats_by_table.setdefault(table.name, {})
                        counts[f.column] = counts.get(f.column, 0.0) + weight

        (current_cost,) = self._totals(workload, config, [config])
        for table_name, counts in sorted(stats_by_table.items()):
            column = max(sorted(counts), key=lambda c: counts[c])
            bounds = self._quantile_bounds(table_name, column)
            if len(bounds) < 1:
                continue
            candidate = config.with_horizontal(
                HorizontalPartitioning(table_name, column, bounds)
            )
            (cost,) = self._totals(workload, config, [candidate])
            if cost < current_cost - 1e-9:
                merge_log.append(
                    "horizontal %s on %s (%d parts) -> cost %.1f"
                    % (table_name, column, len(bounds) + 1, cost)
                )
                config, current_cost = candidate, cost
        return config

    def _quantile_bounds(self, table_name, column, parts=MAX_HORIZONTAL_PARTITIONS):
        stats = self.catalog.table(table_name).stats(column)
        hist = stats.histogram
        if len(hist) >= parts:
            step = (len(hist) - 1) / parts
            bounds = []
            for k in range(1, parts):
                value = hist[round(k * step)]
                if not bounds or value > bounds[-1]:
                    bounds.append(value)
            return tuple(bounds)
        if stats.min_value is None or stats.max_value is None:
            return ()
        try:
            lo, hi = float(stats.min_value), float(stats.max_value)
        except (TypeError, ValueError):
            return ()
        if hi <= lo:
            return ()
        return tuple(lo + (hi - lo) * k / parts for k in range(1, parts))
