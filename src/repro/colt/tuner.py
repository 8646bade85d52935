"""The COLT online tuner.

Life cycle per observed query:

1. charge the query's cost under the currently materialized design,
2. extract candidate single-column indexes from its sargable predicates,
3. spend what-if probes (within the epoch budget) refining gain estimates
   for the most promising / least known candidates.

At each epoch boundary the tuner smooths per-candidate gains with an
EWMA, solves a benefit-density knapsack under the space budget, and — if
the winning configuration differs enough from the current one — raises an
alert; with ``auto_adopt`` it also pays the build cost and switches.

The *self-regulating* probe budget follows the COLT paper: while the
chosen configuration is stable the budget decays, and any workload shift
(new candidate columns appearing) restores it.
"""

from dataclasses import dataclass, replace

from repro.catalog import Index
from repro.util import DesignError, WireFormatError
from repro.whatif import Configuration, WhatIfSession

# Weight of the closing epoch in each candidate's smoothed gain.
EWMA_ALPHA = 0.35
# Minimum projected relative improvement that raises an alert.
ADOPT_THRESHOLD = 0.05
# Epochs over which an index's build cost must pay off.
AMORTIZATION_EPOCHS = 10


@dataclass(frozen=True)
class ColtSettings:
    """Tuning knobs for the online designer."""

    epoch_length: int = 25
    space_budget_pages: int = 50_000
    whatif_budget: int = 40  # probes per epoch at full throttle
    min_whatif_budget: int = 8
    auto_adopt: bool = True

    def __post_init__(self):
        """Refuse values the tuner cannot run on: a floor above the
        probe budget makes the throttle raise it."""
        for name, ok, rule in (
            ("epoch_length", self.epoch_length >= 1, ">= 1"),
            ("min_whatif_budget",
             0 <= self.min_whatif_budget <= self.whatif_budget,
             "in [0, whatif_budget=%r]" % (self.whatif_budget,)),
            ("space_budget_pages", self.space_budget_pages >= 0, ">= 0"),
        ):
            if not ok:
                raise DesignError("COLT setting %s=%r must be %s"
                                  % (name, getattr(self, name), rule))


@dataclass
class EpochRecord:
    """What happened in one epoch (one row of the Scenario-3 panel)."""

    epoch: int
    queries: int
    observed_cost: float  # workload cost actually paid this epoch
    build_cost: float  # materialization cost charged this epoch
    whatif_probes: int
    alert: bool
    adopted: bool
    configuration: tuple[str, ...]  # index names materialized at epoch end


@dataclass
class OnlineReport:
    """Stream-level outcome: per-epoch records plus totals."""

    epochs: list[EpochRecord]

    @property
    def alerts(self):
        return sum(e.alert for e in self.epochs)

    @property
    def adoptions(self):
        return sum(e.adopted for e in self.epochs)

    @property
    def observed_cost(self):
        return sum(e.observed_cost for e in self.epochs)

    @property
    def build_cost(self):
        return sum(e.build_cost for e in self.epochs)

    @property
    def total_cost(self):
        return self.observed_cost + self.build_cost

    @property
    def whatif_probes(self):
        return sum(e.whatif_probes for e in self.epochs)

    def sparkline(self):
        """Per-epoch observed cost as a block-character sparkline — the
        terminal stand-in for the demo's performance chart."""
        if not self.epochs:
            return ""
        blocks = "▁▂▃▄▅▆▇█"
        values = [e.observed_cost for e in self.epochs]
        low, high = min(values), max(values)
        span = (high - low) or 1.0
        return "".join(
            blocks[min(len(blocks) - 1, int((v - low) / span * (len(blocks) - 1)))]
            for v in values
        )

    def to_text(self):
        max_rows = 30
        lines = [
            "%-6s %8s %12s %12s %7s %6s  %s"
            % ("epoch", "queries", "observed", "build", "probes", "alert", "configuration")
        ]
        for e in self.epochs[:max_rows]:
            lines.append(
                "%-6d %8d %12.1f %12.1f %7d %6s  %s"
                % (
                    e.epoch,
                    e.queries,
                    e.observed_cost,
                    e.build_cost,
                    e.whatif_probes,
                    "*" if e.alert else "",
                    ",".join(e.configuration) or "(none)",
                )
            )
        if len(self.epochs) > max_rows:
            lines.append("... (%d more epochs)" % (len(self.epochs) - max_rows))
        lines.append(
            "totals: observed=%.1f build=%.1f alerts=%d adoptions=%d probes=%d"
            % (self.observed_cost, self.build_cost, self.alerts, self.adoptions,
               self.whatif_probes)
        )
        if self.epochs:
            lines.append("observed cost per epoch: %s" % self.sparkline())
        return "\n".join(lines)


@dataclass(frozen=True)
class DriftEvent:
    """A phase boundary observed in a tuning-service tenant's stream."""

    at_query: int  # events ingested when the boundary was seen
    from_phase: str
    to_phase: str


@dataclass(frozen=True)
class RecommendationRecord:
    """One tenant's Designer.recommend refresh, summarized for the
    service's status panel."""

    at_query: int
    phase: str | None
    trigger: str  # "interval" | "drift" | "final"
    indexes: tuple[str, ...]  # sorted index names
    improvement_pct: float


@dataclass
class _CandidateState:
    index: Index
    ewma_gain: float = 0.0  # smoothed per-epoch gain
    epoch_gain: float = 0.0  # raw gain observed this epoch
    ewma_maintenance: float = 0.0  # smoothed per-epoch write maintenance
    epoch_maintenance: float = 0.0
    probes: int = 0  # lifetime probe count


@dataclass
class ColtState:
    """A tuner's dynamic state: everything a restart needs to continue
    bit-identically.  Settings and catalog are the host's to re-provide."""

    current: Configuration  # the materialized design
    pending_alert: Configuration | None
    candidates: tuple[_CandidateState, ...]  # sorted by index name
    report: OnlineReport  # its epoch count is the next epoch's number
    epoch_queries: tuple[str, ...]  # the open epoch's
    epoch_probes: int  # what-if probes the open epoch spent
    stable_epochs: int
    budget: int  # the self-regulating probe budget


@dataclass
class TenantState:
    """A tuning-service tenant's state: its construction options and
    dynamic state, its tuner's included.  The tenant's current phase is
    the last of ``phases_seen``; its refresh budget is the catalog's."""

    name: str
    colt_settings: ColtSettings
    recommend_every: int
    window: int  # the refresh window's length
    queries: int
    phases_seen: tuple[str, ...]
    window_queries: tuple[str, ...]
    finished: bool
    drift_events: tuple[DriftEvent, ...]
    recommendations: tuple[RecommendationRecord, ...]
    tuner: ColtState


def _harvest(bq):
    """A template part: the single-column candidates a read statement
    proposes — per alias, one index per sargable filter or join column —
    in the order the tuner meets them."""
    harvest = []
    for alias in bq.aliases:
        table = bq.table_for(alias)
        columns = set()
        for f in bq.filters_for(alias):
            if f.sargable:
                columns.add(f.column)
        for clause in bq.joins_for(alias):
            col, __, __ = clause.side_for(alias)
            columns.add(col)
        harvest.extend(Index(table.name, (col,)) for col in columns)
    return tuple(harvest)


class ColtTuner:
    """Continuous tuning over one catalog.

    Use :meth:`observe` per query (or :meth:`run` for a whole stream).
    The component "operates additionally to the rest of the tool and can
    be enabled or disabled" — disabled means simply not calling observe.
    """

    def __init__(self, evaluator, settings=None):
        self.evaluator = evaluator
        self.catalog = evaluator.catalog
        self.settings = settings or ColtSettings()
        # All probe/observation costs flow through the (possibly shared)
        # WorkloadEvaluator backplane behind the what-if session.
        self.session = WhatIfSession(evaluator)
        self.current = Configuration.empty()
        self.candidates = {}  # Index -> _CandidateState
        self.report = OnlineReport([])
        self._epoch_queries = []
        self._epoch_probes = 0
        self._stable_epochs = 0
        self._budget = self.settings.whatif_budget
        self._pending_alert = None

    # ------------------------------------------------------------------

    def run(self, stream):
        """Consume an iterable of SQL strings (or (tag, sql) pairs)."""
        for item in stream:
            sql = item[1] if isinstance(item, tuple) else item
            self.observe(sql)
        self.flush()
        return self.report

    def observe(self, sql):
        self._epoch_queries.append(sql)
        self._harvest_candidates(sql)
        self._probe(sql)
        if len(self._epoch_queries) >= self.settings.epoch_length:
            self._end_epoch()

    def flush(self):
        """Close a partial trailing epoch."""
        if self._epoch_queries:
            self._end_epoch()

    @property
    def pending_alert(self):
        """The configuration last proposed but not (yet) adopted."""
        return self._pending_alert

    # ------------------------------------------------------------------
    # Step hooks (the scheduler's view of the epoch loop).
    # ------------------------------------------------------------------

    @property
    def pending_queries(self):
        """The open epoch's observed queries.  The scheduler's flush
        step prewarms these: closing an epoch re-prices every one of
        them, so their INUM caches should be resident first."""
        return tuple(self._epoch_queries)

    @property
    def will_end_epoch(self):
        """True when observing one more query closes the current epoch —
        the scheduler classifies that observe as a heavy step (epoch end
        prices the whole epoch and solves the knapsack)."""
        return len(self._epoch_queries) + 1 >= self.settings.epoch_length

    def notify_workload_shift(self):
        """External drift signal (e.g. a tuning-service phase boundary):
        restore the full what-if probing budget, exactly as the internal
        self-regulation does when fresh candidate columns appear.  The
        tuner still detects shifts on its own; this lets a host that
        *knows* the workload changed skip the discovery lag."""
        self._budget = self.settings.whatif_budget
        self._stable_epochs = 0

    # ------------------------------------------------------------------
    # Snapshot / restore (the portable-session seam).
    # ------------------------------------------------------------------

    def snapshot_state(self):
        """The tuner's dynamic state as a :class:`ColtState` record.

        The record is a copy: it shares only immutable objects with the
        tuner (designs, indexes, written epoch records), so it keeps
        its value while the tuner runs on.  Its wire form is
        :func:`~repro.evaluation.wire.record_to_wire`'s."""
        return ColtState(
            current=self.current,
            pending_alert=self._pending_alert,
            candidates=tuple(
                replace(state) for state in sorted(
                    self.candidates.values(), key=lambda s: s.index.name)
            ),
            report=OnlineReport(list(self.report.epochs)),
            epoch_queries=tuple(self._epoch_queries),
            epoch_probes=self._epoch_probes,
            stable_epochs=self._stable_epochs,
            budget=self._budget,
        )

    def restore_state(self, state):
        """Overwrite the tuner's dynamic state from a :class:`ColtState`
        (taken over this catalog and settings); the subsequent stream
        continues exactly as if the process had never stopped.  The
        tuner takes the record's candidate states and report over, so
        restore each record once.  A state this tuner could not run on raises a
        :class:`~repro.util.ReproError`."""
        from repro.sql.binder import bind_statement

        for sql in state.epoch_queries:
            bind_statement(sql, self.catalog)  # re-priced at epoch end
        # The tuner only ever holds indexes it harvests itself, each on
        # a column of this catalog (the overlay raises CatalogError):
        # any other would fail, or clash with a harvested namesake, once
        # the run prices it.
        alert = state.pending_alert or Configuration.empty()
        held = {*state.current.indexes, *alert.indexes,
                *(s.index for s in state.candidates)}
        if any(ix != Index(ix.table_name, ix.columns[:1]) for ix in held):
            raise WireFormatError("tuner state holds a non-COLT index")
        Configuration(indexes=held).apply(self.catalog)
        self.current = state.current
        self._pending_alert = state.pending_alert
        self.candidates = {s.index: s for s in state.candidates}
        self.report = state.report
        self._epoch_queries = list(state.epoch_queries)
        self._epoch_probes = state.epoch_probes
        self._stable_epochs = state.stable_epochs
        self._budget = state.budget

    # ------------------------------------------------------------------

    def _harvest_candidates(self, sql):
        bq = self.session.base_service.bound(sql)
        if bq.is_write:
            self._charge_maintenance(bq)
            return
        fresh = False
        for index in bq.template.part(_harvest, bq):
            if index not in self.candidates:
                self.candidates[index] = _CandidateState(index=index)
                fresh = True
        if fresh:
            # Workload shift detected: restore the full probing budget.
            self._budget = self.settings.whatif_budget
            self._stable_epochs = 0

    def _probe_priority(self, state):
        """Probe unexplored candidates first, then the highest earners."""
        return (state.probes > 0, -state.ewma_gain, state.index.name)

    def _charge_maintenance(self, bound_write):
        """Accumulate the per-epoch maintenance a write would impose on
        every candidate, so the knapsack can net it out of the gains."""
        from repro.optimizer.writecost import (
            affected_rows,
            index_maintenance_cost_per_row,
        )

        rows = affected_rows(bound_write)
        settings = self.session.base_service.settings
        for state in self.candidates.values():
            if bound_write.touches_index(state.index):
                per_row = index_maintenance_cost_per_row(
                    state.index, bound_write.table, settings
                )
                state.epoch_maintenance += rows * per_row

    def _probe(self, sql):
        if self._epoch_probes >= self._budget:
            return
        bq = self.session.base_service.bound(sql)
        if bq.is_write:
            return  # probing refines read gains only
        tables = {t.name for t in bq.tables.values()}
        relevant = [
            s for s in self.candidates.values()
            if s.index.table_name in tables and s.index not in self.current.indexes
        ]
        relevant.sort(key=self._probe_priority)
        base_cost = self.session.cost(bq, self.current)
        for state in relevant:
            if self._epoch_probes >= self._budget:
                break
            probed = self.session.cost(bq, self.current.with_indexes(state.index))
            state.epoch_gain += max(0.0, base_cost - probed)
            state.probes += 1
            self._epoch_probes += 1

    # ------------------------------------------------------------------

    def _epoch_cost(self, queries):
        """Epoch scoring: the whole epoch priced under the materialized
        design in one columnar-kernel pass
        (:meth:`~repro.evaluation.WorkloadEvaluator.evaluate_deltas`).

        This is the paper's cheap-evaluation thesis applied to the
        online loop itself: scoring charges INUM plan-term estimates —
        within the cost model's pinned tolerance of the optimizer —
        instead of one exact optimizer probe per observed query, so
        closing an epoch costs array reductions over caches the
        scheduler has typically prewarmed.  What-if *probes* (the gain
        refinements driving adoption) stay on the exact path."""
        if not queries:
            return 0.0
        return self.evaluator.evaluate_deltas(
            list(queries), self.current, [self.current]
        ).totals[0]

    def _end_epoch(self):
        settings = self.settings
        observed = self._epoch_cost(self._epoch_queries)

        alpha = EWMA_ALPHA
        for state in self.candidates.values():
            state.ewma_gain = alpha * state.epoch_gain + (1 - alpha) * state.ewma_gain
            state.epoch_gain = 0.0
            state.ewma_maintenance = (
                alpha * state.epoch_maintenance + (1 - alpha) * state.ewma_maintenance
            )
            state.epoch_maintenance = 0.0

        proposal = self._select_configuration()
        alert, adopted, build_cost = False, False, 0.0
        if proposal != self.current:
            improvement = self._projected_improvement(proposal)
            if improvement > ADOPT_THRESHOLD:
                alert = True
                self._pending_alert = proposal
                if settings.auto_adopt:
                    build_cost = self._materialization_cost(proposal)
                    self.current = proposal
                    self._pending_alert = None
                    adopted = True

        if adopted:
            self._stable_epochs = 0
        else:
            self._stable_epochs += 1
            if self._stable_epochs >= 2:
                # Self-regulation: stable design, throttle probing.
                self._budget = max(settings.min_whatif_budget, self._budget // 2)

        self.report.epochs.append(
            EpochRecord(
                epoch=len(self.report.epochs),
                queries=len(self._epoch_queries),
                observed_cost=observed,
                build_cost=build_cost,
                whatif_probes=self._epoch_probes,
                alert=alert,
                adopted=adopted,
                configuration=tuple(
                    sorted(ix.name for ix in self.current.indexes)
                ),
            )
        )
        self._epoch_queries = []
        self._epoch_probes = 0

    def _select_configuration(self):
        """Benefit-density knapsack over candidates with positive net value."""
        settings = self.settings
        scored = []
        for state in self.candidates.values():
            if state.ewma_gain <= state.ewma_maintenance:
                continue
            index = state.index
            size = index.size_pages(self.catalog.table(index.table_name))
            net_gain = state.ewma_gain - state.ewma_maintenance
            horizon_gain = net_gain * AMORTIZATION_EPOCHS
            if index not in self.current.indexes:
                horizon_gain -= index.build_cost(
                    self.catalog.table(index.table_name)
                )
            if horizon_gain <= 0.0:
                continue
            scored.append((horizon_gain / max(1, size), horizon_gain, size, index))
        scored.sort(key=lambda t: (-t[0], t[3].name))
        chosen, used = [], 0
        for __, __, size, index in scored:
            if used + size <= settings.space_budget_pages:
                chosen.append(index)
                used += size
        return Configuration(indexes=frozenset(chosen))

    def _projected_improvement(self, proposal):
        """Relative per-epoch gain of switching to *proposal*."""
        gain = 0.0
        for state in self.candidates.values():
            if state.index in proposal.indexes and state.index not in self.current.indexes:
                gain += state.ewma_gain
        recent = self.report.epochs[-1].observed_cost if self.report.epochs else 0.0
        baseline = max(recent, 1e-9)
        if not self.report.epochs:
            # First epoch: compare against this epoch's observed cost
            # (scored the same way _end_epoch scores it).
            baseline = max(self._epoch_cost(self._epoch_queries), 1e-9)
        return gain / baseline

    def _materialization_cost(self, proposal):
        cost = 0.0
        for index in proposal.indexes - self.current.indexes:
            cost += index.build_cost(self.catalog.table(index.table_name))
        return cost
