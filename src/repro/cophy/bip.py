"""Construction of CoPhy's binary integer program from INUM plan caches.

For workload query *q* with weight ``w_q``, INUM supplies cached plans
``e`` with internal cost ``c_qe`` and access slots.  For every slot the
BIP offers options: the *default* access (sequential scan / whatever the
base design already provides) and one option per compatible candidate
index ``j`` with analytic access cost.  Decision variables:

* ``y_j``      — build candidate index j
* ``z_qe``     — query q executes cached plan e
* ``x_qeso``   — slot s of (q, e) uses option o

subject to  Σ_e z_qe = 1,  Σ_o x_qeso = z_qe,  x(option j) ≤ y_j, and
Σ_j size_j · y_j ≤ budget.  The objective sums weighted internal and
access costs.  By construction the optimum equals
``min_config INUM(workload, config)`` over configurations within budget —
CoPhy's quality guarantee.
"""

import math
from dataclasses import dataclass, field

from repro.inum.cache import _DesignView
from repro.optimizer.paths import forget_indexes
from repro.optimizer.writecost import (
    affected_rows,
    heap_write_cost,
    index_maintenance_cost_per_row,
    locate_query,
    maintenance_cost,
)
from repro.sql.binder import BoundWrite
from repro.util import workload_pairs
from repro.whatif import Configuration


@dataclass
class SlotOptions:
    """Cost options for one access slot: index -1 is the default access."""

    options: list  # list of (candidate_index_position or -1, cost)


@dataclass
class PlanTerm:
    internal_cost: float
    slots: list  # list of SlotOptions


@dataclass
class QueryTerm:
    weight: float
    plans: list  # list of PlanTerm
    sql: str = ""


@dataclass
class BipProblem:
    candidates: list
    sizes: list  # pages per candidate
    budget_pages: float
    queries: list = field(default_factory=list)
    max_indexes: int = None  # optional cap on the number of chosen indexes
    # Write-statement terms: a design-independent base (heap writes, locate
    # under the existing design, maintenance of existing indexes) plus a
    # per-candidate maintenance penalty incurred when that index is built.
    write_base_cost: float = 0.0
    index_penalties: list = field(default_factory=list)
    _prepared: list = field(default=None, repr=False)
    _kernel: object = field(default=None, repr=False)

    @property
    def n_candidates(self):
        return len(self.candidates)

    def config_cost(self, chosen_positions, sparse=False):
        """Objective value of a given set of candidate positions — the
        best z/x completion is computed greedily (it decomposes).
        Single pricing implementation: delegates to :meth:`config_costs`
        so exact solvers and the greedy batch path cannot diverge."""
        return self.config_costs([chosen_positions], sparse=sparse)[0]

    def config_costs(self, batch, sparse=False):
        """Objective values for a batch of candidate-position sets,
        priced on the columnar :class:`~repro.evaluation.kernel.BipKernel`:
        per-slot minima over applicable accesses (the default plus the
        chosen candidates), per-plan sums and per-query minima run as
        grouped array reductions over the whole batch at once.  Compiled
        lazily, once — the problem is immutable after ``build_bip``.
        Results equal :meth:`config_costs_scalar` (and therefore
        ``config_cost``) bit-exactly.

        ``sparse=True`` prices each member as a footprint scatter
        against the empty-set base state instead of allocating the
        dense batch × options mask — bit-identical, and the mode the
        column-generation solver routes its pricing through."""
        if self._kernel is None:
            from repro.evaluation.kernel import BipKernel

            self._kernel = BipKernel(self)
        return self._kernel.evaluate(batch, sparse=sparse)

    def config_costs_delta(self, chosen, extensions):
        """Objective values of ``chosen + [pos]`` for every extension
        position, priced as single-index deltas off the captured parent
        state (:meth:`~repro.evaluation.kernel.BipKernel.delta_state`) —
        the greedy round's sweep without re-pricing untouched queries.
        Equals ``config_costs([chosen + [pos] for pos in extensions])``
        bit-exactly; *chosen* must be passed in selection order (the
        penalty term replays its set-iteration order)."""
        if self._kernel is None:
            from repro.evaluation.kernel import BipKernel

            self._kernel = BipKernel(self)
        state = self._kernel.delta_state(chosen)
        return self._kernel.evaluate_delta(state, extensions)

    def config_costs_scalar(self, batch):
        """The scalar reference pricing of a batch of candidate sets —
        what :meth:`config_costs` is pinned bit-identical against.

        The per-slot option lists are preprocessed once per problem —
        default access cost split from the per-candidate options — so
        each batch member pays only the chosen-set minimum, not a
        re-filtering of every option list.
        """
        if self._prepared is None:
            # Lazily computed after build_bip finishes mutating queries;
            # the problem is immutable from then on.
            self._prepared = [
                (
                    q.weight,
                    [
                        (
                            plan.internal_cost,
                            [
                                (
                                    min(
                                        (c for pos, c in slot.options
                                         if pos == -1),
                                        default=None,
                                    ),
                                    [(pos, c) for pos, c in slot.options
                                     if pos != -1],
                                )
                                for slot in plan.slots
                            ],
                        )
                        for plan in q.plans
                    ],
                )
                for q in self.queries
            ]
        prepared = self._prepared
        totals = []
        for chosen_positions in batch:
            chosen = set(chosen_positions)
            total = self.write_base_cost
            if self.index_penalties:
                total += sum(self.index_penalties[pos] for pos in chosen)
            for weight, plans in prepared:
                best = math.inf
                for internal, slots in plans:
                    cost = internal
                    feasible = True
                    for default, options in slots:
                        winner = default
                        for pos, option_cost in options:
                            if pos in chosen and (
                                winner is None or option_cost < winner
                            ):
                                winner = option_cost
                        if winner is None:
                            feasible = False
                            break
                        cost += winner
                    if feasible and cost < best:
                        best = cost
                if not math.isfinite(best):
                    raise RuntimeError("BIP has an infeasible query term")
                total += weight * best
            totals.append(total)
        return totals

    def config_size(self, chosen_positions):
        return sum(self.sizes[pos] for pos in set(chosen_positions))


def build_bip(inum_model, workload, candidates, budget_pages, max_indexes=None):
    """Assemble the BIP for *workload* over *candidates* under a budget."""
    catalog = inum_model.catalog
    sizes = [
        float(ix.size_pages(catalog.table(ix.table_name))) for ix in candidates
    ]
    by_table = {}
    for pos, ix in enumerate(candidates):
        by_table.setdefault(ix.table_name, []).append(pos)

    default_view = _DesignView(catalog, Configuration.empty())
    single_views = [
        _DesignView(catalog, Configuration.of(ix)) for ix in candidates
    ]

    problem = BipProblem(
        candidates=list(candidates),
        sizes=sizes,
        budget_pages=float(budget_pages),
        max_indexes=max_indexes,
        index_penalties=[0.0] * len(candidates),
    )
    priced = []  # bound queries whose slots were priced per candidate

    def add_query_term(bq_or_sql, weight):
        cache = inum_model.cache_for(bq_or_sql)
        bq = cache.bound_query
        priced.append(bq)
        term = QueryTerm(weight=weight, plans=[], sql=bq.sql)
        for cached in cache.plans:
            plan_term = PlanTerm(internal_cost=cached.internal_cost, slots=[])
            feasible = True
            for slot in cached.slots:
                # Slot pricing goes through the model's memo, so BIP
                # construction shares per-slot access costs with every
                # other consumer of the evaluation backplane.
                options = []
                default = inum_model.slot_cost(bq, slot, default_view)
                if default is not None:
                    options.append((-1, default))
                for pos in by_table.get(slot.table_name, ()):
                    cost = inum_model.slot_cost(bq, slot, single_views[pos])
                    if cost is not None and (default is None or cost < default):
                        options.append((pos, cost))
                if not options:
                    feasible = False
                    break
                plan_term.slots.append(SlotOptions(options=options))
            if feasible:
                term.plans.append(plan_term)
        if not term.plans:
            raise RuntimeError("no feasible cached plan for %r" % (term.sql,))
        problem.queries.append(term)

    for sql, weight in workload_pairs(workload):
        bound = inum_model.bound(sql)
        if isinstance(bound, BoundWrite):
            _add_write_terms(
                problem, inum_model, bound, weight, candidates, add_query_term
            )
            continue
        add_query_term(bound, weight)
    # Repeat pricings are served by the model's slot memo: release the
    # candidate pool's path groups rather than keep them on every query.
    pool = set(candidates)
    for bq in priced:
        forget_indexes(bq, pool)
    if not any(problem.index_penalties):
        # Read-only workload: every penalty is +0.0, and adding +0.0 is
        # the floating-point identity, so every pricing path can skip
        # the per-configuration penalty sum without changing a bit.
        problem.index_penalties = []
    return problem


def _add_write_terms(problem, inum_model, bound_write, weight, candidates,
                     add_query_term):
    """Fold one write statement into the BIP.

    Three parts, making the BIP objective coincide with INUM's exact
    mixed-workload cost:

    * the *locate* step of updates/deletes is added as a full query term
      (so candidate indexes are credited for finding the rows faster);
    * the design-independent base: heap modification plus maintaining the
      indexes that already exist;
    * a linear maintenance penalty per candidate touched by the write.
    """
    settings = inum_model.settings
    base = heap_write_cost(bound_write, settings)
    base += maintenance_cost(
        bound_write,
        inum_model.catalog.indexes_on(bound_write.table.name),
        settings,
    )
    problem.write_base_cost += weight * base
    if bound_write.kind in ("update", "delete"):
        add_query_term(locate_query(bound_write), weight)

    rows = affected_rows(bound_write)
    for pos, index in enumerate(candidates):
        if bound_write.touches_index(index):
            per_row = index_maintenance_cost_per_row(
                index, bound_write.table, settings
            )
            problem.index_penalties[pos] += weight * rows * per_row

