"""Construction of CoPhy's binary integer program from INUM plan caches.

For workload query *q* with weight ``w_q``, INUM supplies cached plans
``e`` with internal cost ``c_qe`` and access slots.  For every slot the
BIP offers options: the *default* access (sequential scan / whatever the
base design already provides) and one option per compatible candidate
index ``j`` with analytic access cost.  Decision variables:

* ``y_j``      — build candidate index j
* ``z_qe``     — query q executes cached plan e
* ``x_qso``    — slot s of query q uses option o

subject to  Σ_e z_qe = 1,  Σ_o x_qso = Σ_{e ∋ s} z_qe,  x(option j) ≤ y_j,
and Σ_j size_j · y_j ≤ budget.  A slot is one row of its query however
many cached plans read it (plans share their ``SlotOptions`` objects),
so whichever plan carries the query's ``z`` mass, the slot puts it on
its cheapest open option.  The objective sums weighted internal and
access costs.  By construction the optimum equals
``min_config INUM(workload, config)`` over configurations within budget —
CoPhy's quality guarantee.

The program is stated once: :class:`PricedWorkload` folds the workload
into terms (priced by :class:`CandidatePricer`) and emits the
:class:`BipProblem` every solver consumes — ``build_bip`` is its
``.problem()``, column generation's restricted master its
``.problem(active)``.
"""

from dataclasses import dataclass, field

from repro.inum.cache import (
    _UNPRICED,
    _DesignView,
    _best_param_access,
    _best_scan_access,
    _slot_interesting,
    _slot_key,
)
from repro.optimizer import paths as P
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
    _kernel: object = field(default=None, repr=False)

    @property
    def n_candidates(self):
        return len(self.candidates)

    def config_cost(self, chosen_positions):
        """Objective value of a given set of candidate positions — the
        best z/x completion is computed greedily (it decomposes).
        Single pricing implementation: delegates to :meth:`config_costs`
        so exact solvers and the greedy batch path cannot diverge."""
        return self.config_costs([chosen_positions])[0]

    def config_costs(self, batch):
        """Objective values for a batch of candidate-position sets,
        priced on the columnar :class:`~repro.evaluation.kernel.BipKernel`:
        per-slot minima over applicable accesses (the default plus the
        chosen candidates), per-plan sums and per-query minima run as
        grouped array reductions over the whole batch at once.  Compiled
        lazily, once — the problem is immutable after ``build_bip``.
        Results equal the scalar BIP walk (``config_costs_reference``
        in ``tests/oracle.py``) bit-exactly."""
        return self._compiled().evaluate(batch)

    def _compiled(self):
        if self._kernel is None:
            from repro.evaluation.kernel import BipKernel

            self._kernel = BipKernel(self)
        return self._kernel

    def config_costs_delta(self, chosen, extensions):
        """Objective values of ``chosen + [pos]`` for every extension
        position, priced as single-index deltas off the captured parent
        state (:meth:`~repro.evaluation.kernel.BipKernel.delta_state`) —
        the greedy round's sweep without re-pricing untouched queries.
        Equals ``config_costs([chosen + [pos] for pos in extensions])``
        bit-exactly; *chosen* must be passed in selection order (the
        penalty term replays its set-iteration order)."""
        kernel = self._compiled()
        return kernel.evaluate_delta(kernel.delta_state(chosen), extensions)

    def used_positions(self, chosen_positions):
        """The members of *chosen_positions* (order kept) whose option
        wins a slot of some query's cheapest plan under that set — the
        argmin witness of :meth:`config_cost`.  Dropping the others
        leaves every query's winning plan and its slot winners in place,
        so the read cost is bit-identical, the size can only shrink and
        the write penalties can only fall; the result is its own
        witness (every kept position is still used)."""
        return self._compiled().used_positions(chosen_positions)

    def config_size(self, chosen_positions):
        return sum(self.sizes[pos] for pos in set(chosen_positions))


class CandidatePricer:
    """Exact slot access costs for single-candidate design views — the
    one pricer behind ``build_bip`` and column generation.

    For one slot the scan context, sequential path, base-design path
    groups, BitmapAnd arms and parameterized probes are assembled once
    (path groups come from the shared scan-context memo in
    ``optimizer/paths``; only that per-slot base assembly is kept
    here); pricing candidate *j* then adds only *j*'s own path group and
    re-runs the same winner functions the INUM memo runs
    (:func:`~repro.inum.cache._best_scan_access` /
    ``_best_param_access``).  Single-index design views change neither
    relation geometry (no layouts or partitionings) nor the path order
    (base indexes first, *j* appended last, the combining BitmapAnd
    always last), so every price is **bit-identical** to
    ``inum_model.slot_cost(bq, slot, _DesignView(catalog,
    Configuration.of(j)))`` — the tests pin this pair by pair.  Being
    the same winner, it is kept in the same place: the model's slot
    memo, under the single-index design's key, witness included.  A warm model (an online
    refresh, a second solver over one evaluator) is answered from it,
    and the interaction analyzer finds the single-index designs priced.
    :meth:`slot_options` builds a slot's BIP options on top of it."""

    def __init__(self, model):
        self.model = model
        self.settings = model.settings
        self.catalog = model.catalog
        self.default_view = _DesignView(model.catalog, Configuration.empty())
        self._scan_base = {}  # (sql, slot) -> (ctx, paths, arms, interesting)
        self._param_base = {}  # (sql, slot) -> (ctx, parameterized base paths)
        self._base_sets = {}  # table -> set of base-catalog indexes
        self.pricings = 0  # (slot, candidate) pairs answered
        self.set_candidates(())

    def set_candidates(self, candidates):
        """Learn the candidate vector :meth:`slot_options` offers every
        slot: positions per table and lead column — all the reach rule
        reads of an index."""
        self.candidates = candidates
        self._by_lead = {}  # table -> {lead column: ascending positions}
        for pos, ix in enumerate(candidates):
            self._by_lead.setdefault(ix.table_name, {}).setdefault(
                ix.columns[0], []).append(pos)
        self._options = {}  # (sql, slot) -> (default, options)

    def _base_indexes(self, table_name):
        base = self._base_sets.get(table_name)
        if base is None:
            base = set(self.catalog.indexes_on(table_name))
            self._base_sets[table_name] = base
        return base

    def default_cost(self, bq, slot):
        """The slot's cost under the base design (through the model's
        shared memo — every other consumer prices the same entry)."""
        return self.model.slot_cost(bq, slot, self.default_view)

    def _scan_state(self, bq, slot):
        key = (bq.sql, slot)
        cached = self._scan_base.get(key)
        if cached is None:
            ctx = P.scan_context(bq, slot.alias, self.default_view)
            interesting = _slot_interesting(slot)
            paths = [P.sequential_path(ctx, self.settings)]
            arms = []
            for ix in self.default_view.indexes_on(slot.table_name):
                group, arm = P.index_path_group(
                    ctx, ix, self.settings, interesting
                )
                if arm is not None:
                    arms.append(arm)
                paths.extend(group)
            cached = self._scan_base[key] = (ctx, paths, arms, interesting)
        return cached

    def _param_state(self, bq, slot):
        key = (bq.sql, slot)
        cached = self._param_base.get(key)
        if cached is None:
            ctx = P.scan_context(bq, slot.alias, self.default_view)
            cached = self._param_base[key] = (ctx, P.probe_paths(
                ctx, self.default_view.indexes_on(slot.table_name),
                self.settings, slot.param_columns,
            ))
        return cached

    def slot_options(self, bq, slot):
        """``(default, options)`` for *slot*: its cost under the base
        design (``None``: infeasible) and, in ascending candidate
        position, ``(position, cost)`` of every candidate pricing
        strictly below it; memoized per ``(bq.sql, slot)`` — cached
        plans share slots.  Only candidates whose lead column reaches
        the slot (:func:`~repro.optimizer.paths.reach_columns`) are
        priced: any other's price *is* the default (see :meth:`price`),
        which ``cost < default`` drops — but ``pricings`` counts it."""
        key = (bq.sql, slot)
        entry = self._options.get(key)
        if entry is None:
            default = self.default_cost(bq, slot)
            options = []
            by_lead = self._by_lead.get(slot.table_name)
            if by_lead:
                leads = P.reach_columns(
                    P.scan_context(bq, slot.alias, self.default_view),
                    _slot_interesting(slot), slot.param_columns,
                )
                reaching = sorted(
                    pos for lead in set(leads) for pos in by_lead.get(lead, ())
                )
                self.pricings += sum(map(len, by_lead.values())) - len(reaching)
                for pos in reaching:
                    cost = self.price(bq, slot, self.candidates[pos])
                    if cost is not None and (default is None or cost < default):
                        options.append((pos, cost))
            entry = self._options[key] = (default, options)
        return entry

    def price(self, bq, slot, index):
        """``slot``'s cost when exactly ``index`` is added to the base
        design — bit-identical to pricing the single-index design view
        through the INUM winner logic (``None`` means infeasible).

        An index that is already in the base design (the view
        deduplicates it) leaves the path set — and therefore the winner
        — the default's.  So does one that offers this slot no path, arm
        or probe: its single-index design has the empty design's slot
        key, which is how most of a candidate pool is answered without
        assembling anything."""
        self.pricings += 1
        if index in self._base_indexes(slot.table_name):
            return self.default_cost(bq, slot)
        bucket = self.model.slot_bucket(bq)
        state = self._param_state if slot.param_columns else self._scan_state
        key = _slot_key(
            bq, slot, self.default_view, ((index,), None, None),
            self.model._shared, state(bq, slot)[0],
        )
        choice = bucket.get(key, _UNPRICED)
        if choice is _UNPRICED:
            choice = bucket[key] = self.model._shared_choice(
                self._assemble(bq, slot, index))
        return None if choice is None else choice[0]

    def _assemble(self, bq, slot, index):
        """The slot's base paths plus *index*'s own, through the winner
        function of the slot's kind: the ``(cost, winner indexes)``
        entry the model's memo holds."""
        if slot.param_columns:
            ctx, paths = self._param_state(bq, slot)
            own = P.parameterized_path_for(
                ctx, index, self.settings, slot.param_columns
            )
            if own is not None:
                paths = paths + [own]
            return _best_param_access(slot, paths)
        ctx, base_paths, base_arms, interesting = self._scan_state(bq, slot)
        group, arm = P.index_path_group(ctx, index, self.settings, interesting)
        paths = [*base_paths, *group]
        arms = base_arms if arm is None else base_arms + [arm]
        and_path = P.bitmap_and_path(ctx, arms, self.settings)
        if and_path is not None:
            paths.append(and_path)
        return _best_scan_access(slot, paths, self.settings)


class PricedWorkload:
    """The workload folded into BIP terms, once — the one statement of
    the program ``build_bip`` and column generation both read.

    One walk over the workload through the model's binder: a read — and
    the *locate* step of an update/delete, so candidate indexes are
    credited for finding the rows faster — becomes ``(weight, sql,
    [(internal cost, [slot id, ...])])`` over :attr:`slot_entries`,
    the ``(default, options)`` of
    :meth:`CandidatePricer.slot_options` deduplicated per ``(bq.sql,
    slot)``; a write adds its design-independent base (heap
    modification plus maintaining the indexes that already exist) and a
    linear maintenance penalty per candidate it touches.  That makes the
    objective coincide with INUM's exact mixed-workload cost.

    :meth:`problem` emits the :class:`BipProblem`; every solver, and
    column generation's restricted master, consumes that one emission.
    """

    def __init__(self, inum_model, workload, candidates, budget_pages,
                 max_indexes=None):
        catalog = inum_model.catalog
        settings = inum_model.settings
        self.candidates = list(candidates)
        self.sizes = [
            float(ix.size_pages(catalog.table(ix.table_name)))
            for ix in self.candidates
        ]
        self.budget_pages = float(budget_pages)
        self.max_indexes = max_indexes
        self.pricer = CandidatePricer(inum_model)
        self.pricer.set_candidates(self.candidates)
        self.write_base_cost = 0.0
        self.index_penalties = [0.0] * len(self.candidates)
        self.slot_entries = []  # slot id -> (default cost or None, options)
        self.queries = []  # (weight, sql, [(internal, [slot id, ...])])
        slot_ids = {}
        priced = []  # bound queries whose slots the pricer priced

        def slot_id(bq, slot):
            key = (bq.sql, slot)
            sid = slot_ids.get(key)
            if sid is None:
                sid = slot_ids[key] = len(self.slot_entries)
                self.slot_entries.append(self.pricer.slot_options(bq, slot))
            return sid

        def add_read(bq_or_sql, weight):
            cache = inum_model.cache_for(bq_or_sql)
            bq = cache.bound_query
            priced.append(bq)
            self.queries.append((weight, bq.sql, [
                (cached.internal_cost,
                 [slot_id(bq, slot) for slot in cached.slots])
                for cached in cache.plans
            ]))

        for sql, weight in workload_pairs(workload):
            bound = inum_model.bound(sql)
            if not isinstance(bound, BoundWrite):
                add_read(bound, weight)
                continue
            base = heap_write_cost(bound, settings)
            base += maintenance_cost(
                bound, catalog.indexes_on(bound.table.name), settings
            )
            self.write_base_cost += weight * base
            if bound.kind in ("update", "delete"):
                add_read(locate_query(bound), weight)
            rows = affected_rows(bound)
            for pos, index in enumerate(self.candidates):
                if bound.touches_index(index):
                    per_row = index_maintenance_cost_per_row(
                        index, bound.table, settings
                    )
                    self.index_penalties[pos] += weight * rows * per_row
        # Every (slot, candidate) price is in slot_entries now: release
        # the candidate pool's path groups rather than keep them on
        # every query's scan memo.
        pool = set(self.candidates)
        for bq in priced:
            P.forget_indexes(bq, pool)
        if not any(self.index_penalties):
            # Read-only workload: every penalty is +0.0, and adding +0.0
            # is the floating-point identity, so every pricing path can
            # skip the per-configuration penalty sum without changing a
            # bit.
            self.index_penalties = []

    def problem(self, active=None):
        """The :class:`BipProblem` over the full candidate vector whose
        slot options mention only the *active* positions (all of them
        when ``None``).  Option lists for a chosen set ``C ⊆ active``
        are the full problem's — the default plus exactly the options of
        indexes in ``C`` — so restricted pricing of any such set equals
        full-problem pricing bit for bit, the write-penalty accumulation
        included (it iterates the very same global position sets).  A
        plan with an option-less slot is dropped; a query left without
        plans raises.  Only the memoized option lists are filtered —
        nothing is re-priced, the workload is not walked again — and a
        slot shared by several plans is filtered once."""
        slots = []
        for default, options in self.slot_entries:
            if active is not None:
                options = [opt for opt in options if opt[0] in active]
            if default is not None:
                options = [(-1, default), *options]
            slots.append(SlotOptions(options=options))
        queries = []
        for weight, sql, plans in self.queries:
            term = QueryTerm(weight=weight, plans=[], sql=sql)
            for internal, sids in plans:
                if all(slots[sid].options for sid in sids):
                    term.plans.append(PlanTerm(
                        internal_cost=internal,
                        slots=[slots[sid] for sid in sids],
                    ))
            if not term.plans:
                raise RuntimeError("no feasible cached plan for %r" % (sql,))
            queries.append(term)
        return BipProblem(
            candidates=self.candidates,
            sizes=self.sizes,
            budget_pages=self.budget_pages,
            queries=queries,
            max_indexes=self.max_indexes,
            write_base_cost=self.write_base_cost,
            index_penalties=self.index_penalties,
        )


def build_bip(inum_model, workload, candidates, budget_pages, max_indexes=None):
    """Assemble the BIP for *workload* over *candidates* under a budget."""
    return PricedWorkload(
        inum_model, workload, candidates, budget_pages, max_indexes
    ).problem()
