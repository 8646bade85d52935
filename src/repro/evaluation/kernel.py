"""The columnar plan-term kernel: the costing hot path as array passes.

INUM makes what-if costing cheap by *precomputing* plan terms; until
this module the backplane still *consumed* those terms with scalar
Python loops — per plan, per slot, per configuration — so batch pricing
paid interpreter overhead proportional to the whole workload ×
configuration grid.  The kernel compiles the terms once into flat
numpy arrays and prices the grid as vectorized reductions.  Three
public classes sit on one private core:

* :class:`StatementKernel` — one cache entry's plan terms in columnar
  form: a flat ``internal`` cost vector (one entry per cached plan) and
  a padded ``slot_idx`` matrix mapping every plan to its (deduplicated)
  access slots, in slot order;

* :class:`_PlanArena` — the core.  Every pricing job has one shape: a
  *row* gives each access slot a cost, a plan costs ``internal + Σ its
  slots``, a *group* of plans (a statement, a BIP query term) costs its
  cheapest plan.  The arena holds all groups' plans flattened and does
  exactly that — ``sums``, then ``minima`` / ``argmin`` — plus the
  seminaïve half: a *unit of change* is a set of slots rewritten
  together; ``footprint`` gathers, for a whole batch of ``(child,
  unit)`` pairs, the slots rewritten and the plans reading them, and
  ``price`` tiles a captured parent ``(row, per-plan sums)``, scatters
  the children's new slot values, re-sums only the footprint plans and
  re-minimizes.  It never asks who is calling: what differs between
  its two owners travels as data — unit lists and a ``values`` array;

* :class:`WorkloadKernel` — many statement kernels fused over one
  global slot table.  It resolves a slot by its table's *design*: one
  cost column per (table, design) is memoized, a ``configurations ×
  slots`` matrix is filled per distinct per-table design, and
  :meth:`~WorkloadKernel.evaluate_many` is ``minima(sums(matrix))``.
  Its unit is a table: a child's values are the cost columns of the
  tables whose design differs from the parent's;

* :class:`BipKernel` — CoPhy's pricing surface
  (:meth:`~repro.cophy.bip.BipProblem.config_costs`).  It resolves a
  slot as the *minimum over applicable accesses* (the default access
  plus the chosen candidate indexes), one masked grouped reduction for
  a whole batch of candidate sets.  Its unit is a candidate: the
  values of ``chosen + [pos]`` are ``min(parent row, pos's own option
  minima)`` — a minimum never rounds, so splitting it into "what the
  parent chose" and "what the extension adds" is exact.

**Delta evaluation** — the seminaïve mode greedy/COLT/doi/AutoPart
sweeps price through — is therefore one mechanism with two slot
resolvers.  Those loops evaluate chains of *near-identical*
configurations (``chosen + {one index}``), and a full grid pass
re-resolves every slot and re-sums every plan anyway.  Delta mode
captures the parent's resolved state once (:class:`WorkloadDeltaState`
/ :class:`BipDeltaState`: slot cost row, per-plan sums) and prices a
whole batch of children in one ``price`` call — O(footprint) gathered
adds instead of O(grid).  A plan outside a child's footprint keeps the
parent's sum verbatim (every input to it is unchanged), so the full-row
re-minimization reproduces the parent's minima there bit for bit; a
capture extending the previous one by one candidate is that state's
one child.  Each job has exactly one strategy — the dense grid for a
full batch, deltas off a captured parent for chains — chosen by the
method called, never by a flag.

Results are **bit-identical** to the scalar reference walks
(:func:`repro.inum.cache.evaluate_terms` per call, and the scalar BIP
walk ``config_costs_reference`` in ``tests/oracle.py``), not merely
close: every floating-point accumulation runs in exactly the scalar
order — plan costs accumulate slot by slot via gathered element-wise
adds (never a reassociating matmul), infeasible slots price as ``+inf``
(absorbing, like the scalar early-break), and minima are
order-independent.  ``tests/test_kernel.py`` pins the equality with
exact max/min witnesses over fuzzed catalogs, configurations, and
weights, and the arena against a pure-Python walk sharing none of it.

Kernels and their memos are rows of :mod:`repro.evaluation.memos`; the
wire format rebuilds kernels from plan terms on load — they never
cross the wire themselves.
"""

from collections import namedtuple

import numpy as np

__all__ = [
    "StatementKernel",
    "WorkloadKernel",
    "WorkloadDeltaState",
    "BipKernel",
    "BipDeltaState",
    "compile_statement",
]

# Bounds of two WorkloadKernel memos (rows of evaluation/memos.py),
# reset when full: a reset column is a handful of slot-memo lookups,
# and greedy / doi sweeps revisit at most a couple of parents.
_MAX_DESIGN_COLUMNS = 4096
_MAX_DELTA_STATES = 8

# Distinct extension batches whose footprints a BIP kernel memoizes
# (sweeps re-price the same feasible sets round after round).
_MAX_FOOTPRINTS = 256


class StatementKernel:
    """One cache entry's plan terms as flat arrays.

    ``slots`` lists the entry's distinct access slots (first-appearance
    order); ``internal`` is the per-plan internal cost vector; and
    ``slot_idx[p, k]`` is the local id of plan ``p``'s ``k``-th slot in
    *plan order*, padded with the sentinel id ``len(slots)`` (which
    always prices as 0.0).  Keeping plan order — rather than, say, a
    plan × slot membership matrix — is what makes the evaluation
    bit-identical to the scalar walk: costs accumulate in exactly the
    order ``internal + slot₀ + slot₁ + …``.
    """

    __slots__ = ("bound_query", "slots", "internal", "slot_idx")

    def __init__(self, bound_query, slots, internal, slot_idx):
        self.bound_query = bound_query
        self.slots = slots
        self.internal = internal
        self.slot_idx = slot_idx

    @property
    def n_slots(self):
        return len(self.slots)


def compile_statement(cache):
    """Compile one :class:`~repro.inum.cache.QueryCache` to a
    :class:`StatementKernel`.  Pure function of the entry's plan terms;
    the pool memoizes the result per resident entry
    (:meth:`~repro.evaluation.pool.InumCachePool.kernel_for`)."""
    internal = []
    slots = []
    slot_ids = {}
    rows = []
    for internal_cost, plan_slots in cache.plan_terms():
        internal.append(internal_cost)
        ids = []
        for slot in plan_slots:
            sid = slot_ids.get(slot)
            if sid is None:
                sid = len(slots)
                slot_ids[slot] = sid
                slots.append(slot)
            ids.append(sid)
        rows.append(ids)
    width = max((len(row) for row in rows), default=0)
    sentinel = len(slots)
    slot_idx = np.full((len(rows), width), sentinel, dtype=np.intp)
    for p, ids in enumerate(rows):
        slot_idx[p, : len(ids)] = ids
    return StatementKernel(
        bound_query=cache.bound_query,
        slots=tuple(slots),
        internal=np.asarray(internal, dtype=np.float64),
        slot_idx=slot_idx,
    )


# One batch's scatter targets (:meth:`_PlanArena.footprint`): the row
# cells ``(slot_child, slots)`` its units rewrite — ``slot_at`` is their
# position in the arena's flat unit-slot array, so an owner can gather
# whatever it keeps per (unit, slot) in parallel — and the per-plan sums
# ``(plan_child, plans)`` reading them, with those plans' internal costs
# and slot ids (``cols[k]``: every plan's ``k``-th) pre-gathered.
_Footprint = namedtuple(
    "_Footprint", "slot_child slots slot_at plan_child plans internal cols"
)


class _PlanArena:
    """The flattened plans of many groups, priced against slot cost rows
    — the one delta core under :class:`WorkloadKernel` and
    :class:`BipKernel`.

    ``internal[p]`` is plan ``p``'s internal cost; ``cols[k, p]`` is the
    id of its ``k``-th slot in *plan order*, padded with the sentinel id
    ``n_slots`` — a cost row is ``n_slots + 1`` wide and its last entry
    always prices 0.0; ``starts[g]`` is the first plan of group ``g``.
    Units of change arrive as a CSR — unit ``u`` rewrites
    ``unit_slots[unit_ptr[u]:unit_ptr[u + 1]]``, the plans reading those
    slots are derived here — and the units one child changes must
    rewrite disjoint slots.  ``infeasible`` is the owner's message for a
    group with no feasible plan: raised at the one site below, by every
    pass, and up front for a group that has no plans at all.
    """

    def __init__(self, internal, plan_rows, starts, n_slots, unit_ptr,
                 unit_slots, infeasible):
        self.infeasible = infeasible
        self.internal = np.asarray(internal, dtype=np.float64)
        n_plans = self.internal.size
        self.starts = np.asarray(starts, dtype=np.intp)
        counts = np.diff(np.append(self.starts, n_plans))
        # A group without plans has no cost; a grouped reduction would
        # hand it its neighbour's first plan instead.
        self._require(counts.all())
        width = max(map(len, plan_rows), default=0)
        idx = np.full((n_plans, width), n_slots, dtype=np.intp)
        for p, ids in enumerate(plan_rows):
            idx[p, : len(ids)] = ids
        self.cols = np.ascontiguousarray(idx.T)
        # (n_groups, max plans per group) plan ids, each group's row
        # padded with its own first plan: min(x, x) = x and argmin takes
        # the first occurrence, so a rectangular reduction over the pad
        # equals the ragged one value for value.
        offsets = np.arange(counts.max(initial=1), dtype=np.intp)
        self._pad = self.starts[:, None] + np.where(
            offsets < counts[:, None], offsets, 0
        )
        self.unit_ptr = np.asarray(unit_ptr, dtype=np.intp)
        self.unit_slots = np.asarray(unit_slots, dtype=np.intp)
        self.unit_sizes = np.diff(self.unit_ptr)
        n_units = self.unit_sizes.size
        # unit -> plans: invert cols into a slot -> plans CSR (stable
        # grouping, no Python per slot), gather every unit's spans of
        # it, and drop the plans a unit reaches through several slots.
        k_of, plan_of = np.nonzero(self.cols != n_slots)
        slot_of = self.cols[k_of, plan_of]
        order = np.argsort(slot_of, kind="stable")
        slot_ptr = np.searchsorted(slot_of[order], np.arange(n_slots + 1))
        entry, reader = _span_gather(
            slot_ptr, np.diff(slot_ptr), self.unit_slots
        )
        unit_of = np.repeat(np.arange(n_units), self.unit_sizes)
        pairs = np.unique(
            unit_of[entry] * n_plans + plan_of[order][reader]
        )
        self.plan_ptr = np.searchsorted(
            pairs // max(n_plans, 1), np.arange(n_units + 1)
        )
        self.plan_sizes = np.diff(self.plan_ptr)
        self.unit_plans = pairs % max(n_plans, 1)

    def _require(self, feasible):
        if not feasible:
            raise RuntimeError(self.infeasible)

    def sums(self, rows):
        """Per-plan costs under *rows* — one cost row, or a stack of
        them: ``internal + slot₀ + slot₁ + …``, one gathered add per
        slot position, so every plan accumulates in exactly the scalar
        walk's order (never a reassociating matmul)."""
        acc = np.empty(rows.shape[:-1] + self.internal.shape)
        acc[...] = self.internal
        for col in self.cols:
            acc += rows[..., col]
        return acc

    def minima(self, acc):
        """Each group's cheapest plan.  Infeasible plans price +inf
        (absorbed, like the scalar early-break); a group with no
        feasible plan at all surfaces as +inf and raises, exactly like
        the scalar walk."""
        best = acc[..., self._pad].min(axis=-1)
        self._require(np.isfinite(best).all())
        return best

    def argmin(self, acc):
        """Each group's first cheapest plan (numpy first-min == the
        scalar walk's first-strict-less win), as a plan id."""
        return self._pad[
            np.arange(self.starts.size), acc[..., self._pad].argmin(axis=-1)
        ]

    def footprint(self, children, units):
        """The scatter targets of a batch of ``(child, unit)`` pairs
        (parallel index arrays): one span gather over the unit CSRs,
        whatever the batch size.  Static per batch, so owners that
        re-price the same batch memoize it."""
        pair, at = _span_gather(self.unit_ptr, self.unit_sizes, units)
        reader, read = _span_gather(self.plan_ptr, self.plan_sizes, units)
        plans = self.unit_plans[read]
        return _Footprint(
            slot_child=children[pair],
            slots=self.unit_slots[at],
            slot_at=at,
            plan_child=children[reader],
            plans=plans,
            internal=self.internal[plans],
            cols=np.ascontiguousarray(self.cols[:, plans]),
        )

    def price(self, row, acc, n_children, footprint, values):
        """``(rows, sums, minima)`` of *n_children* children of the
        captured parent ``(row, acc)``, equal bit for bit to ``sums`` /
        ``minima`` over the children's full rows: tile the parent,
        scatter *values* onto the footprint's slot cells, re-sum only
        the footprint plans (same gathered-add order), re-minimize.
        Every other plan keeps the parent's sum — its inputs are
        unchanged — so the full-row minimum is the parent's there."""
        rows = np.repeat(row[None], n_children, axis=0)
        rows[footprint.slot_child, footprint.slots] = values
        accs = np.repeat(acc[None], n_children, axis=0)
        vals = footprint.internal.copy()
        for col in footprint.cols:
            vals += rows[footprint.plan_child, col]
        accs[footprint.plan_child, footprint.plans] = vals
        return rows, accs, self.minima(accs)


def _span_gather(offsets, sizes, which):
    """For every entry ``w`` of *which*, its span ``offsets[w] + 0 ..
    sizes[w] - 1`` of a flat CSR array, as parallel ``(entry index, flat
    index)`` arrays — the whole batch in a handful of vector ops."""
    counts = sizes[which]
    entry = np.repeat(np.arange(counts.size, dtype=np.intp), counts)
    idx = np.repeat(offsets[which] - (np.cumsum(counts) - counts), counts)
    idx += np.arange(idx.size, dtype=np.intp)
    return entry, idx


class WorkloadDeltaState:
    """One parent configuration's fully-resolved grid state.

    Captured once per parent by :meth:`WorkloadKernel.delta_state`:
    the per-table design signatures, the resolved slot cost row and the
    per-plan sums (the minima follow from them).
    """

    __slots__ = ("table_sigs", "row", "acc")

    def __init__(self, table_sigs, row, acc):
        self.table_sigs = table_sigs
        self.row = row
        self.acc = acc


class WorkloadKernel:
    """Distinct statement kernels fused over one global slot table.

    The global access-cost matrix has one column per distinct
    ``(statement, slot)`` pair (a statement named twice in a workload
    shares one statement kernel and therefore one column block) plus the
    arena's sentinel column, last, that always prices 0.0 — the padding
    target for plans with fewer slots than the widest plan.

    All statements' plans are flattened into *one* global plan arena at
    :meth:`seal` time, so an evaluate call is a fixed handful of array
    operations — one gathered add per slot position, one grouped min —
    regardless of how many statements the workload holds.  What stays
    here is slot bookkeeping: which table a slot belongs to, and the
    memoized cost columns resolving a table's slots under one design.
    """

    def __init__(self):
        self.kernels = []  # StatementKernel per distinct read statement
        self.slots = []  # global: (slot, bound_query)
        self.slot_tables = []  # table name per global slot
        self.table_columns = {}  # table -> np.intp slot ids, unit order
        self._read_by_sql = {}
        self._plan_rows = []  # per plan: global slot ids, plan order
        self._plan_internal = []
        self._read_starts = []  # first plan index of each read statement
        self._columns = {}  # (table, design signature) -> cost array
        self._delta_states = {}  # sorted table-sig items -> delta state
        # Filled by seal():
        self.arena = None  # _PlanArena: reads are groups, tables units

    @property
    def tables(self):
        """Tables whose design any slot depends on (sorted)."""
        return tuple(sorted(self.table_columns))

    def add_statement(self, kernel):
        """Register *kernel* (deduplicated by its bound query's SQL);
        returns the read index its cost row lives at."""
        sql = kernel.bound_query.sql
        read = self._read_by_sql.get(sql)
        if read is not None:
            return read
        base = len(self.slots)
        for slot in kernel.slots:
            self.slots.append((slot, kernel.bound_query))
            self.slot_tables.append(slot.table_name)
        read = len(self.kernels)
        self.kernels.append(kernel)
        self._read_starts.append(len(self._plan_internal))
        self._plan_internal.extend(kernel.internal.tolist())
        # The statement's own padding is dropped; the arena pads anew.
        for row in kernel.slot_idx.tolist():
            self._plan_rows.append(
                [base + local for local in row if local < kernel.n_slots]
            )
        self._read_by_sql[sql] = read
        return read

    def seal(self):
        """Freeze the per-table column arrays and the global plan arena
        (call once, after the last :meth:`add_statement`)."""
        grouped = {}
        for g, table in enumerate(self.slot_tables):
            grouped.setdefault(table, []).append(g)
        self.table_columns = {
            table: np.asarray(cols, dtype=np.intp)
            for table, cols in grouped.items()
        }
        self.arena = _PlanArena(
            self._plan_internal, self._plan_rows, self._read_starts,
            len(self.slots),
            np.cumsum([0] + [len(cols) for cols in grouped.values()]),
            [g for cols in grouped.values() for g in cols],
            "INUM cache produced no feasible plan",
        )

    # ------------------------------------------------------------------

    def _design_column(self, table, signature, view, slot_choice):
        """The costs of *table*'s slots under one per-table design, as
        an array — memoized across configurations and across evaluate
        calls.  An infeasible slot prices +inf (its plans never win)."""
        column = self._columns.get((table, signature))
        if column is None:
            costs = []
            for g in self.table_columns[table]:
                slot, bq = self.slots[g]
                choice = slot_choice(bq, slot, view, signature)
                costs.append(np.inf if choice is None else choice[0])
            column = np.asarray(costs, dtype=np.float64)
            if len(self._columns) >= _MAX_DESIGN_COLUMNS:
                self._columns.clear()
            self._columns[(table, signature)] = column
        return column

    def _rows(self, views, table_sigs, slot_choice):
        """The ``configurations × slots`` access-cost matrix (sentinel
        column last).  Work scales with *distinct designs*, not
        configurations: each table's designs are factorized across the
        batch, one cost column is resolved per distinct design, and the
        full matrix is a gather."""
        matrix = np.zeros((len(views), len(self.slots) + 1), dtype=np.float64)
        for table, cols in self.table_columns.items():
            distinct = {}  # signature -> (block row, first view with it)
            inverse = [
                distinct.setdefault(sigs[table], (len(distinct), view))[0]
                for sigs, view in zip(table_sigs, views)
            ]
            block = np.empty((len(distinct), len(cols)), dtype=np.float64)
            for signature, (u, view) in distinct.items():
                block[u] = self._design_column(
                    table, signature, view, slot_choice
                )
            matrix[:, cols] = block[inverse]
        return matrix

    def evaluate_many(self, views, table_sigs, slot_choice):
        """Price every read statement under every configuration.

        ``views`` are the per-configuration
        :class:`~repro.inum.cache._DesignView` facades, ``table_sigs``
        the per-configuration ``{table: design signature}`` dicts, and
        ``slot_choice(bq, slot, view, signature)`` the scalar slot
        pricer — a memo over the pure function the serial reference
        calls: the winning ``(cost, payload indexes)`` pair, of which
        the kernel reads the cost, or ``None`` if infeasible.  Returns
        an array of shape ``(n_reads, n_configurations)``.

        Statement pricing is pure array arithmetic in scalar
        accumulation order: the arena's sums over the resolved matrix,
        then its grouped minima.
        """
        rows = self._rows(views, table_sigs, slot_choice)
        return self.arena.minima(self.arena.sums(rows)).T.copy()

    # -- delta (seminaïve) evaluation ----------------------------------

    def delta_state(self, view, table_sigs, slot_choice):
        """Capture (or fetch the memoized) parent state for *view*.

        The parent's slot cost row and per-plan sums are computed by
        exactly the element-wise operations one column of
        :meth:`evaluate_many` would run, so a captured state is
        bit-identical source material for delta pricing.
        """
        key = tuple(sorted(table_sigs.items()))
        state = self._delta_states.get(key)
        if state is not None:
            return state
        row = self._rows([view], [table_sigs], slot_choice)[0]
        acc = self.arena.sums(row)
        self.arena.minima(acc)  # an infeasible parent raises here
        state = WorkloadDeltaState(dict(table_sigs), row, acc)
        if len(self._delta_states) >= _MAX_DELTA_STATES:
            self._delta_states.clear()
        self._delta_states[key] = state
        return state

    def evaluate_deltas(self, state, views, table_sigs, slot_choice):
        """Delta counterpart of :meth:`evaluate_many`: price each
        configuration as a diff against *state*'s parent, in one batched
        arena pass — a child changes the unit of each table whose design
        differs from the parent's, its new values that design's cost
        column — re-summing only the plans that read them.  Untouched
        reads inherit the parent minimum verbatim: every input to their
        plan sums is unchanged."""
        children, units, values = [], [], [np.empty(0, dtype=np.float64)]
        for c, sigs in enumerate(table_sigs):
            for unit, table in enumerate(self.table_columns):
                if sigs[table] != state.table_sigs[table]:
                    children.append(c)
                    units.append(unit)
                    values.append(self._design_column(
                        table, sigs[table], views[c], slot_choice
                    ))
        footprint = self.arena.footprint(
            np.asarray(children, dtype=np.intp),
            np.asarray(units, dtype=np.intp),
        )
        __, __, best = self.arena.price(
            state.row, state.acc, len(views), footprint,
            np.concatenate(values),
        )
        return best.T.copy()


class BipDeltaState:
    """One parent candidate set's fully-priced BIP state: the chosen
    position list (order matters — see :meth:`BipKernel.delta_state`),
    the per-slot winner row (sentinel 0.0 last), the per-plan sums."""

    __slots__ = ("chosen", "row", "acc")

    def __init__(self, chosen, row, acc):
        self.chosen = chosen
        self.row = row
        self.acc = acc


class BipKernel:
    """CoPhy's BIP pricing surface in columnar form.

    Compiled once per (immutable) :class:`~repro.cophy.bip.BipProblem`;
    :meth:`evaluate` prices a whole batch of candidate-position sets —
    the greedy frontier sweep, solver incumbents, base-cost probes —
    with per-slot minima over applicable accesses computed as one
    masked grouped reduction.  Plans, query terms and the delta pass
    live in the arena; what stays here is the option arrays that
    resolve a slot, and the base/penalty/weight accumulation.
    """

    def __init__(self, problem):
        n = problem.n_candidates
        opt_cost = []
        opt_col = []  # candidate position, or n_candidates for default
        slot_starts = []
        internal = []
        plan_rows = []  # per plan: its slot ids in slot order
        plan_starts = []
        for term in problem.queries:
            plan_starts.append(len(internal))
            for plan in term.plans:
                internal.append(plan.internal_cost)
                ids = []
                for slot in plan.slots:
                    ids.append(len(slot_starts))
                    slot_starts.append(len(opt_cost))
                    # A slot nothing can serve prices +inf under every
                    # set (an empty option span would read its
                    # neighbour's first option instead).
                    for pos, cost in slot.options or [(-1, np.inf)]:
                        opt_col.append(n if pos == -1 else pos)
                        opt_cost.append(cost)
                plan_rows.append(ids)
        self.n_candidates = n
        self.n_slots = len(slot_starts)
        self.write_base_cost = problem.write_base_cost
        self.index_penalties = problem.index_penalties
        self.opt_cost = np.asarray(opt_cost, dtype=np.float64)
        self.opt_col = np.asarray(opt_col, dtype=np.intp)
        self.slot_starts = np.asarray(slot_starts, dtype=np.intp)
        self.opt_slot = np.repeat(
            np.arange(self.n_slots, dtype=np.intp),
            np.diff(np.append(self.slot_starts, len(opt_cost))),
        )
        self._weights = np.asarray(
            [term.weight for term in problem.queries], dtype=np.float64
        )
        # A candidate's unit: the slots it offers options on, each with
        # the minimum of its options there (compile-time constants).
        # One stable grouping pass — never a Python loop per candidate:
        # column generation compiles a kernel per wave over thousands —
        # which keeps each candidate's options in ascending slot order.
        order = np.argsort(self.opt_col, kind="stable")
        order = order[self.opt_col[order] < n]
        cols, slots = self.opt_col[order], self.opt_slot[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (cols[1:] != cols[:-1]) | (slots[1:] != slots[:-1])
        first = np.flatnonzero(first)
        self._unit_static = np.minimum.reduceat(self.opt_cost[order], first)
        self.arena = _PlanArena(
            internal, plan_rows, plan_starts, self.n_slots,
            np.searchsorted(cols[first], np.arange(n + 1)), slots[first],
            "BIP has an infeasible query term",
        )
        self._footprints = {}  # positions tuple -> (footprint, minima)
        self._delta_state = None  # the last captured BipDeltaState

    def _resolve(self, batch):
        """``(options, rows)`` under each chosen list of *batch*: every
        option's cost, +inf where its candidate is not chosen (the
        default access always applies), and the slot winner rows
        (sentinel 0.0 last), each slot the grouped minimum of its
        options — the one place a slot is resolved from scratch, for
        dense batches and captures alike."""
        mask = np.zeros((len(batch), self.n_candidates + 1), dtype=bool)
        mask[:, self.n_candidates] = True
        for b, chosen in enumerate(batch):
            mask[b, chosen] = True
        options = np.where(mask[:, self.opt_col], self.opt_cost, np.inf)
        rows = np.zeros((len(batch), self.n_slots + 1))
        if self.n_slots:
            rows[:, :-1] = np.minimum.reduceat(
                options, self.slot_starts, axis=1
            )
        return options, rows

    def _totals(self, best, chosen_sets):
        """Objectives from per-query minima: the scalar walk's
        accumulation, batched.  The base is the scalar expression over
        each of *chosen_sets* — built by the caller with the scalar
        walk's insertion history (it decides iteration, hence summation,
        order) and not even iterated without penalties.  Then products
        first (each elementwise, exact) and a strictly sequential
        running sum — ufunc.accumulate has no pairwise regrouping, so
        every row adds base + w0*b0 + w1*b1 + ... in the scalar order."""
        running = np.empty((best.shape[0], best.shape[1] + 1))
        running[:, 0] = self.write_base_cost
        if self.index_penalties:
            running[:, 0] += [
                sum(self.index_penalties[pos] for pos in chosen)
                for chosen in chosen_sets
            ]
        running[:, 1:] = best * self._weights
        return np.add.accumulate(running, axis=1)[:, -1].tolist()

    def evaluate(self, batch):
        """Objective values for *batch* (iterables of chosen candidate
        positions); equals the scalar BIP walk
        (``config_costs_reference`` in ``tests/oracle.py``) exactly —
        including the base/penalty accumulation, which runs through the
        very same Python expressions."""
        batch = [list(chosen) for chosen in batch]
        __, rows = self._resolve(batch)
        best = self.arena.minima(self.arena.sums(rows))
        return self._totals(best, map(set, batch))

    def used_positions(self, chosen_positions):
        """The members of *chosen_positions*, in the order given, that
        the argmin witness of :meth:`evaluate` reads: per query the
        first cheapest plan, per slot of that plan the first cheapest
        applicable option (numpy first-min == the scalar walk's
        first-strict-less win)."""
        chosen = list(chosen_positions)
        if not chosen or not self.n_slots:
            return ()
        state = self.delta_state(chosen)
        (options,), __ = self._resolve([chosen])
        # Each slot's first option attaining its minimum (flatnonzero is
        # ascending, so unique's first occurrence is the first option).
        hits = np.flatnonzero(options == state.row[self.opt_slot])
        slots, first = np.unique(self.opt_slot[hits], return_index=True)
        slot_col = np.full(self.n_slots + 1, self.n_candidates, dtype=np.intp)
        slot_col[slots] = self.opt_col[hits[first]]
        plans = self.arena.argmin(state.acc)
        used = set(slot_col[self.arena.cols[:, plans]].ravel().tolist())
        return tuple(pos for pos in chosen if pos in used)

    # -- delta (seminaïve) evaluation ----------------------------------

    def delta_state(self, chosen):
        """Capture (or fetch the memoized) parent state for the chosen
        position list.  ``chosen`` must be the *same list, in the same
        order,* the full path would prepend to each extension — the
        penalty accumulation of :meth:`evaluate_delta` replays
        ``set(chosen + [pos])`` iteration, which depends on insertion
        history."""
        chosen = list(chosen)
        prev = self._delta_state
        if prev is not None and prev.chosen == chosen:
            return prev
        if prev is not None and prev.chosen == chosen[:-1]:
            # The sweep shape: this parent extends the previous one by
            # exactly its chosen winner, so the capture itself is a
            # delta — the previous state's one child.
            rows, accs, __ = self._children(prev, (chosen[-1],))
            row, acc = rows[0], accs[0]
        else:
            __, (row,) = self._resolve([chosen])
            acc = self.arena.sums(row)
            self.arena.minima(acc)  # an infeasible parent raises here
        self._delta_state = BipDeltaState(chosen, row, acc)
        return self._delta_state

    def evaluate_delta(self, state, positions):
        """Objectives of ``state.chosen + [pos]`` for each extension
        position, equal bit-for-bit to
        ``evaluate([state.chosen + [pos] for pos in positions])``: only
        plans referencing slots the position offers an option on are
        re-summed, over the parent's accumulations."""
        positions = tuple(positions)
        __, __, best = self._children(state, positions)
        # The full path's very expression per child: a set union or a
        # copied set would re-insert in table order and feed the float
        # sum of penalties another order.
        return self._totals(
            best, (set(state.chosen + [pos]) for pos in positions)
        )

    def _children(self, state, positions):
        """``(rows, sums, minima)`` of ``state.chosen + [pos]`` for each
        of *positions* (a tuple), as one arena pass.  A child's slot
        winners are ``min(parent winner, the position's own static
        option minima)`` — min decomposes exactly, so one scatter onto
        the tiled parent row resolves every child.  The footprint is
        memoized per positions tuple: sweeps re-price the same sets."""
        memo = self._footprints.get(positions)
        if memo is None:
            if len(self._footprints) >= _MAX_FOOTPRINTS:
                self._footprints.clear()
            footprint = self.arena.footprint(
                np.arange(len(positions), dtype=np.intp),
                np.asarray(positions, dtype=np.intp),
            )
            memo = (footprint, self._unit_static[footprint.slot_at])
            self._footprints[positions] = memo
        footprint, static = memo
        return self.arena.price(
            state.row, state.acc, len(positions), footprint,
            np.minimum(state.row[footprint.slots], static),
        )
