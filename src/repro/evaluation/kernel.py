"""The columnar plan-term kernel: the costing hot path as array passes.

INUM makes what-if costing cheap by *precomputing* plan terms; until
this module the backplane still *consumed* those terms with scalar
Python loops — per plan, per slot, per configuration — so batch pricing
paid interpreter overhead proportional to the whole workload ×
configuration grid.  The kernel compiles the terms once into flat
numpy arrays and prices the grid as vectorized reductions:

* :class:`StatementKernel` — one cache entry's plan terms in columnar
  form: a flat ``internal`` cost vector (one entry per cached plan) and
  a padded ``slot_idx`` matrix mapping every plan to its (deduplicated)
  access slots, in slot order;

* :class:`WorkloadKernel` — many statement kernels fused over one
  global slot table, evaluated by :meth:`~WorkloadKernel.evaluate_many`:
  a ``configurations × slots`` access-cost matrix is filled per distinct
  per-table design (the slot → (table, design) cost columns are
  memoized), then every statement's grid prices as
  ``internal + Σ slot columns`` followed by a min over plans;

* :class:`BipKernel` — CoPhy's pricing surface
  (:meth:`~repro.cophy.bip.BipProblem.config_costs`) in the same form:
  per-slot *min over applicable accesses* (default access plus the
  chosen candidate indexes), per-plan sums, per-query mins, computed
  for a whole batch of candidate sets at once.

Both workload and BIP kernels additionally support **delta
evaluation** — the seminaïve mode greedy/COLT/IBG chain sweeps price
through.  Those loops evaluate long chains of *near-identical*
configurations (``chosen + {one index}``); a full grid pass re-resolves
every slot and re-minimizes every statement anyway.  Delta mode
captures the parent configuration's resolved state once
(:class:`WorkloadDeltaState` / :class:`BipDeltaState`: slot cost row,
per-plan accumulations, per-statement minima) and prices each child by
re-resolving only the slots on *touched* tables and re-minimizing only
the statements whose plans reference them — O(delta) instead of
O(grid), with untouched statements answered straight from the parent
state.  The **argmin-with-witness** mode recovers, from the very same
reductions, the winning plan per statement and the winning access per
slot (payload columns memoized per (table, design) like the cost
columns), which is what turns
:meth:`~repro.evaluation.WorkloadEvaluator.workload_cost_with_usage_batch`
— the IBG frontier oracle — from a per-configuration serial walk into
one vectorized pass.

Each job has exactly one strategy — the dense grid for a full batch,
deltas off a captured parent for chains and witnesses — chosen by the
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
weights.

Compiled kernels are *derived* state: the
:class:`~repro.evaluation.pool.InumCachePool` owns their lifetime
(compiled on demand, dropped with the entry they derive from) and the
wire format rebuilds them from plan terms on load — they never cross
the wire themselves.
"""

import numpy as np

__all__ = [
    "StatementKernel",
    "WorkloadKernel",
    "WorkloadDeltaState",
    "BipKernel",
    "BipDeltaState",
    "compile_statement",
]

# Safety valve for long-lived workload kernels sweeping ever-fresh
# designs: past this many memoized (table, design) cost columns the memo
# is dropped and rebuilt on demand (each rebuild is a handful of
# already-memoized slot-cost lookups, so the reset is cheap).
_MAX_DESIGN_COLUMNS = 4096

# Parent states a workload kernel keeps around for delta pricing; greedy
# and IBG sweeps revisit at most a couple of parents at a time.
_MAX_DELTA_STATES = 8

# Distinct changed-table sets whose touched read/plan groupings are
# memoized (greedy extensions cycle through the same few sets).
_MAX_TOUCH_GROUPS = 256


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

    __slots__ = ("bound_query", "slots", "internal", "slot_idx", "tables")

    def __init__(self, bound_query, slots, internal, slot_idx):
        self.bound_query = bound_query
        self.slots = slots
        self.internal = internal
        self.slot_idx = slot_idx
        self.tables = tuple(sorted({slot.table_name for slot in slots}))

    @property
    def n_plans(self):
        return self.internal.shape[0]

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


class WorkloadDeltaState:
    """One parent configuration's fully-resolved grid state.

    Captured once per parent by :meth:`WorkloadKernel.delta_state`:
    the resolved slot cost row, the per-read minima, and the winning
    plan per read (the argmin witness).  ``used`` caches each read's
    raw witness index set lazily — children that leave a read's tables
    untouched inherit both its minimum and its witness verbatim.

    The state is derived data owned by the kernel it was captured from;
    it dies with the kernel (and therefore with the pool entries the
    kernel compiles from — eviction drops delta state transitively).
    """

    __slots__ = ("table_sigs", "view", "row", "best", "argmin", "used")

    def __init__(self, table_sigs, view, row, best, argmin):
        self.table_sigs = table_sigs
        self.view = view
        self.row = row
        self.best = best
        self.argmin = argmin
        self.used = [None] * best.shape[0]


class WorkloadKernel:
    """Distinct statement kernels fused over one global slot table.

    The global access-cost matrix has one column per distinct
    ``(statement, slot)`` pair (two alias-renamed duplicates share one
    statement kernel and therefore one column block) plus a sentinel
    column 0 that always prices 0.0 — the padding target for plans with
    fewer slots than the widest plan.

    All statements' plans are flattened into *one* global plan arena at
    :meth:`seal` time, so an evaluate call is a fixed handful of array
    operations — one gathered add per slot position, one grouped min —
    regardless of how many statements the workload holds.
    """

    def __init__(self):
        self.kernels = []  # StatementKernel per distinct read statement
        self.slots = []  # global: (slot, bound_query)
        self.slot_tables = []  # table name per global slot
        self.table_columns = {}  # table -> np.intp matrix-column array
        self._read_by_sql = {}
        self._plan_rows = []  # per plan: global matrix columns, plan order
        self._plan_internal = []
        self._read_starts = []  # first plan index of each read statement
        self._columns = {}  # (table, design signature) -> cost column
        self._payloads = {}  # (table, design signature) -> payload column
        self._delta_states = {}  # sorted table-sig items -> delta state
        self._touch_groups = {}  # changed-table frozenset -> groupings
        # Filled by seal():
        self.plan_internal = None  # np [n_plans_total]
        self.plan_idx = None  # np.intp [n_plans_total, max slots per plan]
        self.read_starts = None  # np.intp [n_reads]
        self.read_ends = None  # np.intp [n_reads]
        self._table_reads = {}  # table -> tuple of read indexes
        self._col_pos = None  # global column -> offset in its table block

    @property
    def tables(self):
        """Tables whose design any slot depends on (sorted)."""
        return tuple(sorted(self.table_columns))

    @property
    def n_reads(self):
        return len(self.kernels)

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
        # Matrix columns are 1-based (column 0 is the sentinel); the
        # local sentinel id len(slots) maps to global column 0.
        gmap = [base + 1 + j for j in range(kernel.n_slots)] + [0]
        read = len(self.kernels)
        self.kernels.append(kernel)
        self._read_starts.append(len(self._plan_internal))
        self._plan_internal.extend(kernel.internal.tolist())
        for row in kernel.slot_idx:
            self._plan_rows.append([gmap[local] for local in row])
        self._read_by_sql[sql] = read
        return read

    def seal(self):
        """Freeze the per-table column arrays and the global plan arena
        (call once, after the last :meth:`add_statement`)."""
        grouped = {}
        for j, table in enumerate(self.slot_tables):
            grouped.setdefault(table, []).append(j + 1)
        self.table_columns = {
            table: np.asarray(cols, dtype=np.intp)
            for table, cols in grouped.items()
        }
        width = max((len(row) for row in self._plan_rows), default=0)
        self.plan_idx = np.zeros(
            (len(self._plan_rows), width), dtype=np.intp
        )
        for p, row in enumerate(self._plan_rows):
            self.plan_idx[p, : len(row)] = row
        self.plan_internal = np.asarray(self._plan_internal, dtype=np.float64)
        self.read_starts = np.asarray(self._read_starts, dtype=np.intp)
        self.read_ends = np.append(
            self.read_starts[1:], len(self._plan_rows)
        ).astype(np.intp)
        table_reads = {}
        for r, kernel in enumerate(self.kernels):
            for table in kernel.tables:
                table_reads.setdefault(table, []).append(r)
        self._table_reads = {
            table: tuple(reads) for table, reads in table_reads.items()
        }
        self._col_pos = np.zeros(len(self.slots) + 1, dtype=np.intp)
        for cols in self.table_columns.values():
            self._col_pos[cols] = np.arange(len(cols), dtype=np.intp)

    # ------------------------------------------------------------------

    def _design_column(self, table, signature, view, slot_cost):
        """Access costs of *table*'s slots under one per-table design —
        the kernel's slot → (table, candidate-access) cost column,
        memoized across configurations and across evaluate calls."""
        column = self._columns.get((table, signature))
        if column is None:
            values = []
            for g in self.table_columns[table]:
                slot, bq = self.slots[g - 1]
                cost = slot_cost(bq, slot, view, signature)
                values.append(np.inf if cost is None else cost)
            column = np.asarray(values, dtype=np.float64)
            if len(self._columns) >= _MAX_DESIGN_COLUMNS:
                self._columns.clear()
            self._columns[(table, signature)] = column
        return column

    def evaluate_many(self, views, table_sigs, slot_cost):
        """Price every read statement under every configuration.

        ``views`` are the per-configuration
        :class:`~repro.inum.cache._DesignView` facades, ``table_sigs``
        the per-configuration ``{table: design signature}`` dicts, and
        ``slot_cost(bq, slot, view, signature)`` the (memoized) scalar
        slot pricer — ``None`` meaning infeasible.  Returns an array of
        shape ``(n_reads, n_configurations)``.

        Work scales with *distinct designs*, not configurations: each
        table's designs are factorized across the batch, one cost
        column is resolved per distinct design, and the full matrix is
        a gather.  Statement pricing is then pure array arithmetic in
        scalar accumulation order.
        """
        n_configs = len(views)
        matrix = np.zeros((n_configs, len(self.slots) + 1), dtype=np.float64)
        for table, cols in self.table_columns.items():
            distinct = {}
            representatives = []
            inverse = np.empty(n_configs, dtype=np.intp)
            for c in range(n_configs):
                signature = table_sigs[c][table]
                u = distinct.get(signature)
                if u is None:
                    u = len(distinct)
                    distinct[signature] = u
                    representatives.append(c)
                inverse[c] = u
            block = np.empty((len(distinct), len(cols)), dtype=np.float64)
            for signature, u in distinct.items():
                block[u] = self._design_column(
                    table, signature, views[representatives[u]], slot_cost
                )
            matrix[:, cols] = block[inverse]

        if not self.kernels:
            return np.empty((0, n_configs), dtype=np.float64)
        acc = np.broadcast_to(
            self.plan_internal, (n_configs, self.plan_internal.shape[0])
        ).copy()
        for k in range(self.plan_idx.shape[1]):
            acc += matrix[:, self.plan_idx[:, k]]
        # Min over each statement's plan group: infeasible plans price
        # +inf (absorbed, like the scalar early-break); a statement with
        # no feasible plan at all surfaces as +inf and raises, exactly
        # like the scalar walk.
        best = np.minimum.reduceat(acc, self.read_starts, axis=1)
        if not np.isfinite(best).all():
            raise RuntimeError("INUM cache produced no feasible plan")
        return best.T.copy()

    # -- delta (seminaïve) evaluation ----------------------------------

    def delta_state(self, view, table_sigs, slot_cost):
        """Capture (or fetch the memoized) parent state for *view*.

        The parent's slot cost row and per-read minima are computed by
        exactly the element-wise operations one column of
        :meth:`evaluate_many` would run, so a captured state is
        bit-identical source material for delta pricing.
        """
        key = tuple(sorted(table_sigs.items()))
        state = self._delta_states.get(key)
        if state is not None:
            return state
        row = np.zeros(len(self.slots) + 1, dtype=np.float64)
        for table, cols in self.table_columns.items():
            row[cols] = self._design_column(
                table, table_sigs[table], view, slot_cost
            )
        if self.kernels:
            acc = self.plan_internal.copy()
            for k in range(self.plan_idx.shape[1]):
                acc += row[self.plan_idx[:, k]]
            best = np.minimum.reduceat(acc, self.read_starts)
            if not np.isfinite(best).all():
                raise RuntimeError("INUM cache produced no feasible plan")
            argmin = np.empty(self.n_reads, dtype=np.intp)
            for r in range(self.n_reads):
                s, e = int(self.read_starts[r]), int(self.read_ends[r])
                argmin[r] = s + int(np.argmin(acc[s:e]))
        else:
            best = np.empty(0, dtype=np.float64)
            argmin = np.empty(0, dtype=np.intp)
        state = WorkloadDeltaState(dict(table_sigs), view, row, best, argmin)
        if len(self._delta_states) >= _MAX_DELTA_STATES:
            self._delta_states.clear()
        self._delta_states[key] = state
        return state

    def evaluate_deltas(self, state, views, table_sigs, slot_cost):
        """Delta counterpart of :meth:`evaluate_many`: price each
        configuration as a diff against *state*'s parent, re-resolving
        only slots on tables whose design changed and re-minimizing
        only the reads whose plans reference them.  Untouched reads
        inherit the parent minimum verbatim — bit-identical, because
        every input to their plan sums is unchanged."""
        n_configs = len(views)
        if not self.kernels:
            return np.empty((0, n_configs), dtype=np.float64)
        out = np.empty((self.n_reads, n_configs), dtype=np.float64)
        for c in range(n_configs):
            best, __, ___ = self._delta_column(
                state, views[c], table_sigs[c], slot_cost
            )
            out[:, c] = best
        return out

    def evaluate_deltas_with_usage(self, state, views, table_sigs,
                                   slot_cost, slot_choice):
        """:meth:`evaluate_deltas` plus argmin witnesses.

        Returns ``(grid, used)`` where ``used[r][c]`` is the *raw*
        witness set of read ``r`` under configuration ``c``: the union
        of the winning access path's indexes over the winning plan's
        slots, **unfiltered** (callers intersect with the
        configuration's own indexes, like the scalar walk does).
        ``slot_choice(bq, slot, view, signature)`` returns the winning
        ``(cost, payload indexes)`` pair for one slot, or ``None`` if
        infeasible — the same pure function the serial reference calls.
        Witnesses of untouched reads are resolved once against the
        parent and cached on the state; touched reads resolve under the
        child's designs."""
        n_configs = len(views)
        if not self.kernels:
            return np.empty((0, n_configs), dtype=np.float64), []
        out = np.empty((self.n_reads, n_configs), dtype=np.float64)
        used = [[None] * n_configs for __ in range(self.n_reads)]
        for c in range(n_configs):
            best, argmin, touched = self._delta_column(
                state, views[c], table_sigs[c], slot_cost,
                want_argmin=True,
            )
            out[:, c] = best
            for r in range(self.n_reads):
                if r in touched:
                    used[r][c] = self._witness(
                        int(argmin[r]), table_sigs[c], views[c], slot_choice
                    )
                else:
                    witness = state.used[r]
                    if witness is None:
                        witness = self._witness(
                            int(state.argmin[r]), state.table_sigs,
                            state.view, slot_choice,
                        )
                        state.used[r] = witness
                    used[r][c] = witness
        return out, used

    def _delta_column(self, state, view, sigs, slot_cost, want_argmin=False):
        """Price one child configuration against the parent *state*.
        Returns ``(best, argmin, touched reads)``; ``argmin`` is only
        computed when requested, and untouched entries of both vectors
        are the parent's own (their plan sums are bit-identical)."""
        changed = [
            table for table in self.table_columns
            if sigs[table] != state.table_sigs[table]
        ]
        if not changed:
            return state.best, state.argmin, ()
        reads, plans, starts = self._touched(frozenset(changed))
        if not plans.size:
            return state.best, state.argmin, ()
        row = state.row.copy()
        for table in changed:
            row[self.table_columns[table]] = self._design_column(
                table, sigs[table], view, slot_cost
            )
        sub_idx = self.plan_idx[plans]
        acc = self.plan_internal[plans].copy()
        for k in range(sub_idx.shape[1]):
            acc += row[sub_idx[:, k]]
        best_touched = np.minimum.reduceat(acc, starts)
        if not np.isfinite(best_touched).all():
            raise RuntimeError("INUM cache produced no feasible plan")
        best = state.best.copy()
        best[reads] = best_touched
        if not want_argmin:
            return best, None, reads
        argmin = state.argmin.copy()
        bounds = np.append(starts, len(plans))
        for i, r in enumerate(reads):
            s, e = int(bounds[i]), int(bounds[i + 1])
            argmin[r] = int(plans[s + int(np.argmin(acc[s:e]))])
        return best, argmin, set(reads.tolist())

    def _touched(self, changed):
        """Reads whose plans reference any table in *changed*, their
        concatenated plan ids, and the per-read group starts (memoized
        per changed-table set — greedy sweeps cycle through few)."""
        cached = self._touch_groups.get(changed)
        if cached is None:
            read_set = set()
            for table in changed:
                read_set.update(self._table_reads.get(table, ()))
            reads = np.asarray(sorted(read_set), dtype=np.intp)
            spans = [
                np.arange(self.read_starts[r], self.read_ends[r])
                for r in reads
            ]
            if spans:
                plans = np.concatenate(spans)
                starts = np.cumsum(
                    [0] + [span.size for span in spans[:-1]], dtype=np.intp
                )
            else:
                plans = np.empty(0, dtype=np.intp)
                starts = np.empty(0, dtype=np.intp)
            if len(self._touch_groups) >= _MAX_TOUCH_GROUPS:
                self._touch_groups.clear()
            cached = (reads, plans, starts)
            self._touch_groups[changed] = cached
        return cached

    # -- argmin witnesses ----------------------------------------------

    def _payload_column(self, table, signature, view, slot_choice):
        """Winning access payloads of *table*'s slots under one design
        — the witness twin of :meth:`_design_column`, memoized the same
        way.  Infeasible slots store an empty payload (their plans
        price +inf and never win, so the entry is never read)."""
        column = self._payloads.get((table, signature))
        if column is None:
            column = []
            for g in self.table_columns[table]:
                slot, bq = self.slots[g - 1]
                priced = slot_choice(bq, slot, view, signature)
                column.append(() if priced is None else tuple(priced[1]))
            if len(self._payloads) >= _MAX_DESIGN_COLUMNS:
                self._payloads.clear()
            self._payloads[(table, signature)] = column
        return column

    def _witness(self, plan, table_sigs, view, slot_choice):
        """Raw witness set of one winning *plan*: the union of winning
        access payloads over its slots, exactly the winner list the
        scalar walk unions (callers filter by the configuration)."""
        out = set()
        for g in self._plan_rows[plan]:
            if g == 0:  # sentinel padding
                continue
            table = self.slot_tables[g - 1]
            column = self._payload_column(
                table, table_sigs[table], view, slot_choice
            )
            out.update(column[self._col_pos[g]])
        return frozenset(out)


class BipKernel:
    """CoPhy's BIP pricing surface in columnar form.

    Compiled once per (immutable) :class:`~repro.cophy.bip.BipProblem`;
    :meth:`evaluate` prices a whole batch of candidate-position sets —
    the greedy frontier sweep, solver incumbents, base-cost probes —
    with per-slot minima over applicable accesses computed as one
    masked grouped reduction.
    """

    def __init__(self, problem):
        opt_cost = []
        opt_col = []  # candidate position, or n_candidates for default
        slot_starts = []
        plan_internal = []
        plan_rows = []  # per plan: global slot ids in slot order
        plan_starts = []
        weights = []
        n = problem.n_candidates
        for term in problem.queries:
            plan_starts.append(len(plan_internal))
            weights.append(term.weight)
            for plan in term.plans:
                plan_internal.append(plan.internal_cost)
                ids = []
                for slot in plan.slots:
                    sid = len(slot_starts)
                    slot_starts.append(len(opt_cost))
                    for pos, cost in slot.options:
                        opt_col.append(n if pos == -1 else pos)
                        opt_cost.append(cost)
                    ids.append(sid)
                plan_rows.append(ids)
        width = max((len(row) for row in plan_rows), default=0)
        sentinel = len(slot_starts)
        gidx = np.full((len(plan_rows), width), sentinel, dtype=np.intp)
        for p, ids in enumerate(plan_rows):
            gidx[p, : len(ids)] = ids
        self.n_candidates = n
        self.weights = weights
        self.write_base_cost = problem.write_base_cost
        self.index_penalties = problem.index_penalties
        self.opt_cost = np.asarray(opt_cost, dtype=np.float64)
        self.opt_col = np.asarray(opt_col, dtype=np.intp)
        self.slot_starts = np.asarray(slot_starts, dtype=np.intp)
        self.n_slots = len(slot_starts)
        self.plan_internal = np.asarray(plan_internal, dtype=np.float64)
        self.plan_idx = gidx
        self.plan_starts = np.asarray(plan_starts, dtype=np.intp)
        n_plans = len(plan_internal)
        self.plan_ends = np.append(self.plan_starts[1:], n_plans).astype(
            np.intp
        )
        self.query_of_plan = np.empty(n_plans, dtype=np.intp)
        for q in range(self.plan_starts.size):
            self.query_of_plan[self.plan_starts[q]:self.plan_ends[q]] = q
        slot_plans = {}
        for p, ids in enumerate(plan_rows):
            for sid in ids:
                slot_plans.setdefault(sid, set()).add(p)
        self._slot_plans = {
            sid: sorted(ps) for sid, ps in slot_plans.items()
        }
        counts = np.diff(np.append(self.slot_starts, len(opt_cost)))
        self.opt_slot = np.repeat(
            np.arange(self.n_slots, dtype=np.intp), counts
        )
        self._weights_row = np.asarray(weights, dtype=np.float64)
        self._pos_deltas = {}  # candidate position -> _BipPosDelta/None
        self._opt_groups = None  # lazy: position -> its option indices
        self._fp = None  # lazily flattened _BipFootprint over all positions
        self._qplan_pad = None  # lazy (n_queries, width) padded plan ids
        self._batch_fps = {}  # positions tuple -> _BipBatchFootprint/None
        self._delta_state = None  # (chosen tuple, BipDeltaState)

    def evaluate(self, batch):
        """Objective values for *batch* (iterables of chosen candidate
        positions); equals the scalar BIP walk
        (``config_costs_reference`` in ``tests/oracle.py``) exactly —
        including the base/penalty accumulation, which runs through the
        very same Python expressions."""
        batch = [list(chosen) for chosen in batch]
        n_batch = len(batch)
        if not n_batch:
            return []
        chosen_cols = np.zeros(
            (n_batch, self.n_candidates + 1), dtype=bool
        )
        chosen_cols[:, self.n_candidates] = True  # the default access
        penalties = np.empty(n_batch, dtype=np.float64)
        for b, chosen_positions in enumerate(batch):
            chosen = set(chosen_positions)
            for pos in chosen:
                chosen_cols[b, pos] = True
            # Scalar-identical base: same expression, same set iteration.
            total = self.write_base_cost
            if self.index_penalties:
                total += sum(self.index_penalties[pos] for pos in chosen)
            penalties[b] = total

        if self.n_slots:
            masked = np.where(
                chosen_cols[:, self.opt_col], self.opt_cost, np.inf
            )
            winners = np.minimum.reduceat(masked, self.slot_starts, axis=1)
            winners = np.concatenate(
                [winners, np.zeros((n_batch, 1))], axis=1
            )
        else:
            winners = np.zeros((n_batch, 1), dtype=np.float64)

        acc = np.broadcast_to(
            self.plan_internal, (n_batch, self.plan_internal.shape[0])
        ).copy()
        for k in range(self.plan_idx.shape[1]):
            acc += winners[:, self.plan_idx[:, k]]
        if self.plan_starts.size:
            best = np.minimum.reduceat(acc, self.plan_starts, axis=1)
            if not np.isfinite(best).all():
                raise RuntimeError("BIP has an infeasible query term")
            totals = penalties
            for q in range(self.plan_starts.size):
                totals += self.weights[q] * best[:, q]
        else:
            totals = penalties
        return totals.tolist()

    def used_positions(self, chosen_positions):
        """The members of *chosen_positions*, in the order given, that
        the argmin witness of :meth:`evaluate` reads: per query the
        first cheapest plan, per slot of that plan the first cheapest
        applicable option (numpy first-min == the scalar walk's
        first-strict-less win)."""
        chosen = list(chosen_positions)
        if not chosen or not self.n_slots or not self.plan_starts.size:
            return ()
        state = self.delta_state(chosen)
        mask = np.zeros(self.n_candidates + 1, dtype=bool)
        mask[self.n_candidates] = True  # the default access
        mask[chosen] = True
        masked = np.where(mask[self.opt_col], self.opt_cost, np.inf)
        # Each slot's first option attaining its minimum (flatnonzero is
        # ascending, so unique's first occurrence is the first option).
        hits = np.flatnonzero(masked == state.winners[self.opt_slot])
        slots, first = np.unique(self.opt_slot[hits], return_index=True)
        slot_col = np.full(self.n_slots + 1, self.n_candidates, dtype=np.intp)
        slot_col[slots] = self.opt_col[hits[first]]
        pad = self._query_plan_pad()
        plans = pad[np.arange(pad.shape[0]), state.acc[pad].argmin(axis=1)]
        used = set(slot_col[self.plan_idx[plans]].ravel().tolist())
        return tuple(pos for pos in chosen if pos in used)

    # -- delta (seminaïve) evaluation ----------------------------------

    def delta_state(self, chosen):
        """Capture (or fetch the memoized) parent state for the chosen
        position list.  ``chosen`` must be the *same list, in the same
        order,* the full path would prepend to each extension — the
        penalty accumulation below replays ``set(chosen + [pos])``
        iteration, which depends on insertion history."""
        chosen = list(chosen)
        key = tuple(chosen)
        if self._delta_state is not None:
            prev_key, prev = self._delta_state
            if prev_key == key:
                return prev
            if key[:-1] == prev_key:
                # The sweep shape: this parent extends the previous one
                # by exactly its chosen winner, so the capture itself is
                # a delta — the scatter/re-sum below reproduces the full
                # capture bit-for-bit (min decomposes exactly, untouched
                # plans re-sum the very same values).
                state = self._extend_state(prev, chosen)
                self._delta_state = (key, state)
                return state
        if self.n_slots:
            mask = np.zeros(self.n_candidates + 1, dtype=bool)
            mask[self.n_candidates] = True
            for pos in set(chosen):
                mask[pos] = True
            masked = np.where(mask[self.opt_col], self.opt_cost, np.inf)
            winners = np.minimum.reduceat(masked, self.slot_starts)
            winners = np.append(winners, 0.0)
        else:
            winners = np.zeros(1, dtype=np.float64)
        acc = self.plan_internal.copy()
        for k in range(self.plan_idx.shape[1]):
            acc += winners[self.plan_idx[:, k]]
        if self.plan_starts.size:
            best = np.minimum.reduceat(acc, self.plan_starts)
            if not np.isfinite(best).all():
                raise RuntimeError("BIP has an infeasible query term")
        else:
            best = np.empty(0, dtype=np.float64)
        state = BipDeltaState(chosen, winners, acc, best)
        self._delta_state = (key, state)
        return state

    def _extend_state(self, parent, chosen):
        """The capture for ``parent.chosen + [pos]`` derived from the
        parent's arrays: winner scatter on the position's slots, re-sum
        of its touched plans, full-row re-min (identical values on
        untouched segments)."""
        info = self._pos_delta(chosen[-1])
        if info is None:
            return BipDeltaState(
                chosen, parent.winners, parent.acc, parent.best
            )
        winners = parent.winners.copy()
        winners[info.slots] = np.minimum(
            winners[info.slots], info.static_min
        )
        acc = parent.acc.copy()
        vals = self.plan_internal[info.touched].copy()
        for k in range(self.plan_idx.shape[1]):
            vals += winners[self.plan_idx[info.touched, k]]
        acc[info.touched] = vals
        if self.plan_starts.size:
            best = np.minimum.reduceat(acc, self.plan_starts)
            if not np.isfinite(best).all():
                raise RuntimeError("BIP has an infeasible query term")
        else:
            best = parent.best
        return BipDeltaState(chosen, winners, acc, best)

    def evaluate_delta(self, state, positions):
        """Objectives of ``state.chosen + [pos]`` for each extension
        position, equal bit-for-bit to
        ``evaluate([state.chosen + [pos] for pos in positions])``: the
        child's slot winners are ``min(parent winner, the position's
        own option minima)`` (min is exact, so decomposing it is free),
        only plans referencing improved slots are re-summed, and only
        their queries re-minimized over the parent's accumulations."""
        positions = list(positions)
        n_batch = len(positions)
        if not n_batch:
            return []
        n_queries = self.plan_starts.size
        penalties = np.empty(n_batch, dtype=np.float64)
        if self.index_penalties:
            for b, pos in enumerate(positions):
                chosen = set(state.chosen)
                chosen.add(pos)
                # Scalar-identical base: same expression, same set
                # iteration (the insertion history of
                # ``set(state.chosen + [pos])``).
                penalties[b] = self.write_base_cost + sum(
                    self.index_penalties[p] for p in chosen
                )
        else:
            penalties.fill(self.write_base_cost)
        if not n_queries:
            return penalties.tolist()
        bfp = self._batch_footprint(tuple(positions))
        if bfp is not None:
            # Child slot winners = min(parent winner, the position's own
            # static option minima) — min decomposes exactly, so one
            # scatter onto the tiled parent row prices every child.
            winners = np.broadcast_to(
                state.winners, (n_batch, state.winners.size)
            ).copy()
            winners[bfp.rows, bfp.cols] = np.minimum(
                state.winners[bfp.cols], bfp.svals
            )
            # Only the footprint plans re-sum (same gathered-add order as
            # the capture); every other plan keeps the parent value, so a
            # full-row min reproduces state.best bit-for-bit there.
            acc = np.broadcast_to(state.acc, (n_batch, state.acc.size)).copy()
            vals = bfp.internal.copy()
            for gathered in bfp.pidx_k:
                vals += winners[bfp.prow, gathered]
            acc[bfp.prow, bfp.pcol] = vals
            # Per-query minima via one padded gather + min: the pad
            # repeats each query's first plan, and min(x, x) = x, so
            # this equals the segmented reduceat value for value.
            best = acc[:, self._query_plan_pad()].min(axis=2)
            if not np.isfinite(best).all():
                raise RuntimeError("BIP has an infeasible query term")
        else:
            best = np.broadcast_to(state.best, (n_batch, n_queries))
        # The scalar walk's accumulation, batched: products first (each
        # elementwise, exact), then a strictly sequential running sum —
        # ufunc.accumulate has no pairwise regrouping, so every row adds
        # penalty + w0*b0 + w1*b1 + ... in the scalar order.
        running = np.empty((n_batch, n_queries + 1), dtype=np.float64)
        running[:, 0] = penalties
        running[:, 1:] = best * self._weights_row
        return np.add.accumulate(running, axis=1)[:, -1].tolist()

    def _pos_delta(self, pos):
        """Static delta footprint of candidate *pos* (memoized): the
        slots it offers options on with its per-slot option minima
        (option costs are compile-time constants) and the plans
        touching those slots."""
        if pos in self._pos_deltas:
            return self._pos_deltas[pos]
        if self._opt_groups is None:
            # One stable grouping pass instead of a full opt_col scan
            # per position (matters once candidate vectors reach column
            # generation scale); stable argsort keeps each group in
            # ascending option order, exactly what the scan produced.
            order = np.argsort(self.opt_col, kind="stable")
            cols = self.opt_col[order]
            starts = np.nonzero(np.r_[True, cols[1:] != cols[:-1]])[0]
            ends = np.append(starts[1:], cols.size)
            self._opt_groups = {
                int(cols[s]): order[s:e] for s, e in zip(starts, ends)
            }
        info = None
        sel = self._opt_groups.get(pos)
        if sel is None:
            sel = np.empty(0, dtype=np.intp)
        if sel.size:
            slot_of = self.opt_slot[sel]
            firsts = np.nonzero(
                np.r_[True, slot_of[1:] != slot_of[:-1]]
            )[0]
            slots = slot_of[firsts]
            static_min = np.minimum.reduceat(self.opt_cost[sel], firsts)
            touched_set = set()
            for sid in slots.tolist():
                touched_set.update(self._slot_plans.get(sid, ()))
            if touched_set:
                touched = np.asarray(sorted(touched_set), dtype=np.intp)
                info = _BipPosDelta(
                    slots=slots, static_min=static_min, touched=touched
                )
        self._pos_deltas[pos] = info
        return info

    def _batch_footprint(self, key):
        """The batch's concatenated footprint gathers, memoized per
        positions tuple (sweeps re-price the same feasible sets round
        after round): slot scatter targets with their static minima,
        plan scatter targets with pre-gathered slot ids and internal
        costs.  ``None`` when no position in the batch has options."""
        bfp = self._batch_fps.get(key)
        if bfp is None and key not in self._batch_fps:
            if len(self._batch_fps) >= _MAX_TOUCH_GROUPS:
                self._batch_fps.clear()
            fp = self._footprint()
            pos_arr = np.asarray(key, dtype=np.intp)
            rows, idx = _span_gather(
                fp.slot_offsets, fp.slot_sizes, pos_arr
            )
            if idx.size:
                prow, pidx = _span_gather(
                    fp.plan_offsets, fp.plan_sizes, pos_arr
                )
                pcol = fp.flat_plans[pidx]
                bfp = _BipBatchFootprint(
                    rows=rows,
                    cols=fp.flat_slots[idx],
                    svals=fp.flat_static[idx],
                    prow=prow,
                    pcol=pcol,
                    pidx_k=[
                        self.plan_idx[pcol, k]
                        for k in range(self.plan_idx.shape[1])
                    ],
                    internal=self.plan_internal[pcol],
                )
            self._batch_fps[key] = bfp
        return bfp

    def _query_plan_pad(self):
        """(n_queries, max plans per query) plan indices, each query's
        row padded with its own first plan — a rectangular gather whose
        row-min equals the ragged segment min exactly (built once)."""
        pad = self._qplan_pad
        if pad is None:
            counts = self.plan_ends - self.plan_starts
            width = max(int(counts.max()), 1) if counts.size else 1
            pad = np.repeat(
                self.plan_starts[:, None], width, axis=1
            )
            for q in range(self.plan_starts.size):
                span = np.arange(self.plan_starts[q], self.plan_ends[q])
                pad[q, : span.size] = span
            self._qplan_pad = pad
        return pad

    def _footprint(self):
        """Every candidate's static footprint flattened into shared
        arrays (built once): slot ids, option minima, and touched plans
        in candidate order, with per-candidate offset/size vectors so a
        whole batch gathers its footprints without any per-position
        Python."""
        fp = self._fp
        if fp is None:
            slots_l, static_l, plans_l = [], [], []
            slot_sizes = np.zeros(self.n_candidates, dtype=np.intp)
            plan_sizes = np.zeros(self.n_candidates, dtype=np.intp)
            slot_offsets = np.zeros(self.n_candidates, dtype=np.intp)
            plan_offsets = np.zeros(self.n_candidates, dtype=np.intp)
            so = po = 0
            for pos in range(self.n_candidates):
                info = self._pos_delta(pos)
                slot_offsets[pos] = so
                plan_offsets[pos] = po
                if info is None:
                    continue
                slots_l.append(info.slots)
                static_l.append(info.static_min)
                plans_l.append(info.touched)
                slot_sizes[pos] = info.slots.size
                plan_sizes[pos] = info.touched.size
                so += info.slots.size
                po += info.touched.size
            empty_i = np.empty(0, dtype=np.intp)
            fp = _BipFootprint(
                flat_slots=(
                    np.concatenate(slots_l) if slots_l else empty_i
                ),
                flat_static=(
                    np.concatenate(static_l)
                    if static_l else np.empty(0, dtype=np.float64)
                ),
                flat_plans=(
                    np.concatenate(plans_l) if plans_l else empty_i
                ),
                slot_sizes=slot_sizes,
                slot_offsets=slot_offsets,
                plan_sizes=plan_sizes,
                plan_offsets=plan_offsets,
            )
            self._fp = fp
        return fp


class BipDeltaState:
    """One parent candidate set's fully-priced BIP state: the chosen
    position list (order matters — see :meth:`BipKernel.delta_state`),
    the per-slot winner row (sentinel 0.0 last), the per-plan
    accumulations, and the per-query minima."""

    __slots__ = ("chosen", "winners", "acc", "best")

    def __init__(self, chosen, winners, acc, best):
        self.chosen = chosen
        self.winners = winners
        self.acc = acc
        self.best = best


class _BipPosDelta:
    """Per-candidate static footprint for :meth:`BipKernel.evaluate_delta`."""

    __slots__ = ("slots", "static_min", "touched")

    def __init__(self, slots, static_min, touched):
        self.slots = slots
        self.static_min = static_min
        self.touched = touched


class _BipBatchFootprint:
    """One batch's concatenated footprint gathers (static per positions
    tuple) for :meth:`BipKernel.evaluate_delta`."""

    __slots__ = ("rows", "cols", "svals", "prow", "pcol", "pidx_k",
                 "internal")

    def __init__(self, rows, cols, svals, prow, pcol, pidx_k, internal):
        self.rows = rows
        self.cols = cols
        self.svals = svals
        self.prow = prow
        self.pcol = pcol
        self.pidx_k = pidx_k
        self.internal = internal


class _BipFootprint:
    """All candidates' footprints flattened for batched span gathers."""

    __slots__ = (
        "flat_slots", "flat_static", "flat_plans",
        "slot_sizes", "slot_offsets", "plan_sizes", "plan_offsets",
    )

    def __init__(self, flat_slots, flat_static, flat_plans, slot_sizes,
                 slot_offsets, plan_sizes, plan_offsets):
        self.flat_slots = flat_slots
        self.flat_static = flat_static
        self.flat_plans = flat_plans
        self.slot_sizes = slot_sizes
        self.slot_offsets = slot_offsets
        self.plan_sizes = plan_sizes
        self.plan_offsets = plan_offsets


def _span_gather(offsets, sizes, pos_arr):
    """(rows, flat indices) covering each position's span in flattened
    footprint arrays: row b repeats ``sizes[pos_arr[b]]`` times, the
    indices walk ``offsets[pos_arr[b]] + 0..size-1`` — the whole batch
    in three vector ops."""
    counts = sizes[pos_arr]
    total = int(counts.sum())
    if not total:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    rows = np.repeat(np.arange(pos_arr.size, dtype=np.intp), counts)
    out_starts = np.cumsum(counts) - counts
    idx = np.repeat(offsets[pos_arr] - out_starts, counts)
    idx += np.arange(total, dtype=np.intp)
    return rows, idx
