"""The WorkloadEvaluator: the one cost model of the designer.

The paper's headline claim is that INUM-style plan caching makes what-if
evaluation cheap enough to explore thousands of configurations
interactively.  Every designer component — the what-if session, CoPhy,
AutoPart, the interaction analyzer and COLT — takes one
:class:`WorkloadEvaluator` and reads the catalog and planner settings
off it.  It holds:

* one **shared cache pool** (:class:`~repro.evaluation.pool.InumCachePool`)
  keyed by bound statement text, so components share INUM plan caches
  instead of rebuilding them, with LRU bounding and exact hit/miss
  statistics;

* the **per-call walk**: :meth:`WorkloadEvaluator.cost` prices one
  statement under one design over
  :func:`~repro.inum.cache.evaluate_terms`, each slot through the one
  slot memo (:meth:`WorkloadEvaluator.slot_choice`) — the independent
  scalar reference the tests pin every batch against bit for bit;

* a **vectorized evaluate phase**, one implementation per job on the
  columnar plan-term kernel (:mod:`repro.evaluation.kernel`):
  :meth:`WorkloadEvaluator.evaluate_configurations` prices the whole
  workload × configuration grid (statement kernels compiled from the
  pool's entries, fused into flat numpy arrays, slot costs resolved
  once per distinct per-table design), and
  :meth:`WorkloadEvaluator.evaluate_deltas` prices a batch as deltas
  off a captured parent.  Which strategy runs is decided by the job,
  never by a caller's flag;

* the **exact-optimizer path** the what-if session needs: a per
  configuration :class:`~repro.optimizer.CostService` cache
  (:meth:`exact_service`), so "precise but slow" and "cached and fast"
  costing share one backplane and one accounting surface.
"""

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.obs.catalogue import (
    EVALUATE_BATCHES, EVALUATE_CELLS, EVALUATE_SECONDS, RECOMMEND_MEMO,
    SPAN_EVALUATE_BATCH, SPAN_EVALUATE_DELTAS, SPAN_EVALUATOR_WARM_UP)
from repro.evaluation import memos
from repro.evaluation.pool import InumCachePool
from repro.inum.cache import (
    _UNPRICED,
    QueryCache,
    _access_cost,
    _DesignView,
    _slot_key,
    build_cache,
    evaluate_terms,
)
from repro.optimizer import CostService
from repro.optimizer.settings import DEFAULT_SETTINGS
from repro.optimizer.writecost import (
    heap_write_cost,
    locate_query,
    maintenance_cost,
)
from repro.sql.binder import BoundWrite, bind_statement
from repro.util import workload_pairs
from repro.whatif import Configuration

__all__ = ["BatchEvaluation", "Lattice", "WorkloadEvaluator"]


@dataclass
class BatchEvaluation:
    """Costs of a workload under a batch of designs: a list of
    configurations, or a :class:`Lattice`."""

    configurations: object  # the configurations, or the Lattice
    weights: list  # one weight per workload statement
    # matrix[c][s]: unweighted cost of statement s under configuration c;
    # None for a lattice, whose chunks' matrices are dropped once summed.
    matrix: list
    # Weighted workload cost per design, accumulated left to right onto
    # 0.0 exactly like WorkloadEvaluator.workload_cost (_totals).
    totals: list


class Lattice:
    """Index-only designs named by bitmask over one index tuple: design
    ``d`` holds ``indexes[i]`` iff bit ``i`` of ``masks[d]`` is set.
    Masks are int64 up to 62 indexes and Python ints (an object array)
    beyond — :meth:`bits` gives the one-bit masks in that type.  The
    evaluator prices a lattice without building a configuration or a
    design view per design: each mask is projected onto each table's
    indexes, and a design view is built per distinct projection only
    when its cost column is resolved."""

    __slots__ = ("indexes", "masks")

    def __init__(self, indexes, masks):
        self.indexes = tuple(indexes)
        self.masks = np.asarray(masks, dtype=self.bits(len(indexes)).dtype)

    @staticmethod
    def bits(n):
        """``1 << i`` for each of *n* indexes, in the mask type."""
        return np.asarray([1 << i for i in range(n)],
                          dtype=np.int64 if n < 63 else object)

    def __len__(self):
        return len(self.masks)


def _totals(costs, weights):
    """Weighted totals of a ``designs × positions`` cost matrix: products
    first (each elementwise, exact), then a strictly sequential running
    sum onto 0.0 — ``np.cumsum`` has no pairwise regrouping, so every
    row adds ``0.0 + w0*c0 + w1*c1 + ...`` in :meth:`WorkloadEvaluator.
    workload_cost`'s order (builtin ``sum`` is compensated from CPython
    3.12 on, and AutoPart's accept/reject decisions compare totals)."""
    running = np.zeros((costs.shape[0], costs.shape[1] + 1))
    np.multiply(costs, weights, out=running[:, 1:])
    return np.cumsum(running, axis=1)[:, -1]


@dataclass
class _KernelWorkload:
    """A workload compiled onto the columnar kernel: per position its
    weight, its write statement (``None`` for a read) and the index of
    its read block inside the fused
    :class:`~repro.evaluation.kernel.WorkloadKernel` — a write's is its
    locate query's (``None`` for an INSERT)."""

    positions: list = field(default_factory=list)  # (weight, sql, write, read)
    kernel: object = None  # WorkloadKernel
    reads: frozenset = frozenset()  # pool keys (texts) of the fused reads
    tables: tuple = ()  # the kernel's tables and the written ones, sorted
    read_at: object = None  # np.intp: the positions that read the grid
    read_of: object = None  # np.intp: the read index of each of those


class WorkloadEvaluator:
    """The INUM cost model over one catalog: per-call and batched
    evaluation on a shared cache pool, plus exact what-if services.

    ``pool`` has one owner: a second evaluator on it is a ``ValueError``.
    Every memo this object reaches is a row of :mod:`repro.evaluation.memos`.
    """

    def __init__(self, catalog, settings=None, pool=None):
        self.catalog = catalog
        self.settings = settings or DEFAULT_SETTINGS
        self._slot_memo = {}
        # One object per index set and winner tuple the memos hold.
        self._shared = {}
        self.pool = pool if pool is not None else InumCachePool()
        self.pool.attach(self)
        # The three LRUs are plain dicts in recency order: a walk over
        # one hashes no key, where an OrderedDict's re-hashes each.
        self._compiled = {}  # workload key -> _KernelWorkload
        self._exact_services = {}  # Configuration -> CostService
        # The pinned empty-design CostService; its statement records
        # are this model's, and every exact service shares them.
        self._base_service = CostService(catalog, self.settings)
        self._recommendations = {}
        # Guards the memos.  Shipped code drives an evaluator from one
        # thread (the scheduler's, or a runner connection's); the lock
        # keeps them exact for a library caller pricing from several
        # threads at once.
        self._lock = threading.RLock()
        # (registry, {mode: bound metric handles}), rebuilt when the
        # active registry changes: per-batch telemetry is three calls.
        self._obs_handles = (None, {})

    # ------------------------------------------------------------------
    # Binding and the per-call walk.
    # ------------------------------------------------------------------

    def bound(self, query):
        """One bound statement per text, the exact services' too."""
        return self._base_service.bound(query)

    def known_bound(self, sql):
        """:meth:`bound` for *sql* as a lookup that never inserts: the
        statement this model bound, or a fresh binding it does not
        remember (text it never asked for plants nothing)."""
        record = self._base_service.statements.get(sql)
        if record is None or record.bound is None:
            return bind_statement(sql, self.catalog)
        return record.bound

    def cost(self, query, config=None):
        """INUM cost of *query* under *config* (no optimizer calls)."""
        config = config or Configuration.empty()
        view = _DesignView(self.catalog, config)
        bq = self.bound(query)
        if isinstance(bq, BoundWrite):
            return self._write_cost(bq, view, config)
        return self._evaluate(self.cache_for(bq), view)

    def workload_cost(self, workload, config=None):
        config = config or Configuration.empty()
        view = _DesignView(self.catalog, config)
        total = 0.0
        for query, weight in workload_pairs(workload):
            bq = self.bound(query)
            if isinstance(bq, BoundWrite):
                total += weight * self._write_cost(bq, view, config)
            else:
                total += weight * self._evaluate(self.cache_for(bq), view)
        return total

    def _write_cost(self, bound_write, view, config):
        """Write statements: analytic maintenance + INUM-priced locate."""
        total = heap_write_cost(bound_write, self.settings)
        total += maintenance_cost(
            bound_write,
            view.indexes_on(bound_write.table.name),
            self.settings,
        )
        if bound_write.kind in ("update", "delete"):
            locate = locate_query(bound_write)
            total += self._evaluate(self.cache_for(locate), view)
        return total

    def slot_choice(self, bq, slot, view, design_signature=None):
        """Memoized winning access of *slot* under *view*: ``(cost,
        winner index tuple)``, or ``None`` for an infeasible slot — the
        one priced fact about a slot; its cost and its witness are the
        two halves.

        Keyed by what the access reads of the per-table design
        (:func:`~repro.inum.cache._slot_key`), so designs whose indexes
        reach the slot alike and layouts whose covers weigh the same
        share an entry.  ``design_signature`` may be passed to avoid
        recomputing it in batched loops.  It calls the same pure
        :func:`~repro.inum.cache._access_cost` the serial usage walk
        calls, so a memoized entry cannot drift from the reference.
        """
        if design_signature is None:
            design_signature = view.design_signature(slot.table_name)
        bucket = self.slot_bucket(bq)
        key = _slot_key(bq, slot, view, design_signature, self._shared)
        choice = bucket.get(key, _UNPRICED)
        if choice is _UNPRICED:
            choice = bucket[key] = self._shared_choice(
                _access_cost(slot, bq, view, self.settings))
        return choice

    def _shared_choice(self, choice):
        """A winner ``(cost, witness)`` with its witness the sharing
        table's tuple (row ``SHARED``); ``None``, an infeasible slot, as
        is.  Threads racing on one value may keep equal copies, never an
        unequal one."""
        if choice is None:
            return None
        witness = choice[1]
        return choice[0], self._shared.setdefault(witness, witness)

    def slot_cost(self, bq, slot, view):
        """The cost half of :meth:`slot_choice` (``None``: infeasible)."""
        choice = self.slot_choice(bq, slot, view)
        return None if choice is None else choice[0]

    def slot_bucket(self, bq):
        """*bq*'s shard of the slot memo, ``{_slot_key(...): choice}`` —
        for pricers that fill the same entries :meth:`slot_choice` would,
        by a cheaper route (``cophy.bip.CandidatePricer``)."""
        bucket = self._slot_memo.get(bq.sql)
        if bucket is None:
            bucket = self._slot_memo.setdefault(bq.sql, {})
        return bucket

    def _evaluate(self, cache, view):
        """Price a cache entry under *view* from its plan terms alone.

        Consumes ``(internal_cost, slots)`` pairs — never live plan
        trees — so an entry deserialized from the wire format evaluates
        exactly like one built in-process.  A slot's choice is the
        ``(cost, payload)`` pair the walk consumes.
        """
        return evaluate_terms(cache, partial(self.slot_choice, view=view))[0]

    def cost_with_usage(self, query, config=None):
        """Like :meth:`cost` but also returns the set of configuration
        indexes the winning cached plan's access slots would use.

        For writes, "used" means maintained: the configuration indexes
        whose presence changes the statement's cost.
        """
        config = config or Configuration.empty()
        view = _DesignView(self.catalog, config)
        maybe_write = self.bound(query)
        if isinstance(maybe_write, BoundWrite):
            # The indexes a write maintains, plus its locate query's.
            cost = self._write_cost(maybe_write, view, config)
            used = frozenset(
                ix for ix in config.indexes if maybe_write.touches_index(ix)
            )
            if maybe_write.kind in ("update", "delete"):
                __, locate_used = self.cost_with_usage(
                    locate_query(maybe_write), config
                )
                used |= locate_used
            return cost, used
        cache = self.cache_for(maybe_write)

        def price(bq, slot):
            # Pure and unmemoized: this walk is the reference the
            # slot memo is pinned against.
            return _access_cost(slot, bq, view, self.settings)

        best, winner_lists = evaluate_terms(cache, price)
        best_used = frozenset(
            index
            for winners in winner_lists
            for index in winners
            if index in config.indexes
        )
        return best, best_used

    def workload_cost_with_usage(self, workload, config=None):
        """Workload cost plus the union of used configuration indexes."""
        config = config or Configuration.empty()
        total = 0.0
        used = set()
        for query, weight in workload_pairs(workload):
            cost, q_used = self.cost_with_usage(query, config)
            total += weight * cost
            used |= q_used
        return total, frozenset(used)

    # ------------------------------------------------------------------
    # Pool-backed cache management.
    # ------------------------------------------------------------------

    def cache_for(self, query):
        """*query*'s pool entry, filed under its bound text ``bq.sql``
        (the ``STATEMENTS`` key): built or decoded on a miss."""
        bq = self.bound(query)
        # An eviction inside calls _forget.
        return self.pool.get_or_build(bq.sql, lambda: self._entry(bq))

    def _entry(self, bq):
        """The pool entry for *bq*, which the pool does not hold: decoded
        from the statement's remembered plan terms when the optimizer has
        already answered it (on this evaluator or on a runner of its
        fleet), planned — once per statement — otherwise."""
        plans = self._base_service.statement(bq.sql).terms
        if plans is None:
            cache = build_cache(bq, self.catalog, self.settings)
            self.remember_terms(cache)
            return cache
        return QueryCache.from_plan_terms(bq, plans)

    def remember_terms(self, cache):
        """Keep *cache*'s plan terms for its statement text, so a later
        miss on it is a decode: the one ``build_cache`` call records
        here, and so does a fleet backplane for every entry a runner
        returns."""
        record = self._base_service.statement(cache.bound_query.sql)
        record.terms = tuple(cache.plans)

    def knows_terms(self, bq):
        """Whether a pool miss on *bq* would be decoded, not planned —
        what a fleet backplane asks before shipping a build."""
        record = self._base_service.statements.get(bq.sql)
        return record is not None and record.terms is not None

    def _forget(self, sql, cache):
        """Drop what the memo table derives from the pool entry filed
        under *sql*, which left (the rows :data:`~repro.evaluation.memos.
        EVICT` lists), so a bounded pool bounds the memos too.  Called by
        the pool with its lock held; pool → evaluator is the one
        sanctioned lock order."""
        with self._lock:
            self._drop(memos.EVICT, [(sql, cache)])

    def _release(self, entries):
        """Drop what the memo table derives from each ``(sql, cache)``
        pool entry that no resident compiled workload reads (the rows
        :data:`~repro.evaluation.memos.COLD` lists).  The entry and the
        statement's record stay: a statement that comes back is
        re-derived from them, never rebuilt.  Called by
        :meth:`InumCachePool.release` with its lock held."""
        with self._lock:
            reads = [c.reads for c in self._compiled.values()]
            cold = [(sql, cache) for sql, cache in entries
                    if not any(sql in hot for hot in reads)]
            self._drop(memos.COLD, cold)

    def _drop(self, hook, entries):
        """Walk *hook*'s rows over the ``(sql, cache)`` pool entries'
        statements.  Callers hold our lock."""
        if not entries:
            return
        texts = {sql for sql, __ in entries}
        bound = [cache.bound_query for __, cache in entries]
        for row in memos.rows(hook):
            for owner in row.owners(self, bound):
                row.forget(getattr(owner, row.attr), texts)

    def warm_targets(self, workload):
        """The deduplicated statements a warm-up must build, as
        ``(bound_query, source_sql, locate)`` triples.

        Write statements contribute their locate query (pure inserts
        contribute nothing); ``source_sql`` is the statement's original
        parseable text and ``locate`` marks the rewrite — what a fleet
        backplane ships to its runners, since locate SQL itself is
        synthetic.  Shared by the in-process and fleet warm-up paths so
        their pinned equivalence cannot drift.

        Dedup is by bound text, the pool key: a statement named twice
        is shipped and built once.
        """
        targets, seen = [], set()
        for query, __ in workload_pairs(workload):
            bq = self.bound(query)
            source, locate = bq.sql, False
            if isinstance(bq, BoundWrite):
                if bq.kind not in ("update", "delete"):
                    continue
                locate = True
                bq = self.bound(locate_query(bq))
            if bq.sql not in seen:
                seen.add(bq.sql)
                targets.append((bq, source, locate))
        return targets

    def warm_up(self, workload):
        """Pre-build the INUM caches for every workload statement.

        Returns the optimizer calls spent (the pool's counter delta);
        write statements warm their locate query.  To spread the builds
        over processes or machines, warm through a
        :class:`~repro.net.FleetBackplane`.
        """
        before = self.precompute_calls
        targets = [bq for bq, __, __ in self.warm_targets(workload)]
        with obs.tracer().span(SPAN_EVALUATOR_WARM_UP,
                               statements=len(targets)):
            for bq in targets:
                self.cache_for(bq)
        return self.precompute_calls - before

    @property
    def precompute_calls(self):
        return self.pool.stats.optimizer_calls

    def recommendation(self, key, compute):
        """``compute()`` for the ``Designer.recommend`` arguments *key*,
        or the object an earlier identical call on this backplane got
        (shared read-only).  Computed outside the lock: two threads
        racing on one key both compute the same thing."""
        with self._lock:
            found = self._recommendations.pop(key, None)
            if found is None:
                result = "miss"
            else:
                result = "hit"
                self._recommendations[key] = found
        obs.metrics().family(RECOMMEND_MEMO).labels(
            result=result).inc()
        if found is None:
            found = compute()
            with self._lock:
                memos.RECOMMENDATIONS.store(self._recommendations, key, found)
        return found

    # ------------------------------------------------------------------
    # Batched (vectorized) evaluation.
    # ------------------------------------------------------------------

    def _compile(self, workload):
        """Flatten a workload into plan terms over deduplicated slots:
        statement kernels fused over a global slot table, priced by
        numpy reductions; memoized (``memos.COMPILED``), so repeated
        sweeps — the interaction analyzer prices one batch per index
        pair — skip straight to the evaluate phase.
        """
        # Materialize once: workloads may be one-shot iterators, and the
        # memo key must be derived from the same pass that compiles.
        pairs = [(self.bound(q), w) for q, w in workload_pairs(workload)]
        key = tuple((bq.sql, w) for bq, w in pairs)
        with self._lock:
            compiled = self._compiled.pop(key, None)
            if compiled is not None:
                self._compiled[key] = compiled
                return compiled
        # Build outside the lock (compilation may issue optimizer calls
        # through the pool); concurrent builders of the same workload
        # each produce an equivalent object and the last insert wins.
        compiled = self._compile_fresh(pairs)
        left = ()
        with self._lock:
            # An entry evicted mid-build must not resurrect a workload
            # _forget already swept (this call may still use it).
            if all(sql in self.pool for sql in compiled.reads):
                left = memos.COMPILED.store(self._compiled, key, compiled)
        if left:
            # What only the workloads that left read leaves the working
            # set; the pool takes our lock inside (pool → evaluator).
            self.pool.release(frozenset().union(*(c.reads for c in left)))
        return compiled

    def _compile_fresh(self, pairs):
        """Compile a workload onto the columnar kernel: a statement
        kernel per read, compiled from its pool entry, fuses into one
        :class:`~repro.evaluation.kernel.WorkloadKernel` over a global
        slot table, which keeps its terms and not the kernel."""
        from repro.evaluation.kernel import WorkloadKernel, compile_statement

        fused = WorkloadKernel()
        compiled = _KernelWorkload(kernel=fused)

        def fuse(bq):
            cache = self.cache_for(bq)
            read = fused.reads.get(bq.sql)  # a statement named twice
            if read is None:
                stmt_kernel = self.pool.kernel_for(bq.sql)
                if stmt_kernel is None:  # evicted since: compile inline
                    stmt_kernel = compile_statement(cache)
                read = fused.add_statement(stmt_kernel)
            return read

        for bq, weight in pairs:
            if not isinstance(bq, BoundWrite):
                compiled.positions.append((weight, bq.sql, None, fuse(bq)))
                continue
            # A write's locate query is an ordinary read of the grid.
            read = None
            if bq.kind in ("update", "delete"):
                read = fuse(locate_query(bq))
            compiled.positions.append((weight, bq.sql, bq, read))
        fused.seal()
        compiled.reads = frozenset(fused.reads)
        compiled.tables = tuple(sorted(set(fused.tables).union(
            write.table.name for __, __, write, __ in compiled.positions
            if write is not None)))
        at = [s for s, position in enumerate(compiled.positions)
              if position[3] is not None]
        compiled.read_at = np.asarray(at, dtype=np.intp)
        compiled.read_of = np.asarray(
            [compiled.positions[s][3] for s in at], dtype=np.intp)
        return compiled

    def evaluate_many(self, workload, configurations):
        """Price the whole workload × design grid on the columnar
        kernel: the in-process consumers' (AutoPart reports, the
        interaction analyzer's lattices) name for
        :meth:`evaluate_configurations`, the name every backplane
        shares, which it delegates to."""
        return self.evaluate_configurations(workload, configurations)

    def _designs(self, compiled, configurations):
        """*configurations* — a list, or a :class:`Lattice` — as the
        per-table signature ids of a
        :class:`~repro.evaluation.kernel.Designs` over the compiled
        workload's tables, each index set the sharing table's object:
        the kernel's column and delta-state keys hold that one object,
        not a copy each."""
        from repro.evaluation.kernel import Designs

        shared = self._shared
        empty = (shared.setdefault(frozenset(), frozenset()), None, None)
        views = {}  # (table, signature) -> a design view holding it
        signatures, ids = {}, {}
        if isinstance(configurations, Lattice):
            indexes, masks = configurations.indexes, configurations.masks
            by_table = {}
            for i, ix in enumerate(indexes):
                by_table.setdefault(ix.table_name, []).append(i)
            for table in compiled.tables:
                on_table = by_table.get(table)
                if on_table is None:  # every design is the empty one here
                    signatures[table] = [empty]
                    ids[table] = np.zeros(len(masks), dtype=np.intp)
                    continue
                keys, ids[table] = np.unique(
                    masks & sum(1 << i for i in on_table), return_inverse=True)
                signatures[table] = []
                for key in keys.tolist():
                    subset = frozenset(
                        indexes[i] for i in on_table if key >> i & 1)
                    signatures[table].append(
                        (shared.setdefault(subset, subset), None, None))
        else:
            distinct = {table: {} for table in compiled.tables}
            for config in configurations:
                view = _DesignView(self.catalog, config)
                for table, row in distinct.items():
                    indexes, layout, horizontal = view.design_signature(table)
                    sig = (shared.setdefault(indexes, indexes), layout,
                           horizontal)
                    views.setdefault((table, sig), view)
                    ids.setdefault(table, []).append(
                        row.setdefault(sig, len(row)))
            signatures = {table: list(row) for table, row in distinct.items()}
            ids = {table: np.asarray(ids.get(table, ()), dtype=np.intp)
                   for table in distinct}

        def view(table, signature):
            found = views.get((table, signature))
            if found is None:
                found = views[table, signature] = _DesignView(
                    self.catalog, Configuration(indexes=signature[0]))
            return found

        return Designs(signatures, ids, empty, view, len(configurations))

    @contextmanager
    def _batch_seam(self, span, mode, workload, configurations):
        """What the two batch seams share, stated once so they cannot
        time different things: the span and the latency timer open
        *before* the workload compiles (a cold call's ``pool.build``
        spans are children of the seam's span, and ``mode`` latencies
        compare), the telemetry closes them.
        Yields ``(compiled, configurations, designs)``, a ``None``
        configuration replaced by the empty one."""
        if not isinstance(configurations, Lattice):
            configurations = [c or Configuration.empty()
                              for c in configurations]
        with obs.tracer().span(span, configurations=len(configurations)):
            t0 = time.perf_counter()
            compiled = self._compile(workload)
            designs = self._designs(compiled, configurations)
            yield compiled, configurations, designs
            self._observe_batch(mode, time.perf_counter() - t0,
                                len(compiled.positions), designs.size)

    def _assemble_batch(self, compiled, configurations, designs, chunks):
        """Fold the kernel's read grid plus write costs into a
        :class:`BatchEvaluation` (shared by the full and delta paths),
        chunk by chunk: *chunks* yields ``(start, stop, reads)``, the
        read minima of designs ``start:stop``.  Only the totals of a
        lattice are kept.

        A write costs what :meth:`_write_cost` adds up, in its order:
        heap, plus maintenance — once per distinct design of the
        written table — plus its locate query's grid row."""
        positions = compiled.positions
        weights = [weight for weight, __, __, __ in positions]
        writes = {}  # write position -> (table, heap, maintenance per design)
        for s, (__, __, write, __) in enumerate(positions):
            if write is not None:
                table = write.table.name
                writes[s] = table, heap_write_cost(write, self.settings), \
                    np.asarray([maintenance_cost(
                        write, designs.view(table, sig).indexes_on(table),
                        self.settings) for sig in designs.signatures[table]])
        keep = not isinstance(configurations, Lattice)
        totals, rows = [], []
        for start, stop, reads in chunks:
            out = np.zeros((stop - start, len(positions)))
            out[:, compiled.read_at] = reads[compiled.read_of].T
            for s, (table, heap, maintenance) in writes.items():
                # The walk's order: locate + (heap + maintenance).
                out[:, s] += heap + maintenance[designs.ids[table][start:stop]]
            totals.append(_totals(out, weights))
            if keep:
                rows.append(out)
        # ndarray.tolist() yields the exact same Python floats the
        # per-call walk produces — float64 round-trips losslessly.
        return BatchEvaluation(
            configurations=configurations,
            weights=weights,
            matrix=[row for out in rows for row in out.tolist()]
            if keep else None,
            totals=[total for chunk in totals for total in chunk.tolist()],
        )

    def _observe_batch(self, mode, elapsed, statements, configurations):
        """One batched evaluate call's telemetry: latency histogram plus
        batch/cell counters, all labeled by pricing mode.  Bound handles
        are cached per (registry, mode) so the steady-state cost is three
        method calls; the cache keys on registry identity so a swap via
        ``obs.reset()`` (a forked worker's fresh registry) takes effect
        immediately."""
        registry = obs.metrics()
        cached_registry, by_mode = self._obs_handles
        if cached_registry is not registry:
            by_mode = {}
            self._obs_handles = (registry, by_mode)
        handles = by_mode.get(mode)
        if handles is None:
            handles = (
                registry.family(EVALUATE_BATCHES).labels(mode=mode),
                registry.family(EVALUATE_CELLS).labels(mode=mode),
                registry.family(EVALUATE_SECONDS).labels(mode=mode),
            )
            by_mode[mode] = handles
        batches, cells, seconds = handles
        batches.inc()
        cells.inc(statements * configurations)
        seconds.observe(elapsed)

    def evaluate_deltas(self, workload, parent, configurations):
        """Price *configurations* as single-design deltas off *parent*.

        The seminaïve seam greedy rounds, COLT epoch scoring, AutoPart
        merge rounds and the interaction analyzer route through: the
        parent's resolved grid state is captured once per call, and
        each child re-resolves only slots on tables whose design
        differs from the parent's — O(delta) per child instead of
        O(grid).  A :class:`Lattice` has no parent state worth
        capturing — its designs are every subset of an index set, one
        chunked grid pass prices them — so it is handed to
        :meth:`evaluate_many`.  Results are bit-identical to
        :meth:`evaluate_configurations` on the same arguments, which
        the equivalence suite pins exactly.
        """
        if isinstance(configurations, Lattice):
            return self.evaluate_many(workload, configurations)
        with self._batch_seam(
            SPAN_EVALUATE_DELTAS, "delta", workload, configurations
        ) as (compiled, configurations, designs):
            kernel = compiled.kernel
            state = kernel.delta_state(
                self._designs(compiled, [parent or Configuration.empty()]),
                self.slot_choice)
            reads = kernel.evaluate_deltas(state, designs, self.slot_choice)
            return self._assemble_batch(
                compiled, configurations, designs,
                [(0, designs.size, reads)])

    def evaluate_configurations(self, workload, configurations):
        """Price all *configurations* — a list, or a :class:`Lattice` —
        against all of *workload* in one pass.

        The evaluate phase issues zero optimizer calls (beyond cache
        warm-up for statements seen for the first time): each design
        becomes per-table signature ids, one slot cost column is
        resolved per distinct per-table design on the columnar kernel
        (:mod:`repro.evaluation.kernel`), and each chunk of designs is a
        gathered ``designs × slots`` matrix priced by numpy reductions;
        a write adds its analytic heap and maintenance cost, once per
        design of its table, to its locate query's row.  The kernel
        accumulates in scalar order, so the grid is bit-identical to
        per-call :meth:`cost`, which ``tests/test_kernel.py`` pins
        exactly.  This is the batch seam what-if sweeps, AutoPart
        reports and interaction lattices route through, and the one
        signature every backplane (in-process, process pool, remote)
        shares.
        """
        with self._batch_seam(
            SPAN_EVALUATE_BATCH, "kernel", workload, configurations
        ) as (compiled, configurations, designs):
            return self._assemble_batch(
                compiled, configurations, designs,
                compiled.kernel.evaluate_many(designs, self.slot_choice))

    def workload_costs(self, workload, configurations):
        """Convenience: just the weighted totals, one per configuration."""
        return self.evaluate_configurations(workload, configurations).totals

    # ROADMAP 1(c) retires this name's boundary row in the perf ledger;
    # until then it stays, as the serial walk per configuration.
    def workload_cost_with_usage_batch(self, workload, configurations):
        """:meth:`workload_cost_with_usage` of each configuration."""
        return [
            self.workload_cost_with_usage(workload, config)
            for config in configurations
        ]

    # ------------------------------------------------------------------
    # The exact-optimizer side of the backplane (what-if sessions).
    # ------------------------------------------------------------------

    def exact_service(self, config=None):
        """A :class:`CostService` seeing *config* overlaid on the catalog.

        Services are cached per configuration and share one optimizer
        call counter and the statement records, so the exact and the
        INUM path share one bound query per text and its memos; the
        what-if session borrows them from here, so every component
        draws costs from one place.  Locked past the empty design: the
        LRU mutates on lookup.
        """
        if config is None or config.is_empty:
            return self._base_service
        with self._lock:
            svc = self._exact_services.pop(config, None)
            if svc is not None:
                self._exact_services[config] = svc
                return svc
            svc = self._base_service.with_catalog(config.apply(self.catalog))
            memos.EXACT_SERVICES.store(self._exact_services, config, svc)
            return svc
