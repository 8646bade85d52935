"""The shared INUM cache pool: one build, many consumers.

Every designer component (CoPhy, AutoPart, COLT, the interaction
analyzer, the what-if session) prices configurations against per-query
INUM plan caches.  In the seed each component built its own caches;
the pool makes them a shared, bounded resource keyed by the canonical
query signature, so alias-renamed duplicates and cross-component reuse
hit instead of rebuilding — and so cache memory is bounded under
long-running multi-workload traffic (LRU eviction).

Compiled statement kernels are derived state owned alongside the
entries they derive from, and everything delta evaluation hangs off a
fused workload kernel — captured parent states, per-changed-table-set
touch groups, per-(table, design) column memos — is derived state one
level further down: evicting an entry invalidates the fused kernels
compiled from it, which transitively drops their delta state.  A later
evaluate call recompiles and re-resolves from scratch, bit-identically
(the lifetime tests pin this across evictions).
"""

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs


@dataclass
class PoolStats:
    """Exact counters for cache-pool behavior (tested to the unit)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    optimizer_calls: int = 0  # cumulative build calls, survives eviction

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "optimizer_calls": self.optimizer_calls,
        }

    @property
    def hit_rate(self):
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def copy(self):
        """A detached value copy (merge inputs must not mutate mid-sum)."""
        return PoolStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            optimizer_calls=self.optimizer_calls,
        )

    @classmethod
    def merged(cls, parts):
        """One snapshot summing *parts* — how a sharded pool reports the
        whole: counters add, rates derive from the merged counters."""
        total = cls()
        for part in parts:
            total.hits += part.hits
            total.misses += part.misses
            total.evictions += part.evictions
            total.optimizer_calls += part.optimizer_calls
        return total


class _BuildFlight:
    """One in-progress cache construction: the leader publishes here,
    losers of the build race wait on ``done``."""

    __slots__ = ("done", "cache", "error")

    def __init__(self):
        self.done = threading.Event()
        self.cache = None
        self.error = None


@dataclass
class InumCachePool:
    """LRU-bounded map from canonical query signature to QueryCache.

    ``capacity=None`` means unbounded (the seed's behavior); a positive
    capacity evicts the least-recently-used entry past the limit.

    ``get``/``put`` are internally synchronized, so one pool may be
    shared across evaluators on different threads.  Build single-flight
    is the *pool's* job: :meth:`get_or_build` guarantees one cache
    construction per missing entry even when concurrent evaluators (or
    warm-up threads) probe the same signature — the first prober builds,
    the rest wait for its result instead of duplicating the work.
    """

    capacity: int = None
    stats: PoolStats = field(default_factory=PoolStats)
    _entries: OrderedDict = field(default_factory=OrderedDict)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _owner: tuple = field(default=None, repr=False)  # (catalog, settings)
    _listeners: list = field(default_factory=list, repr=False)  # weak refs
    _flights: dict = field(default_factory=dict, repr=False)  # sig -> _BuildFlight
    _kernels: dict = field(default_factory=dict, repr=False)  # sig -> StatementKernel

    def __post_init__(self):
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError("pool capacity must be positive or None")

    def attach(self, catalog, settings):
        """Bind the pool to one (catalog, settings) pair on first attach;
        reject evaluators over a different catalog — signatures carry no
        catalog identity, so a mismatch would silently serve wrong costs."""
        with self._lock:
            if self._owner is None:
                self._owner = (catalog, settings)
                return
            owner_catalog, owner_settings = self._owner
            if owner_catalog is not catalog or owner_settings != settings:
                raise ValueError(
                    "cache pool is already bound to a different catalog or "
                    "settings; use one pool per (catalog, settings) pair"
                )

    def subscribe(self, callback):
        """Register an eviction listener (``callback(signature, cache)``).

        Every attached evaluator subscribes its memo pruning, so an
        eviction triggered by one evaluator also bounds the memos of
        every other evaluator sharing the pool.  Held weakly: a garbage
        collected subscriber just drops off the list.
        """
        with self._lock:
            self._listeners = [r for r in self._listeners if r() is not None]
            self._listeners.append(weakref.WeakMethod(callback))

    def _notify(self, dropped):
        """Broadcast dropped ``(signature, cache)`` pairs to live
        listeners (callers hold the lock)."""
        if not dropped or not self._listeners:
            return
        live = []
        for ref in self._listeners:
            callback = ref()
            if callback is None:
                continue
            live.append(ref)
            for signature, cache in dropped:
                callback(signature, cache)
        self._listeners = live

    def __len__(self):
        return len(self._entries)

    def __contains__(self, signature):
        return signature in self._entries

    def signatures(self):
        """Signatures in LRU order (least recently used first)."""
        return list(self._entries)

    def get(self, signature):
        with self._lock:
            cache = self._entries.get(signature)
            if cache is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(signature)
            self.stats.hits += 1
            return cache

    def put(self, signature, cache):
        """Insert a cache; returns the ``(signature, cache)`` pairs evicted
        to make room, so the owner can drop memo entries derived from
        them (bounding *total* memory, not just resident caches).

        Compiled kernels are invalidated alongside: overwriting an
        entry drops its (now stale) kernel, and every eviction takes
        the evicted entry's kernel with it — compiled arrays never
        outlive the plan terms they were derived from."""
        with self._lock:
            self._kernels.pop(signature, None)
            self._entries[signature] = cache
            self._entries.move_to_end(signature)
            self.stats.optimizer_calls += cache.build_optimizer_calls
            evicted = []
            while self.capacity is not None \
                    and len(self._entries) > self.capacity:
                dropped = self._entries.popitem(last=False)
                self._kernels.pop(dropped[0], None)
                evicted.append(dropped)
                self.stats.evictions += 1
            self._notify(evicted)
            return evicted

    def kernel_for(self, signature):
        """The compiled columnar kernel for a *resident* entry, built
        on first request and owned by the pool: ``None`` when the
        signature is not resident — a kernel never outlives its entry.

        Compilation is a pure function of the entry's plan terms (see
        :func:`repro.evaluation.kernel.compile_statement`), cheap
        enough to run under the pool lock; every evaluator sharing the
        pool then shares one compiled form per entry, exactly like the
        entries themselves."""
        with self._lock:
            cache = self._entries.get(signature)
            if cache is None:
                return None
            kernel = self._kernels.get(signature)
            if kernel is None:
                from repro.evaluation.kernel import compile_statement

                with obs.tracer().span("kernel.compile",
                                       plans=len(cache.plans)):
                    t0 = time.perf_counter()
                    kernel = compile_statement(cache)
                    elapsed = time.perf_counter() - t0
                self._kernels[signature] = kernel
                registry = obs.metrics()
                registry.counter(
                    "repro_kernel_compiles_total",
                    "Columnar statement kernels compiled",
                ).inc()
                registry.histogram(
                    "repro_kernel_compile_seconds",
                    "Kernel compilation latency",
                ).observe(elapsed)
            return kernel

    @property
    def kernel_count(self):
        """How many resident entries currently have a compiled kernel."""
        with self._lock:
            return len(self._kernels)

    def get_or_build(self, signature, builder):
        """The cache for *signature*, built (via ``builder()``) at most
        once across concurrent probers.

        The first prober to miss becomes the flight's leader and runs the
        (expensive) build outside the pool lock; concurrent probers of
        the same signature wait for the leader's result instead of
        constructing a duplicate.  Statistics stay exact: every prober
        that finds no resident entry records one miss, leader and waiters
        alike, and nobody double-counts a hit on the flight's result.  A
        failed build raises the leader's exception in every waiter, and
        the next prober retries fresh.
        """
        with self._lock:
            cache = self._entries.get(signature)
            if cache is not None:
                self._entries.move_to_end(signature)
                self.stats.hits += 1
                return cache
            self.stats.misses += 1
            flight = self._flights.get(signature)
            leader = flight is None
            if leader:
                flight = _BuildFlight()
                self._flights[signature] = flight
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.cache
        try:
            with obs.tracer().span("pool.build"):
                t0 = time.perf_counter()
                cache = builder()
                obs.metrics().histogram(
                    "repro_pool_build_seconds",
                    "INUM cache build latency (single-flight leaders only)",
                ).observe(time.perf_counter() - t0)
            flight.cache = cache
            # Publish before retiring the flight: a prober arriving after
            # the flight is gone must find the entry resident.
            self.put(signature, cache)
            return cache
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(signature, None)
            flight.done.set()

    def stats_snapshot(self):
        """A consistent point-in-time copy of the counters, taken under
        the pool lock — no torn reads while builders and evictors run on
        other threads.  Sharded pools merge these (in fixed shard order)
        so stats-based assertions never depend on thread timing."""
        with self._lock:
            return self.stats.copy()

    def clear(self):
        """Drop every entry; broadcasts the drops to subscribed
        evaluators (so *their* derived memos are pruned too) and returns
        them as ``(signature, cache)`` pairs.  Not counted as evictions."""
        with self._lock:
            dropped = list(self._entries.items())
            self._entries.clear()
            self._kernels.clear()
            self._notify(dropped)
            return dropped
