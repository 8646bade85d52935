"""The shared INUM cache pool: one build, many consumers.

Every designer component (CoPhy, AutoPart, COLT, the interaction
analyzer, the what-if session) prices configurations against per-query
INUM plan caches.  In the seed each component built its own caches;
the pool makes them a shared, bounded resource keyed by the bound
statement text (``bq.sql``, the key of the statement's record), so
cross-component reuse hits instead of rebuilding — and so cache memory
is bounded under long-running multi-workload traffic (LRU eviction).  A pool has one
owning evaluator; what it and the state derived from its entries hold,
and what drops it, is declared in :mod:`repro.evaluation.memos`.
"""

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

from repro import obs
from repro.obs.catalogue import (
    KERNEL_COMPILES, KERNEL_COMPILE_SECONDS, POOL_BUILD_SECONDS,
    SPAN_KERNEL_COMPILE, SPAN_POOL_BUILD)
from repro.util import DesignError


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
    """LRU-bounded map from bound statement text to QueryCache.

    ``capacity=None`` means unbounded (the seed's behavior); a positive
    capacity evicts the least-recently-used entry past the limit.

    ``get``/``put`` are internally synchronized, so the owner's tenant
    threads may probe it at once.  Build single-flight is the *pool's*
    job: :meth:`get_or_build` guarantees one cache construction per
    missing entry even when concurrent threads probe the same
    text — the first prober builds, the rest wait for its result
    instead of duplicating the work.  What it holds is declared in
    :mod:`repro.evaluation.memos`.
    """

    capacity: int = None
    stats: PoolStats = field(default_factory=PoolStats, init=False)
    _entries: OrderedDict = field(default_factory=OrderedDict)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _owner: weakref.ref = field(default=None, repr=False)  # the evaluator
    _flights: dict = field(default_factory=dict, repr=False)  # sql -> _BuildFlight
    _kernels: dict = field(default_factory=dict, repr=False)  # sql -> StatementKernel

    def __post_init__(self):
        if self.capacity is not None and self.capacity <= 0:
            raise DesignError("pool capacity must be positive or None")

    def attach(self, evaluator):
        """Bind the pool to its one owning evaluator, held weakly (no
        reference cycle).  Every entry that leaves calls the owner's
        ``_forget``; a second evaluator is refused, since keys carry no
        catalog identity.  A pool nobody attached (a wire
        replay's) serves alone."""
        with self._lock:
            if self._owner is not None:
                raise ValueError(
                    "cache pool already has an owning evaluator; use one "
                    "pool per evaluator"
                )
            self._owner = weakref.ref(evaluator)

    def owner(self):
        """The owning evaluator (``None``: unattached, or collected)."""
        return self._owner() if self._owner is not None else None

    def _dropped(self, dropped):
        """Hand dropped ``(sql, cache)`` pairs to the owner's
        ``_forget`` (callers hold the lock: pool → evaluator)."""
        owner = self.owner()
        if owner is not None:
            for sql, cache in dropped:
                owner._forget(sql, cache)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, sql):
        return sql in self._entries

    def keys(self):
        """Resident statement texts in LRU order (least recently used
        first)."""
        return list(self._entries)

    # The perf ledger's wire replay (benchmarks/e2e) calls the old name.
    signatures = keys

    def get(self, sql):
        with self._lock:
            cache = self._entries.get(sql)
            if cache is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(sql)
            self.stats.hits += 1
            return cache

    def put(self, sql, cache):
        """Insert a cache under *sql*; returns the ``(sql, cache)`` pairs
        evicted to make room, after handing them to the owner's
        ``_forget``.  An overwritten or evicted entry's kernel goes with
        it."""
        with self._lock:
            self._kernels.pop(sql, None)
            self._entries[sql] = cache
            self._entries.move_to_end(sql)
            self.stats.optimizer_calls += cache.build_optimizer_calls
            evicted = []
            while self.capacity is not None \
                    and len(self._entries) > self.capacity:
                dropped = self._entries.popitem(last=False)
                self._kernels.pop(dropped[0], None)
                evicted.append(dropped)
                self.stats.evictions += 1
            self._dropped(evicted)
            return evicted

    def kernel_for(self, sql):
        """The compiled columnar kernel for a *resident* entry (``None``
        when absent), built on first request under the pool lock — a
        pure function of the entry's plan terms
        (:func:`repro.evaluation.kernel.compile_statement`)."""
        with self._lock:
            cache = self._entries.get(sql)
            if cache is None:
                return None
            kernel = self._kernels.get(sql)
            if kernel is None:
                from repro.evaluation.kernel import compile_statement

                with obs.tracer().span(SPAN_KERNEL_COMPILE,
                                       plans=len(cache.plans)):
                    t0 = time.perf_counter()
                    kernel = compile_statement(cache)
                    elapsed = time.perf_counter() - t0
                self._kernels[sql] = kernel
                registry = obs.metrics()
                registry.family(KERNEL_COMPILES).inc()
                registry.family(KERNEL_COMPILE_SECONDS).observe(
                    elapsed)
            return kernel

    @property
    def kernel_count(self):
        """How many resident entries currently have a compiled kernel."""
        with self._lock:
            return len(self._kernels)

    def get_or_build(self, sql, builder):
        """The cache for *sql*, built (via ``builder()``) at most
        once across concurrent probers.

        The first prober to miss becomes the flight's leader and runs the
        (expensive) build outside the pool lock; concurrent probers of
        the same text wait for the leader's result instead of
        constructing a duplicate.  Statistics stay exact: every prober
        that finds no resident entry records one miss, leader and waiters
        alike, and nobody double-counts a hit on the flight's result.  A
        failed build raises the leader's exception in every waiter, and
        the next prober retries fresh.
        """
        with self._lock:
            cache = self._entries.get(sql)
            if cache is not None:
                self._entries.move_to_end(sql)
                self.stats.hits += 1
                return cache
            self.stats.misses += 1
            flight = self._flights.get(sql)
            leader = flight is None
            if leader:
                flight = _BuildFlight()
                self._flights[sql] = flight
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.cache
        try:
            with obs.tracer().span(SPAN_POOL_BUILD):
                t0 = time.perf_counter()
                cache = builder()
                obs.metrics().family(POOL_BUILD_SECONDS).observe(
                    time.perf_counter() - t0)
            flight.cache = cache
            # Publish before retiring the flight: a prober arriving after
            # the flight is gone must find the entry resident.
            self.put(sql, cache)
            return cache
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(sql, None)
            flight.done.set()

    def stats_snapshot(self):
        """A consistent point-in-time copy of the counters, taken under
        the pool lock — no torn reads while builders and evictors run on
        other threads.  Sharded pools merge these (in fixed shard order)
        so stats-based assertions never depend on thread timing."""
        with self._lock:
            return self.stats.copy()

    def clear(self):
        """Drop every entry, hand the drops to the owner's ``_forget``
        and return them as ``(sql, cache)`` pairs.  Not counted as
        evictions."""
        with self._lock:
            dropped = list(self._entries.items())
            self._entries.clear()
            self._kernels.clear()
            self._dropped(dropped)
            return dropped
