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


@dataclass
class InumCachePool:
    """LRU-bounded map from bound statement text to QueryCache.

    ``capacity=None`` means unbounded (the seed's behavior); a positive
    capacity evicts the least-recently-used entry past the limit.

    One thread builds and installs: the scheduler's, or a runner
    connection's over its private pool.  The lock is for readers on
    other threads — the metrics server scrapes :attr:`stats`, ``len``
    and :attr:`kernel_count` while that thread installs.  What it holds
    is declared in :mod:`repro.evaluation.memos`.
    """

    capacity: int = None
    stats: PoolStats = field(default_factory=PoolStats, init=False)
    _entries: OrderedDict = field(default_factory=OrderedDict)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _owner: weakref.ref = field(default=None, repr=False)  # the evaluator
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
            owner = self.owner()
            if owner is not None:  # under our lock: pool → evaluator
                for dropped_sql, dropped_cache in evicted:
                    owner._forget(dropped_sql, dropped_cache)
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
        """The cache for *sql*: the resident entry (a hit), or
        ``builder()``'s, put and returned (a miss).  A build that raises
        puts nothing, so the next probe builds afresh."""
        cache = self.get(sql)
        if cache is not None:
            return cache
        with obs.tracer().span(SPAN_POOL_BUILD):
            t0 = time.perf_counter()
            cache = builder()
            obs.metrics().family(POOL_BUILD_SECONDS).observe(
                time.perf_counter() - t0)
        self.put(sql, cache)
        return cache

    def stats_snapshot(self):
        """A consistent point-in-time copy of the counters, taken under
        the pool lock — no torn reads while the installing thread puts
        and evicts.  Sharded pools merge these (in fixed shard order)
        so stats-based assertions never depend on thread timing."""
        with self._lock:
            return self.stats.copy()
