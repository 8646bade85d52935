"""A sharded INUM cache pool for multi-tenant traffic.

:class:`ShardedInumCachePool` partitions entries across N
:class:`~repro.evaluation.pool.InumCachePool` shards by a hash of the
bound statement text: each shard keeps its own lock and its own LRU
order.  A global memory budget is split across the shards, and
statistics merge into one exact
:class:`~repro.evaluation.pool.PoolStats` snapshot.  ``serve --shards``
sets the count; the service's one scheduler thread builds into every
shard.

The surface mirrors ``InumCachePool`` exactly, so a
:class:`~repro.evaluation.WorkloadEvaluator` (and anything else written
against the pool seam) takes either interchangeably.
"""

from repro.evaluation.pool import InumCachePool, PoolStats
from repro.util import DesignError


class ShardedInumCachePool:
    """N ``InumCachePool`` shards behind the one-pool surface.

    ``capacity`` is the *global* entry budget, split as evenly as
    possible across the shards (each shard holds at least one entry, so
    a bounded pool needs ``capacity >= shards``).  Partitioning uses the
    builtin hash of the text: stable within a process, which is all
    correctness needs — an entry always routes to the same shard — and,
    a ``str`` hash depending on ``PYTHONHASHSEED`` alone, the same from
    run to run under a pinned seed.

    ``stats`` is a merged snapshot (recomputed per read); per-shard
    counters are available via :meth:`shard_stats`.
    """

    def __init__(self, shards=4, capacity=None):
        if shards <= 0:
            raise DesignError("shard count must be positive")
        if capacity is not None:
            if capacity <= 0:
                raise DesignError("pool capacity must be positive or None")
            if capacity < shards:
                raise DesignError(
                    "global capacity %d cannot give each of %d shards an "
                    "entry; lower the shard count" % (capacity, shards)
                )
        self.capacity = capacity
        self._shards = [
            InumCachePool(capacity=self._shard_capacity(i, shards, capacity))
            for i in range(shards)
        ]

    @staticmethod
    def _shard_capacity(position, shards, capacity):
        if capacity is None:
            return None
        base, extra = divmod(capacity, shards)
        return base + (1 if position < extra else 0)

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------

    @property
    def n_shards(self):
        return len(self._shards)

    def shard_index(self, sql):
        """Which shard holds the entry filed under *sql*."""
        return hash(sql) % len(self._shards)

    def shard_for(self, sql):
        return self._shards[self.shard_index(sql)]

    # ------------------------------------------------------------------
    # The InumCachePool surface, routed or fanned out.
    # ------------------------------------------------------------------

    def attach(self, evaluator):
        """Bind every shard to the one owning evaluator, the flat pool's
        contract: an eviction on any shard calls its ``_forget``, and a
        second evaluator is refused by the first shard already."""
        for shard in self._shards:
            shard.attach(evaluator)

    def owner(self):
        return self._shards[0].owner()

    def get(self, sql):
        return self.shard_for(sql).get(sql)

    def put(self, sql, cache):
        return self.shard_for(sql).put(sql, cache)

    def get_or_build(self, sql, builder):
        return self.shard_for(sql).get_or_build(sql, builder)

    def kernel_for(self, sql):
        """A columnar kernel compiled from a resident entry by its
        shard (``None`` when absent)."""
        return self.shard_for(sql).kernel_for(sql)

    def release(self, texts):
        """Release *texts* shard by shard, each under its shard's lock
        (see :meth:`InumCachePool.release`)."""
        by_shard = {}
        for sql in texts:
            by_shard.setdefault(self.shard_index(sql), []).append(sql)
        for position in sorted(by_shard):
            self._shards[position].release(by_shard[position])

    def __len__(self):
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, sql):
        return sql in self.shard_for(sql)

    def keys(self):
        """All resident statement texts; LRU order holds *within* a
        shard (global recency across shards is deliberately untracked —
        that independence is what removes the cross-tenant lock)."""
        out = []
        for shard in self._shards:
            out.extend(shard.keys())
        return out

    # The perf ledger's wire replay (benchmarks/e2e) calls the old name.
    signatures = keys

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------

    @property
    def stats(self):
        """Merged :class:`PoolStats` snapshot over all shards.  Unlike
        the flat pool's live object this is recomputed per read; treat it
        as a point-in-time view.

        Deterministic under concurrency: each shard's counters are
        copied under that shard's lock (no torn reads mid-eviction) and
        the copies merge in fixed shard order, so two reads of a quiet
        pool — and stats-based test assertions — never depend on thread
        timing."""
        return PoolStats.merged(
            shard.stats_snapshot() for shard in self._shards
        )

    def shard_stats(self):
        """Per-shard ``(size, stats-dict)`` pairs in fixed shard order,
        for status panels and balance checks; counters are lock-consistent
        copies, like :attr:`stats`."""
        return [
            (len(shard), shard.stats_snapshot().as_dict())
            for shard in self._shards
        ]
