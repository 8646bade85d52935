"""The batched workload-evaluation subsystem: one costing backplane.

Every designer component (what-if session, CoPhy, AutoPart, COLT, the
interaction analyzer) obtains configuration costs through a
:class:`WorkloadEvaluator` instead of building private caches:

* :mod:`repro.evaluation.pool` — the shared, LRU-bounded INUM cache pool,
  one entry per bound statement text, with exact
  hit/miss/eviction/optimizer-call statistics and per-entry build
  single-flight;
* :mod:`repro.evaluation.sharded` — the same pool surface partitioned
  across N independently locked shards, for multi-tenant traffic;
* :mod:`repro.evaluation.memos` — every memo the evaluator reaches,
  declared once with its owner, key, bound and the hooks that drop it;
* :mod:`repro.evaluation.evaluator` — the evaluator itself: batched
  (vectorized) configuration pricing, the cache warm-up, plus the exact
  per-configuration :class:`~repro.optimizer.CostService` cache;
* :mod:`repro.evaluation.kernel` — the columnar plan-term kernel:
  cache entries compiled to flat cost/slot arrays, whole workload ×
  configuration grids priced as numpy reductions (bit-identical to the
  scalar walks), plus CoPhy's BIP pricing surface in the same form;
  both sit on one plan arena, so delta (seminaïve) evaluation off a
  captured parent state is one mechanism with two slot resolvers;
* :mod:`repro.evaluation.wire` — the versioned, JSON-compatible wire
  format for cache entries reduced to plan terms (filed under the text
  the receiver re-binds), and
  tenant/service snapshots (what makes the backplane portable);
  kernels are rebuilt from plan terms on load, never encoded;
* :mod:`repro.evaluation.process` — the process backplane: cache
  builds fanned across forked workers, each a :mod:`repro.net` runner
  on a socketpair, exchanging wire entries instead of shared memory.
"""

from repro.evaluation.evaluator import BatchEvaluation, WorkloadEvaluator
from repro.evaluation.kernel import (
    BipDeltaState,
    BipKernel,
    StatementKernel,
    WorkloadDeltaState,
    WorkloadKernel,
    compile_statement,
)
from repro.evaluation.pool import InumCachePool, PoolStats
from repro.evaluation.process import ProcessPoolBackplane
from repro.evaluation.sharded import ShardedInumCachePool

__all__ = [
    "BatchEvaluation",
    "WorkloadEvaluator",
    "BipDeltaState",
    "BipKernel",
    "StatementKernel",
    "WorkloadDeltaState",
    "WorkloadKernel",
    "compile_statement",
    "InumCachePool",
    "PoolStats",
    "ProcessPoolBackplane",
    "ShardedInumCachePool",
]
