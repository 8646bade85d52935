"""Ablation: INUM design choices.

Two knobs drive INUM's cost/accuracy trade-off:

* the cap on interesting-order vectors per query (fewer vectors = fewer
  warm-up optimizer calls, but risk of missing the skeleton a
  configuration needs, overestimating its cost);
* the per-slot memoization (without it, every configuration evaluation
  re-prices access paths from scratch).

Expected shape: accuracy degrades monotonically as the vector cap drops;
the slot cache is worth ~an order of magnitude on warm evaluations.
"""

import random
import time

import pytest

from repro.cophy import candidate_indexes
from repro.evaluation import WorkloadEvaluator
from repro.inum import cache as inum_cache
from repro.optimizer import CostService
from repro.whatif import Configuration

from conftest import print_table


def make_configs(catalog, workload, n=30, seed=1):
    candidates = candidate_indexes(catalog, workload, max_candidates=12)
    rng = random.Random(seed)
    return [
        Configuration(indexes=frozenset(rng.sample(candidates, rng.randint(0, 5))))
        for __ in range(n)
    ]


def test_ablation_order_vector_cap(sdss_env, benchmark, monkeypatch):
    catalog, workload = sdss_env
    configs = make_configs(catalog, workload)
    truth = [
        CostService(c.apply(catalog)).workload_cost(workload) for c in configs
    ]

    rows = []
    for cap in (1, 2, 4, 32):
        monkeypatch.setattr(inum_cache, "MAX_VECTORS_PER_QUERY", cap)
        model = WorkloadEvaluator(catalog)
        warm_calls = model.warm_up(workload)
        estimates = [model.workload_cost(workload, c) for c in configs]
        errs = [abs(e - t) / t for e, t in zip(estimates, truth)]
        rows.append((cap, warm_calls, sum(errs) / len(errs), max(errs)))
    print_table(
        "ABL-INUM: interesting-order vector cap",
        ("cap", "warm calls", "mean rel err", "max rel err"),
        rows,
    )
    # More vectors => more warm-up calls and (weakly) better accuracy.
    warm = [r[1] for r in rows]
    assert warm == sorted(warm)
    max_err = [r[3] for r in rows]
    assert max_err[-1] <= max_err[0] + 1e-9
    assert max_err[-1] < 0.05

    monkeypatch.setattr(inum_cache, "MAX_VECTORS_PER_QUERY", 32)
    model = WorkloadEvaluator(catalog)
    model.warm_up(workload)
    benchmark(lambda: [model.workload_cost(workload, c) for c in configs[:10]])


def test_ablation_slot_cache(sdss_env):
    """Evaluate the same configs with a cold vs warm slot cache."""
    catalog, workload = sdss_env
    configs = make_configs(catalog, workload)

    model = WorkloadEvaluator(catalog)
    model.warm_up(workload)
    t0 = time.perf_counter()
    for c in configs:
        model.workload_cost(workload, c)
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    for c in configs:
        model.workload_cost(workload, c)
    t_warm = time.perf_counter() - t0

    print_table(
        "ABL-INUM: slot-cache effect (30 configuration evaluations)",
        ("cold cache s", "warm cache s", "speedup x"),
        [(t_cold, t_warm, t_cold / max(t_warm, 1e-9))],
    )
    assert t_warm < t_cold
