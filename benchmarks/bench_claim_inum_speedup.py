"""CL-INUM — the paper's claim that the INUM cache "speeds up the cost
estimation process ... by orders of magnitude" (§1, §3.2.1).

Method: evaluate many candidate configurations over the SDSS workload
twice — once by re-invoking the full optimizer per configuration, once
through INUM after its one-off warm-up — and compare both wall time and
optimizer-call counts.

Expected shape: INUM pays |interesting order vectors| optimizer calls
once, then evaluates configurations with zero further calls, at least an
order of magnitude faster than re-optimizing.
"""

import os
import random
import time

from repro.cophy import candidate_indexes
from repro.evaluation import WorkloadEvaluator
from repro.optimizer import CostService
from repro.whatif import Configuration

from conftest import print_table

N_CONFIGS = 100

# The claim is an order of magnitude on quiet hardware; CI smoke jobs on
# shared runners relax the floor (they gate on the call-count
# invariants and the fidelity bound, not on magnitude).
SPEEDUP_FLOOR = float(os.environ.get("INUM_SPEEDUP_FLOOR", "10.0"))


def make_configs(catalog, workload, n=N_CONFIGS, seed=0):
    candidates = candidate_indexes(catalog, workload, max_candidates=12)
    rng = random.Random(seed)
    return [
        Configuration(
            indexes=frozenset(rng.sample(candidates, rng.randint(0, 5)))
        )
        for __ in range(n)
    ]


def optimizer_eval(catalog, workload, configs):
    costs = []
    calls = 0
    for config in configs:
        service = CostService(config.apply(catalog))
        costs.append(service.workload_cost(workload))
        calls += service.optimizer_calls
    return costs, calls


def inum_eval(model, workload, configs):
    return [model.workload_cost(workload, config) for config in configs]


def test_claim_inum_speedup(sdss_env, benchmark):
    catalog, workload = sdss_env
    configs = make_configs(catalog, workload)

    # --- naive: full re-optimization per configuration -----------------
    t0 = time.perf_counter()
    naive_costs, naive_calls = optimizer_eval(catalog, workload, configs)
    t_naive = time.perf_counter() - t0

    # --- INUM: warm once, then analytic evaluations ---------------------
    model = WorkloadEvaluator(catalog)
    t0 = time.perf_counter()
    warm_calls = model.warm_up(workload)
    t_warm = time.perf_counter() - t0
    inum_eval(model, workload, configs)  # populate slot cache
    t0 = time.perf_counter()
    inum_costs = inum_eval(model, workload, configs)
    t_inum = time.perf_counter() - t0

    speedup = t_naive / max(t_inum, 1e-9)
    print_table(
        "CL-INUM: %d configuration evaluations" % N_CONFIGS,
        ("method", "seconds", "optimizer calls"),
        [
            ("re-optimize", t_naive, naive_calls),
            ("inum (warm)", t_warm, warm_calls),
            ("inum (eval)", t_inum, 0),
        ],
    )
    print_table("CL-INUM: speedup", ("evaluation speedup x",), [(speedup,)])

    errors = [
        abs(i - n) / n for i, n in zip(inum_costs, naive_costs) if n > 0
    ]
    print_table(
        "CL-INUM: accuracy vs optimizer",
        ("mean rel err", "max rel err"),
        [(sum(errors) / len(errors), max(errors))],
    )

    assert speedup >= SPEEDUP_FLOOR, (
        "INUM must be at least %.0fx faster than re-optimizing (got %.1fx)"
        % (SPEEDUP_FLOOR, speedup)
    )
    assert max(errors) < 0.05, "INUM must stay faithful to the optimizer"
    assert naive_calls >= N_CONFIGS * len(workload) * 0.9
    assert warm_calls < naive_calls / 10

    benchmark(inum_eval, model, workload, configs[:20])


def test_claim_inum_calls_scale_with_orders_not_configs(sdss_env):
    """Optimizer-call accounting: warm-up cost is per query, not per config."""
    catalog, workload = sdss_env
    model = WorkloadEvaluator(catalog)
    warm_calls = model.warm_up(workload)
    before = model.precompute_calls
    for config in make_configs(catalog, workload, n=50, seed=3):
        model.workload_cost(workload, config)
    assert model.precompute_calls == before
    print_table(
        "CL-INUM: call accounting",
        ("warm calls", "calls during 50 evals"),
        [(warm_calls, model.precompute_calls - before)],
    )
