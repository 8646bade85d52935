"""Property-based equivalence suite for the WorkloadEvaluator.

The batched evaluator must be a *refactoring* of the seed's per-call
INUM evaluation, never a different cost model: for randomized schemas,
workloads and configuration sweeps, batched costs equal per-query
costs on the pool-free ``oracle.PerTextEvaluator`` exactly, stay
within INUM's fidelity tolerance of the real optimizer on small cases,
and are bit-identical with thread fan-out on and off.
"""

import random

import pytest

from repro.catalog import Catalog, Column, DataType, Distribution, Index, Table
from repro.evaluation import BatchEvaluation, WorkloadEvaluator
from repro.optimizer import CostService
from repro.whatif import Configuration

from oracle import PerTextEvaluator, best, per_call_matrix

SEEDS = [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# Randomized environments: schema + workload + candidate configurations.
# ----------------------------------------------------------------------


def random_schema(rng):
    catalog = Catalog()
    for t in range(rng.randint(2, 3)):
        columns = [Column("id", DataType.BIGINT, Distribution(kind="sequence"))]
        for c in range(rng.randint(3, 5)):
            if rng.random() < 0.5:
                columns.append(
                    Column(
                        "v%d" % c,
                        DataType.DOUBLE,
                        Distribution(kind="uniform", low=0.0, high=100.0),
                    )
                )
            else:
                columns.append(
                    Column(
                        "v%d" % c,
                        DataType.INT,
                        Distribution(kind="uniform_int", low=0, high=50),
                    )
                )
        catalog.add_table(
            Table(
                "t%d" % t,
                columns,
                row_count=rng.choice([20_000, 60_000, 150_000]),
            ).build_stats()
        )
    return catalog


def _predicate(rng, alias, column):
    if column.dtype == DataType.DOUBLE:
        if rng.random() < 0.5:
            low = rng.uniform(0, 60)
            return "%s.%s BETWEEN %.1f AND %.1f" % (
                alias, column.name, low, low + rng.uniform(5, 30),
            )
        return "%s.%s < %.1f" % (alias, column.name, rng.uniform(20, 90))
    return "%s.%s = %d" % (alias, column.name, rng.randint(0, 50))


def random_write(rng, catalog):
    table = rng.choice(list(catalog.tables))
    cols = [c for c in table.columns if c.name != "id"]
    where = _predicate(rng, table.name, rng.choice(cols))
    if rng.random() < 0.5:
        target = rng.choice(cols)
        value = "%.1f" % rng.uniform(0, 50) \
            if target.dtype == DataType.DOUBLE else str(rng.randint(0, 50))
        return "UPDATE %s SET %s = %s WHERE %s" % (
            table.name, target.name, value, where,
        )
    return "DELETE FROM %s WHERE %s" % (table.name, where)


def random_workload(rng, catalog, n_queries=6, write_fraction=0.0):
    tables = list(catalog.tables)
    queries = []
    for __ in range(n_queries):
        if rng.random() < write_fraction:
            queries.append((random_write(rng, catalog), rng.choice([1.0, 2.0])))
            continue
        if len(tables) >= 2 and rng.random() < 0.4:
            ta, tb = rng.sample(tables, 2)
            cols_a = [c for c in ta.columns if c.name != "id"]
            cols_b = [c for c in tb.columns if c.name != "id"]
            sql = (
                "SELECT a.%s, b.%s FROM %s a, %s b "
                "WHERE a.id = b.id AND %s"
                % (
                    rng.choice(cols_a).name,
                    rng.choice(cols_b).name,
                    ta.name,
                    tb.name,
                    _predicate(rng, "b", rng.choice(cols_b)),
                )
            )
        else:
            table = rng.choice(tables)
            cols = [c for c in table.columns if c.name != "id"]
            pick = rng.sample(cols, min(2, len(cols)))
            alias = table.name
            sql = "SELECT %s FROM %s WHERE %s" % (
                ", ".join(c.name for c in pick),
                table.name,
                _predicate(rng, alias, rng.choice(cols)),
            )
            if rng.random() < 0.3:
                sql += " ORDER BY %s LIMIT %d" % (
                    pick[0].name, rng.randint(5, 50),
                )
        queries.append((sql, rng.choice([1.0, 2.0])))
    return queries


def random_candidates(rng, catalog, n=8):
    candidates = []
    for table in catalog.tables:
        names = [c.name for c in table.columns]
        for __ in range(3):
            key = tuple(rng.sample(names, rng.randint(1, 2)))
            ix = Index(table.name, key)
            if ix not in candidates:
                candidates.append(ix)
    rng.shuffle(candidates)
    return candidates[:n]


def random_configs(rng, candidates, n=8):
    return [
        Configuration(
            indexes=frozenset(
                rng.sample(candidates, rng.randint(0, min(4, len(candidates))))
            )
        )
        for __ in range(n)
    ]


def make_env(seed, write_fraction=0.0):
    rng = random.Random(seed)
    catalog = random_schema(rng)
    workload = random_workload(rng, catalog, write_fraction=write_fraction)
    configs = random_configs(rng, random_candidates(rng, catalog))
    return catalog, workload, configs


# ----------------------------------------------------------------------
# The equivalence properties.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_equals_per_call_inum(seed):
    catalog, workload, configs = make_env(seed)
    per_call = PerTextEvaluator(catalog)
    evaluator = WorkloadEvaluator(catalog)
    batched = evaluator.workload_costs(workload, configs)
    for config, total in zip(configs, batched):
        assert total == pytest.approx(
            per_call.workload_cost(workload, config), rel=1e-12
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_totals_equal_the_scalar_workload_cost_exactly(seed):
    """``BatchEvaluation.totals`` is the scalar total bit for bit — with
    non-unit weights, writes included, on the full and the delta path.
    AutoPart's accept/reject decisions compare these totals."""
    catalog, workload, configs = make_env(seed, write_fraction=0.2)
    workload = [
        (sql, weight * (0.1 + 0.37 * i))
        for i, (sql, weight) in enumerate(workload)
    ]
    per_call = PerTextEvaluator(catalog)
    expected = [per_call.workload_cost(workload, c) for c in configs]
    evaluator = WorkloadEvaluator(catalog)
    assert evaluator.evaluate_many(workload, configs).totals == expected
    assert evaluator.evaluate_deltas(
        workload, configs[1], configs
    ).totals == expected


def test_totals_accumulate_left_to_right_without_compensation():
    """Builtin ``sum`` is Neumaier-compensated from CPython 3.12 on and
    would answer 1.0 here; ``total += w * c`` loses the 1.0, and so must
    ``totals`` to stay equal to ``workload_cost``."""
    batch = BatchEvaluation(
        configurations=[None],
        weights=[1.0, 1.0, 1.0],
        matrix=[[1e16, 1.0, -1e16]],
    )
    assert batch.totals == [0.0]


@pytest.mark.parametrize("seed", SEEDS)
def test_single_query_costs_equal_per_call(seed):
    catalog, workload, configs = make_env(seed)
    per_call = PerTextEvaluator(catalog)
    evaluator = WorkloadEvaluator(catalog)
    for sql, __ in workload:
        for config in configs[:3]:
            assert evaluator.cost(sql, config) == pytest.approx(
                per_call.cost(sql, config), rel=1e-12
            )


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_matches_direct_cost_service_within_tolerance(seed):
    """On small cases the whole stack stays faithful to the optimizer."""
    catalog, workload, configs = make_env(seed)
    evaluator = WorkloadEvaluator(catalog)
    for config in configs[:4]:
        direct = CostService(config.apply(catalog)).workload_cost(workload)
        estimate = evaluator.workload_costs(workload, [config])[0]
        assert estimate == pytest.approx(direct, rel=0.05)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_batch_issues_no_optimizer_calls_after_warm(seed):
    catalog, workload, configs = make_env(seed)
    evaluator = WorkloadEvaluator(catalog)
    evaluator.warm_up(workload)
    before = evaluator.precompute_calls
    evaluator.evaluate_configurations(workload, configs)
    assert evaluator.precompute_calls == before


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_read_write_workloads_match_per_call(seed):
    """Write statements (UPDATE/DELETE maintenance + locate pricing) must
    survive batching exactly like reads."""
    catalog, workload, configs = make_env(seed, write_fraction=0.4)
    # Guarantee at least one write regardless of the draw.
    workload = list(workload) + [(random_write(random.Random(seed), catalog), 1.0)]
    per_call = PerTextEvaluator(catalog)
    evaluator = WorkloadEvaluator(catalog)
    batched = evaluator.evaluate_configurations(workload, configs)
    for config, total in zip(configs, batched.totals):
        assert total == pytest.approx(
            per_call.workload_cost(workload, config), rel=1e-12
        )
    assert batched.matrix == per_call_matrix(per_call, workload, configs)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_mixed_workload_matches_cost_service(seed):
    catalog, workload, configs = make_env(seed, write_fraction=0.3)
    evaluator = WorkloadEvaluator(catalog)
    for config in configs[:3]:
        direct = CostService(config.apply(catalog)).workload_cost(workload)
        estimate = evaluator.workload_costs(workload, [config])[0]
        assert estimate == pytest.approx(direct, rel=0.05)


def test_usage_oracle_matches_per_call():
    catalog, workload, configs = make_env(7)
    per_call = PerTextEvaluator(catalog)
    evaluator = WorkloadEvaluator(catalog)
    batch = evaluator.workload_cost_with_usage_batch(workload, configs)
    for config, (cost, used) in zip(configs, batch):
        ref_cost, ref_used = per_call.workload_cost_with_usage(workload, config)
        assert cost == pytest.approx(ref_cost, rel=1e-12)
        assert used == ref_used


def test_batch_evaluation_best_picks_minimum():
    catalog, workload, configs = make_env(3)
    evaluator = WorkloadEvaluator(catalog)
    result = evaluator.evaluate_configurations(workload, configs)
    best_config, best_total = best(result)
    assert best_total == min(result.totals)
    assert best_config is result.configurations[
        result.totals.index(best_total)
    ]


def test_one_shot_iterator_workload():
    """A generator workload must compile fully and not poison the memo."""
    catalog, workload, configs = make_env(1)
    evaluator = WorkloadEvaluator(catalog)
    reference = evaluator.workload_costs(list(workload), configs)
    fresh = WorkloadEvaluator(catalog)
    from_iter = fresh.workload_costs(iter(list(workload)), configs)
    assert from_iter == pytest.approx(reference, rel=1e-12)
    # The memoized compilation must serve the list form identically.
    assert fresh.workload_costs(list(workload), configs) \
        == pytest.approx(reference, rel=1e-12)
