"""Index-subset lattices on the kernel, pinned bit for bit.

The interaction analyzer names every subset it prices by a bitmask
(:class:`~repro.evaluation.Lattice`) and prices a whole graph, or a
schedule's subsets, as one kernel batch.  Here a lattice's totals equal
the same designs as configurations and the per-call walk; a design
column of indexes alone, which copies the empty design's column and
re-resolves only the slots its indexes reach, equals the column every
slot resolved afresh; a schedule over primed costs is the schedule
over serial ones; and a graph is one kernel batch that builds no
configuration or design view per design.  Mixed read / write
workloads are in ``tests/test_writes.py::TestWritesPricedOnTheKernel``.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro.catalog import Index
from repro.designer import Designer
from repro.evaluation import Lattice, WorkloadEvaluator
from repro.evaluation import evaluator as evaluator_module
from repro.evaluation.kernel import WorkloadKernel
from repro.inum.cache import _access_cost
from repro.interaction import (
    InteractionAnalyzer,
    schedule_greedy,
    schedule_naive,
    schedule_optimal,
)
from repro.whatif import Configuration

from test_backward_and_solver_props import share
from test_ibg import environment


def configurations(indexes, masks):
    """The configuration each mask of a lattice names."""
    return [Configuration(indexes=frozenset(
        ix for i, ix in enumerate(indexes) if mask >> i & 1))
        for mask in masks]


@st.composite
def drawn_lattices(draw):
    evaluator, workload, candidates = environment(
        draw(st.sampled_from(["sdss", "tpch"])))
    indexes = draw(st.lists(st.sampled_from(candidates), unique=True,
                            max_size=8))
    masks = draw(st.lists(st.integers(0, 2 ** len(indexes) - 1),
                          min_size=1, max_size=16))
    return evaluator, list(workload), indexes, masks


def column_afresh(kernel, evaluator, table, indexes):
    """*table*'s slot costs under the design of *indexes*, each slot
    priced by the pure winner function: no memo, no sparse copy."""
    view = evaluator_module._DesignView(
        evaluator.catalog, Configuration(indexes=frozenset(indexes)))
    costs = []
    for g in kernel.table_columns[table]:
        slot, bq = kernel.slots[g]
        choice = _access_cost(slot, bq, view, evaluator.settings)
        costs.append(math.inf if choice is None else choice[0])
    return costs


def sparse_column(evaluator, workload, table, indexes):
    """The kernel's column of *table* under *indexes*, resolved now."""
    compiled = evaluator._compile(workload)
    kernel = compiled.kernel
    kernel._columns.clear()  # resolve it, and the empty one, afresh
    designs = evaluator._designs(
        compiled, Lattice(indexes, [2 ** len(indexes) - 1]))
    signature = designs.signatures[table][designs.ids[table][0]]
    return kernel, kernel._design_column(
        table, signature, designs, evaluator.slot_choice).tolist()


class TestLatticeOnTheKernel:
    """Drawn lattices over the advisor's own candidates, on read-only
    SDSS and TPC-H workloads."""

    @hsettings(max_examples=share(0.5))
    @given(case=drawn_lattices())
    def test_a_lattice_totals_what_its_configurations_and_the_walk_do(
            self, case):
        evaluator, workload, indexes, masks = case
        configs = configurations(indexes, masks)
        walk = [evaluator.workload_cost(workload, config)
                for config in configs]
        lattice = Lattice(indexes, masks)
        assert evaluator.evaluate_many(workload, lattice).totals == walk
        assert evaluator.evaluate_configurations(
            workload, configs).totals == walk

    @hsettings(max_examples=share(0.5))
    @given(case=drawn_lattices())
    def test_a_sparse_column_is_the_column_resolved_afresh(self, case):
        evaluator, workload, indexes, __ = case
        for table in evaluator._compile(workload).kernel.tables:
            kernel, column = sparse_column(evaluator, workload, table,
                                           indexes)
            assert column == column_afresh(kernel, evaluator, table,
                                           indexes), table


def test_each_candidate_alone_reaches_the_slots_it_changes():
    """Every candidate alone, on every table: the sparse column equals
    the column resolved afresh, and some candidates change a probe
    slot's cost (a nested-loop inner), so skipping reached probe slots
    fails here on every run."""
    probes_changed = 0
    for name in ("sdss", "tpch"):
        evaluator, workload, candidates = environment(name)
        workload = list(workload)
        tables = evaluator._compile(workload).kernel.tables
        for index, table in itertools.product(candidates, tables):
            kernel, column = sparse_column(evaluator, workload, table,
                                           [index])
            assert column == column_afresh(kernel, evaluator, table,
                                           [index]), (index, table)
            empty = column_afresh(kernel, evaluator, table, [])
            probes_changed += sum(
                1 for g, new, old in zip(kernel.table_columns[table],
                                         column, empty)
                if new != old and kernel.slots[g][0].param_columns)
    assert probes_changed


def test_lattice_totals_add_in_the_walks_order():
    """A workload whose costs expose association order: ten statements,
    weights ``1 / (i + 1)``.  The lattice's totals are the walk's
    left-to-right sums onto 0.0; numpy's pairwise sum of the same terms
    differs on every design, so re-associating fails here."""
    evaluator, workload, candidates = environment("sdss")
    workload = [(sql, 1.0 / (i + 1)) for i, (sql, __) in enumerate(workload)]
    indexes, masks = candidates[:5], range(32)
    configs = configurations(indexes, masks)
    walk = [evaluator.workload_cost(workload, config) for config in configs]
    assert evaluator.evaluate_many(
        workload, Lattice(indexes, masks)).totals == walk
    batch = evaluator.evaluate_configurations(workload, configs)
    terms = np.zeros((len(configs), len(workload) + 1))
    terms[:, 1:] = np.asarray(batch.matrix) * np.asarray(batch.weights)
    assert all(pairwise != total for pairwise, total
               in zip(terms.sum(axis=1).tolist(), walk))


def test_primed_schedules_are_the_serial_ones():
    """A schedule over lattice-primed costs is the schedule over a
    serial cost function, order, area and timeline; the primed
    analyzer prices nothing more while scheduling."""
    evaluator, workload, candidates = environment("tpch")
    catalog = evaluator.catalog
    indexes = candidates[:6]
    primed = InteractionAnalyzer(evaluator, workload)
    primed.prefetch(itertools.chain.from_iterable(
        itertools.combinations(indexes, r) for r in range(len(indexes) + 1)))
    priced = len(primed._cost_cache)
    assert priced == 2 ** len(indexes)

    def serial(index_set):
        return evaluator.workload_cost(
            workload, Configuration(indexes=frozenset(index_set)))

    for scheduler in (schedule_optimal, schedule_naive, schedule_greedy):
        got = scheduler(indexes, primed.cost, catalog)
        want = scheduler(indexes, serial, catalog)
        assert (got.order, got.area, got.timeline) == \
            (want.order, want.area, want.timeline), scheduler.__name__
    assert len(primed._cost_cache) == priced


def test_recommend_schedules_as_over_serial_costs():
    """``Designer.recommend`` primes its schedules with lattices: the
    schedules it returns are those a serial cost function gives."""
    evaluator, workload, __ = environment("sdss")
    catalog = evaluator.catalog
    workload = list(workload)
    budget = sum(table.pages for table in catalog.tables) // 3
    rec = Designer(catalog).recommend(workload, budget, solver="greedy",
                                      partitions=False)
    indexes = rec.index_recommendation.indexes
    assert len(indexes) >= 2

    def serial(index_set):
        return evaluator.workload_cost(
            workload, Configuration(indexes=frozenset(index_set)))

    for got, scheduler in ((rec.schedule, schedule_optimal),
                           (rec.naive_schedule, schedule_naive)):
        want = scheduler(indexes, serial, catalog)
        assert (got.order, got.area, got.timeline) == \
            (want.order, want.area, want.timeline)


@pytest.mark.parametrize("size", [3, 11])
def test_a_graph_is_one_kernel_batch_and_no_view_per_design(
        size, monkeypatch):
    """Enumerated (3 indexes) or sampled (11): one kernel batch, and a
    design view per distinct per-table projection at most — never one
    per priced design."""
    evaluator, workload, candidates = environment("sdss")
    evaluator = WorkloadEvaluator(evaluator.catalog)
    indexes = candidates[:size]
    counts = {"batches": 0, "views": 0, "designs": 0}
    batch = WorkloadKernel.evaluate_many

    def counted_batch(kernel, designs, slot_choice):
        counts["batches"] += 1
        counts["designs"] += designs.size
        return batch(kernel, designs, slot_choice)

    class CountedView(evaluator_module._DesignView):
        def __init__(self, *args):
            counts["views"] += 1
            super().__init__(*args)

    monkeypatch.setattr(WorkloadKernel, "evaluate_many", counted_batch)
    monkeypatch.setattr(WorkloadKernel, "evaluate_deltas", None)
    monkeypatch.setattr(evaluator_module, "_DesignView", CountedView)
    InteractionAnalyzer(evaluator, workload).interaction_graph(indexes)
    assert counts["batches"] == 1
    by_table = {}
    for ix in indexes:
        by_table[ix.table_name] = by_table.get(ix.table_name, 0) + 1
    assert counts["views"] <= 1 + sum(2 ** k for k in by_table.values())
    assert counts["views"] < counts["designs"] or size < 4


def test_masks_past_62_indexes_are_python_ints():
    """An analyzer that has seen more indexes than an int64 holds bits
    names its subsets by Python ints and prices them alike."""
    evaluator, workload, __ = environment("sdss")
    catalog = evaluator.catalog
    indexes = [Index(table.name, columns) for table in catalog.tables
               for columns in itertools.permutations(table.column_names[:5],
                                                     2)][:70]
    assert len(indexes) == 70
    subsets = [indexes[i::7] for i in range(7)] + [indexes[-3:], []]
    analyzer = InteractionAnalyzer(evaluator, workload)
    analyzer.prefetch(subsets)
    assert Lattice(indexes, [1 << 69]).masks.dtype == object
    assert [analyzer.cost(s) for s in subsets] == [
        evaluator.workload_cost(workload, Configuration(indexes=frozenset(s)))
        for s in subsets]
