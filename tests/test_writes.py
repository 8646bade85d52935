"""Tests for write statements: parsing, binding, costing, and the
index-maintenance tradeoff through the whole designer stack."""

import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import Index, VerticalFragment, VerticalLayout
from repro.cophy import CoPhyAdvisor
from repro.evaluation import Lattice, WorkloadEvaluator
from repro.optimizer import CostService
from repro.optimizer.writecost import (
    affected_rows,
    index_maintenance_cost_per_row,
    locate_query,
)
from repro.sql import bind_statement, parse_statement
from repro.sql.astnodes import DeleteStatement, InsertStatement, UpdateStatement
from repro.sql.binder import BoundWrite
from repro.util import BindError, ParseError, PlanningError
from repro.whatif import Configuration


class TestParsing:
    def test_update(self):
        stmt = parse_statement(
            "UPDATE photoobj SET status = 5, flags = 0 WHERE run = 99"
        )
        assert isinstance(stmt, UpdateStatement)
        assert [c for c, __ in stmt.assignments] == ["status", "flags"]
        assert len(stmt.predicates) == 1

    def test_update_without_where(self):
        stmt = parse_statement("UPDATE photoobj SET status = 5")
        assert stmt.predicates == ()

    def test_insert_counts_rows(self):
        stmt = parse_statement("INSERT INTO neighbors VALUES (1, 2, 0.5), (3, 4, 0.1)")
        assert isinstance(stmt, InsertStatement)
        assert stmt.n_rows == 2

    def test_delete(self):
        stmt = parse_statement("DELETE FROM specobj WHERE z < 0.01")
        assert isinstance(stmt, DeleteStatement)

    def test_select_still_parses(self):
        from repro.sql.astnodes import Query

        assert isinstance(parse_statement("SELECT ra FROM photoobj"), Query)

    def test_unsupported_statement(self):
        with pytest.raises(ParseError):
            parse_statement("DROP TABLE t")

    def test_update_unparse_round_trip(self):
        stmt = parse_statement("UPDATE photoobj SET status = 5 WHERE run = 99")
        assert parse_statement(stmt.unparse()) == stmt


class TestBinding:
    def test_update_binds(self, sdss_catalog):
        bw = bind_statement(
            "UPDATE photoobj SET status = 5 WHERE rmag < 15", sdss_catalog
        )
        assert isinstance(bw, BoundWrite)
        assert bw.kind == "update"
        assert bw.set_columns == ("status",)
        assert bw.filters[0].column == "rmag"
        assert bw.is_write

    def test_unknown_set_column_rejected(self, sdss_catalog):
        with pytest.raises(BindError):
            bind_statement("UPDATE photoobj SET nope = 5", sdss_catalog)

    def test_touches_index_update(self, sdss_catalog):
        bw = bind_statement("UPDATE photoobj SET status = 5", sdss_catalog)
        assert bw.touches_index(Index("photoobj", ("status",)))
        assert bw.touches_index(Index("photoobj", ("ra",), include=("status",)))
        assert not bw.touches_index(Index("photoobj", ("ra",)))
        assert not bw.touches_index(Index("specobj", ("z",)))

    def test_touches_index_insert_and_delete(self, sdss_catalog):
        ins = bind_statement("INSERT INTO specobj VALUES (1, 2, 0.5, 0, 1)", sdss_catalog)
        dele = bind_statement("DELETE FROM specobj WHERE z > 6", sdss_catalog)
        any_index = Index("specobj", ("zerr",))
        assert ins.touches_index(any_index)
        assert dele.touches_index(any_index)

    def test_affected_rows(self, sdss_catalog):
        bw = bind_statement(
            "UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 36",
            sdss_catalog,
        )
        assert affected_rows(bw) == pytest.approx(100_000, rel=0.1)
        ins = bind_statement("INSERT INTO specobj VALUES (1,2,3,4,5)", sdss_catalog)
        assert affected_rows(ins) == 1.0


class TestWriteCosting:
    def test_more_indexes_cost_more(self, sdss_catalog):
        sql = "UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 3"
        bare = CostService(sdss_catalog).cost(sql)
        indexed = sdss_catalog.clone()
        indexed.add_index(Index("photoobj", ("status",)))
        indexed.add_index(Index("photoobj", ("status", "flags")))
        with_ix = CostService(indexed).cost(sql)
        assert with_ix > bare

    def test_untouched_index_is_free_for_updates(self, sdss_catalog):
        sql = "UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 3"
        indexed = sdss_catalog.clone()
        indexed.add_index(Index("specobj", ("z",)))  # different table
        # An index helping the locate step may *reduce* the cost; an
        # unrelated-table index must change nothing.
        assert CostService(indexed).cost(sql) == pytest.approx(
            CostService(sdss_catalog).cost(sql)
        )

    def test_index_helps_locate_step(self, sdss_catalog):
        sql = "DELETE FROM photoobj WHERE ra BETWEEN 10 AND 10.2"
        indexed = sdss_catalog.clone()
        indexed.add_index(Index("photoobj", ("ra",)))
        assert CostService(indexed).cost(sql) < CostService(sdss_catalog).cost(sql)

    def test_plan_raises_for_writes(self, sdss_catalog):
        with pytest.raises(PlanningError):
            CostService(sdss_catalog).plan("DELETE FROM specobj WHERE z > 1")

    def test_maintenance_grows_with_index_height(self, sdss_catalog):
        table = sdss_catalog.table("photoobj")
        narrow = Index("photoobj", ("type",))
        wide = Index(
            "photoobj", ("ra", "dec"), include=("rmag", "gmag", "flags")
        )
        from repro.optimizer import PlannerSettings

        settings = PlannerSettings()
        assert index_maintenance_cost_per_row(
            wide, table, settings
        ) >= index_maintenance_cost_per_row(narrow, table, settings)

    def test_locate_query_shape(self, sdss_catalog):
        bw = bind_statement(
            "UPDATE photoobj SET status = 1 WHERE rmag < 15", sdss_catalog
        )
        locate = locate_query(bw)
        assert locate.filters_for("photoobj")[0].column == "rmag"
        assert ("photoobj", "status") in locate.select_columns


class TestInumWrites:
    def test_inum_matches_cost_service(self, sdss_catalog):
        statements = [
            "UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 3",
            "INSERT INTO specobj VALUES (1, 2, 0.5, 0.01, 1)",
            "DELETE FROM specobj WHERE z > 6.9",
        ]
        config = Configuration.of(
            Index("photoobj", ("ra",)), Index("specobj", ("z",))
        )
        inum = WorkloadEvaluator(sdss_catalog)
        svc = CostService(config.apply(sdss_catalog))
        for sql in statements:
            assert inum.cost(sql, config) == pytest.approx(svc.cost(sql), rel=0.01)

    def test_write_usage_reports_maintained_indexes(self, sdss_catalog):
        config = Configuration.of(
            Index("photoobj", ("status",)), Index("photoobj", ("ra",))
        )
        inum = WorkloadEvaluator(sdss_catalog)
        __, used = inum.cost_with_usage(
            "UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 1", config
        )
        assert Index("photoobj", ("status",)) in used  # maintained
        assert Index("photoobj", ("ra",)) in used  # locates the rows

    def test_write_usage_names_nothing_else(self, sdss_catalog):
        """An index on another table is neither maintained nor read."""
        config = Configuration.of(
            Index("photoobj", ("status",)),
            Index("photoobj", ("ra",)),
            Index("specobj", ("z",)),
        )
        inum = WorkloadEvaluator(sdss_catalog)
        __, used = inum.cost_with_usage(
            "UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 1", config
        )
        assert used == {Index("photoobj", ("status",)),
                        Index("photoobj", ("ra",))}

    def test_insert_usage_is_what_it_maintains(self, sdss_catalog):
        """An insert locates nothing: its usage is every index of its
        table and no other."""
        config = Configuration.of(
            Index("photoobj", ("ra",)), Index("specobj", ("z",))
        )
        __, used = WorkloadEvaluator(sdss_catalog).cost_with_usage(
            "INSERT INTO specobj VALUES (1, 2, 0.5, 0.01, 1)", config
        )
        assert used == {Index("specobj", ("z",))}

    @pytest.mark.parametrize("sql", [
        "UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 3",
        "INSERT INTO specobj VALUES (1, 2, 0.5, 0.01, 1)",
        "DELETE FROM specobj WHERE z > 6.9",
    ], ids=["update", "insert", "delete"])
    def test_write_usage_costs_what_cost_does(self, sdss_catalog, sql):
        config = Configuration.of(
            Index("photoobj", ("ra",)), Index("specobj", ("z",))
        )
        inum = WorkloadEvaluator(sdss_catalog)
        cost, __ = inum.cost_with_usage(sql, config)
        assert cost == inum.cost(sql, config)


class TestAdvisorWriteTradeoff:
    def test_write_heavy_workload_gets_fewer_indexes(self, sdss_catalog):
        reads = [
            ("SELECT objid FROM photoobj WHERE status = 17", 1.0),
            ("SELECT objid FROM photoobj WHERE flags = 12345", 1.0),
            ("SELECT ra FROM photoobj WHERE ra BETWEEN 5 AND 6", 1.0),
        ]
        writes = [
            ("UPDATE photoobj SET status = 1, flags = 2 WHERE objid = 7", 50_000.0),
        ]
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        budget = 10**6
        read_only = advisor.recommend(reads, budget)
        mixed = advisor.recommend(reads + writes, budget)
        read_only_names = {ix.name for ix in read_only.indexes}
        mixed_names = {ix.name for ix in mixed.indexes}
        # The status/flags indexes pay for themselves only without the
        # update storm; the positional index survives either way.
        assert any("status" in n or "flags" in n for n in read_only_names)
        assert not any("status" in n or "flags" in n for n in mixed_names)
        assert any("objid" in n or "ra" in n for n in mixed_names)

    def test_bip_penalties_populated(self, sdss_catalog):
        from repro.cophy import build_bip, candidate_indexes

        workload = [
            ("SELECT objid FROM photoobj WHERE status = 17", 1.0),
            ("UPDATE photoobj SET status = 1 WHERE objid = 7", 100.0),
        ]
        inum = WorkloadEvaluator(sdss_catalog)
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=8)
        problem = build_bip(inum, workload, candidates, budget_pages=10**6)
        assert problem.write_base_cost > 0
        status_pos = [
            pos for pos, ix in enumerate(candidates) if "status" in ix.name
        ]
        assert status_pos and all(
            problem.index_penalties[pos] > 0 for pos in status_pos
        )

    def test_config_cost_includes_penalties(self, sdss_catalog):
        from repro.cophy import build_bip, candidate_indexes

        workload = [
            ("SELECT objid FROM photoobj WHERE status = 17", 1.0),
            ("UPDATE photoobj SET status = 1 WHERE objid = 7", 100.0),
        ]
        inum = WorkloadEvaluator(sdss_catalog)
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=8)
        problem = build_bip(inum, workload, candidates, budget_pages=10**6)
        target = next(
            pos for pos, ix in enumerate(candidates) if "status" in ix.name
        )
        with_pen = problem.config_cost((target,))
        # Under INUM the same configuration must cost about the same —
        # the BIP's conservative write handling may only overestimate.
        config = Configuration.of(candidates[target])
        exact = inum.workload_cost(workload, config)
        assert with_pen >= exact - 1e-6


class TestBipInumEquivalence:
    """The BIP's objective must coincide with INUM's exact cost for any
    configuration of candidates — including mixed read/write workloads.
    This is CoPhy's quality guarantee carried over to writes."""

    def test_random_configs_match(self, sdss_catalog):
        import random

        from repro.cophy import build_bip, candidate_indexes

        workload = [
            ("SELECT objid FROM photoobj WHERE status = 17", 1.0),
            ("SELECT ra FROM photoobj WHERE ra BETWEEN 5 AND 6", 2.0),
            ("SELECT p.ra, s.z FROM photoobj p, specobj s "
             "WHERE p.objid = s.objid AND s.z > 6.8", 1.0),
            ("UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 2", 40.0),
            ("DELETE FROM specobj WHERE z > 6.99", 10.0),
            ("INSERT INTO specobj VALUES (1, 2, 0.5, 0.01, 1)", 25.0),
        ]
        inum = WorkloadEvaluator(sdss_catalog)
        candidates = candidate_indexes(sdss_catalog, workload, max_candidates=10)
        problem = build_bip(inum, workload, candidates, budget_pages=10**7)

        rng = random.Random(3)
        for __ in range(6):
            chosen = tuple(
                sorted(rng.sample(range(len(candidates)), rng.randint(0, 4)))
            )
            config = Configuration.of(*(candidates[p] for p in chosen))
            assert problem.config_cost(chosen) == pytest.approx(
                inum.workload_cost(workload, config), rel=1e-6
            ), chosen

    def test_advisor_prediction_matches_optimizer_with_writes(self, sdss_catalog):
        workload = [
            ("SELECT objid FROM photoobj WHERE status = 17", 1.0),
            ("UPDATE photoobj SET status = 1 WHERE ra BETWEEN 0 AND 2", 40.0),
        ]
        advisor = CoPhyAdvisor(WorkloadEvaluator(sdss_catalog))
        rec = advisor.recommend(workload, budget_pages=10**6)
        real = CostService(rec.configuration.apply(sdss_catalog)).workload_cost(
            workload
        )
        assert rec.predicted_workload_cost == pytest.approx(real, rel=0.02)


class TestGeneratorWrites:
    """These use the full SDSS generator schema (the write templates touch
    columns the slim test fixture does not have)."""

    def test_write_fraction_produces_writes(self):
        from repro.workloads import sdss_catalog as full_catalog, sdss_workload

        catalog = full_catalog(scale=0.01)
        wl = sdss_workload(n_queries=40, seed=3, write_fraction=0.5)
        kinds = [bind_statement(sql, catalog).is_write for sql, __ in wl]
        assert any(kinds) and not all(kinds)

    def test_zero_fraction_is_read_only(self):
        from repro.workloads import sdss_workload

        wl = sdss_workload(n_queries=30, seed=3, write_fraction=0.0)
        assert all(sql.startswith("SELECT") for sql, __ in wl)

    def test_writes_cost_through_workload(self):
        from repro.workloads import sdss_catalog as full_catalog, sdss_workload

        catalog = full_catalog(scale=0.01)
        wl = sdss_workload(n_queries=20, seed=3, write_fraction=0.4, write_weight=10.0)
        assert CostService(catalog).workload_cost(wl) > 0


# ----------------------------------------------------------------------
# Writes on the kernel: the batch seams equal the scalar walk.
# ----------------------------------------------------------------------


@functools.cache
def kernel_env():
    """The full SDSS schema, one statement per template plus hand-made
    deletes, updates and inserts on the tables the index pool covers,
    a batch evaluator and an independent per-call reference model."""
    from repro.workloads import sdss
    from repro.workloads import sdss_catalog as full_catalog

    catalog = full_catalog(scale=0.05)
    rng = random.Random(11)
    statements = [maker(rng) for __, maker in sorted(sdss.TEMPLATE_REGISTRY.items())]
    statements += [
        "DELETE FROM specobj WHERE z < 0.05",
        "DELETE FROM photoobj WHERE run = 752 AND camcol = 3",
        "UPDATE specobj SET zerr = 0.5 WHERE z > 6.5",
        "UPDATE photoobj SET rmag = 18.5 WHERE objid = 1234",
        "INSERT INTO specobj VALUES (1, 2, 0.5, 0.01, 0.9, 1, 266, 51630, 9.5)",
        "UPDATE neighbors SET distance = 0.1",
    ]
    pool = [
        Index("photoobj", ("run",)), Index("photoobj", ("objid",)),
        Index("photoobj", ("status",)), Index("photoobj", ("rmag",)),
        Index("photoobj", ("ra", "dec")), Index("specobj", ("z",)),
        Index("specobj", ("zerr",)), Index("specobj", ("bestobjid",)),
        Index("neighbors", ("objid",)), Index("neighbors", ("distance",)),
    ]
    return (catalog, statements, pool, WorkloadEvaluator(catalog),
            WorkloadEvaluator(catalog))


@st.composite
def layouts(draw, table):
    """A vertical layout of *table*: columns dealt into one to three
    fragments, and maybe a replicated fragment on top."""
    columns = table.column_names
    homes = draw(st.lists(st.integers(0, 2), min_size=len(columns),
                          max_size=len(columns)))
    groups = {}
    for column, home in zip(columns, homes):
        groups.setdefault(home, []).append(column)
    fragments = [VerticalFragment(table.name, tuple(cols))
                 for __, cols in sorted(groups.items())]
    replica = draw(st.lists(st.sampled_from(columns), unique=True,
                            max_size=4))
    if replica:
        fragments.append(VerticalFragment(table.name, tuple(replica)))
    return VerticalLayout(table.name, tuple(fragments))


@st.composite
def kernel_cases(draw):
    catalog, statements, pool, __, __ = kernel_env()
    workload = draw(st.lists(
        st.tuples(st.sampled_from(statements),
                  st.sampled_from([1.0, 0.5, 3.0, 1000.0, 1e-3])),
        min_size=1, max_size=8,
    ))
    configs = []
    for __ in range(draw(st.integers(1, 4))):
        indexes = draw(st.frozensets(st.sampled_from(pool), max_size=4))
        chosen = draw(st.lists(st.sampled_from(["photoobj", "specobj"]),
                               unique=True, max_size=2))
        configs.append(Configuration(
            indexes=indexes,
            layouts=tuple(draw(layouts(catalog.table(name)))
                          for name in chosen),
        ))
    return workload, configs


@st.composite
def lattice_cases(draw):
    """A drawn workload, an index tuple from the pool and masks over it
    (repeats allowed)."""
    __, statements, pool, __, __ = kernel_env()
    workload = draw(st.lists(
        st.tuples(st.sampled_from(statements),
                  st.sampled_from([1.0, 0.5, 3.0, 1000.0, 1e-3])),
        min_size=1, max_size=8,
    ))
    indexes = draw(st.lists(st.sampled_from(pool), unique=True, max_size=6))
    masks = draw(st.lists(st.integers(0, 2 ** len(indexes) - 1),
                          min_size=1, max_size=12))
    return workload, indexes, masks


def lattice_configurations(indexes, masks):
    """The configuration each mask of a lattice names."""
    return [Configuration(indexes=frozenset(
        ix for i, ix in enumerate(indexes) if mask >> i & 1))
        for mask in masks]


class TestWritesPricedOnTheKernel:
    """``evaluate_many`` and ``evaluate_deltas`` price a write as heap,
    plus maintenance per index set of the written table, plus its
    locate query's kernel row — in ``_write_cost``'s addition order, so
    every cell and total equals the per-call walk bit for bit; and a
    lattice of index subsets named by bitmask totals what its
    configurations do."""

    @given(case=lattice_cases())
    def test_a_lattice_totals_what_its_configurations_do(self, case):
        workload, indexes, masks = case
        __, __, __, evaluator, reference = kernel_env()
        configs = lattice_configurations(indexes, masks)
        totals = [reference.workload_cost(workload, config)
                  for config in configs]
        lattice = Lattice(indexes, masks)
        assert evaluator.evaluate_configurations(
            workload, configs).totals == totals
        assert evaluator.evaluate_many(workload, lattice).totals == totals
        assert evaluator.evaluate_deltas(
            workload, None, lattice).totals == totals

    def test_a_lattice_larger_than_a_chunk(self):
        """Every subset of nine pool indexes, 512 designs, is priced two
        chunks at a time; each total is the walk's."""
        __, statements, pool, evaluator, reference = kernel_env()
        workload = [(sql, 1.0 + i % 3) for i, sql in enumerate(statements)]
        masks = range(2 ** 9)
        configs = lattice_configurations(pool[:9], masks)
        batch = evaluator.evaluate_many(workload, Lattice(pool[:9], masks))
        assert batch.matrix is None
        assert batch.totals == evaluator.evaluate_configurations(
            workload, configs).totals == [
            reference.workload_cost(workload, config) for config in configs]

    @given(case=kernel_cases())
    def test_batches_equal_the_per_call_walk(self, case):
        workload, configs = case
        __, __, __, evaluator, reference = kernel_env()
        per_call = [[reference.cost(sql, config) for sql, __ in workload]
                    for config in configs]
        totals = [reference.workload_cost(workload, config)
                  for config in configs]
        full = evaluator.evaluate_many(workload, configs)
        delta = evaluator.evaluate_deltas(workload, configs[0], configs)
        for batch in (full, delta):
            assert batch.matrix == per_call
            assert batch.totals == totals

    def test_each_write_under_each_index_set_is_its_walk(self):
        """Every write under the empty design, each pool index alone and
        the whole pool.  The last holds cells where heap + (maintenance
        + locate) is not (heap + maintenance) + locate, so a batch that
        adds in another order fails here on every run, not only when
        the draws above happen to reach such a cell."""
        __, statements, pool, evaluator, reference = kernel_env()
        writes = [(sql, 1.0) for sql in statements
                  if reference.bound(sql).is_write]
        configs = [Configuration.empty(),
                   *(Configuration(indexes=frozenset([ix])) for ix in pool),
                   Configuration(indexes=frozenset(pool))]
        per_call = [[reference.cost(sql, config) for sql, __ in writes]
                    for config in configs]
        assert evaluator.evaluate_many(writes, configs).matrix == per_call
        assert evaluator.evaluate_deltas(
            writes, configs[0], configs).matrix == per_call

    def test_locate_queries_are_kernel_reads(self):
        catalog, statements, __, __, __ = kernel_env()
        evaluator = WorkloadEvaluator(catalog)
        compiled = evaluator._compile([(sql, 1.0) for sql in statements])
        texts = {read: sql for sql, read in compiled.kernel.reads.items()}
        kinds = set()
        for sql, (__, __, write, read) in zip(statements, compiled.positions):
            bq = evaluator.bound(sql)
            assert write is (bq if bq.is_write else None)
            kinds.add(bq.kind if bq.is_write else "select")
            if bq.is_write and bq.kind == "insert":
                assert read is None
                continue
            expected = locate_query(bq).sql if bq.is_write else bq.sql
            assert texts[read] == expected
        assert kinds == {"select", "insert", "update", "delete"}
