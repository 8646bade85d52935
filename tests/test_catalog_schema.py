"""Unit tests for Catalog, Table, Index, partitions and the size model."""

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.catalog import (
    Catalog,
    Column,
    DataType,
    Distribution,
    HorizontalPartitioning,
    Index,
    Table,
    VerticalFragment,
    VerticalLayout,
)
from repro.catalog import pagemodel
from repro.util import CatalogError, clamp, ndtri

from oracle import fragments_for_reference


def small_table(name="t", rows=10_000):
    return Table(
        name,
        [
            Column("a", DataType.INT, Distribution(kind="uniform_int", low=0, high=999)),
            Column("b", DataType.DOUBLE, Distribution(kind="uniform", low=0, high=1)),
            Column("c", DataType.TEXT, Distribution(kind="uniform_int", low=0, high=9)),
        ],
        row_count=rows,
    ).build_stats()


class TestPageModel:
    def test_heap_pages_grow_with_rows(self):
        assert pagemodel.heap_pages(1_000_000, 40) > pagemodel.heap_pages(1000, 40)

    def test_heap_pages_grow_with_width(self):
        assert pagemodel.heap_pages(10_000, 400) > pagemodel.heap_pages(10_000, 4)

    def test_empty_table_has_one_page(self):
        assert pagemodel.heap_pages(0, 40) == 1

    def test_btree_height_increases(self):
        __, h_small, __ = pagemodel.btree_shape(1000, 12)
        __, h_big, __ = pagemodel.btree_shape(100_000_000, 12)
        assert h_big > h_small

    def test_btree_total_exceeds_leaves(self):
        total, __, leaves = pagemodel.btree_shape(1_000_000, 12)
        assert total > leaves

    def test_ceil_div_rejects_zero(self):
        with pytest.raises(ValueError):
            pagemodel.ceil_div(10, 0)


class TestTable:
    def test_duplicate_column_rejected(self):
        cols = [Column("a", DataType.INT), Column("a", DataType.INT)]
        with pytest.raises(CatalogError):
            Table("t", cols)

    def test_uppercase_name_rejected(self):
        with pytest.raises(CatalogError):
            Table("Bad", [Column("a", DataType.INT)])

    def test_row_width_projection(self):
        t = small_table()
        assert t.row_width(["a"]) == 4
        assert t.row_width(["a", "b"]) == 12
        assert t.row_width() == t.row_width(["a", "b", "c"])

    def test_projection_pages_smaller_than_full(self):
        t = small_table(rows=100_000)
        assert t.projection_pages(["a"]) < t.pages

    def test_projection_pages_are_the_heap_pages_of_the_projection(self):
        t = small_table(rows=100_000)
        first = t.projection_pages(("a", "b"))
        assert first == pagemodel.heap_pages(
            t.row_count, t.row_width(("a", "b")) + 8
        )
        assert t.projection_pages(["a", "b"]) == first  # served again
        assert t._projection_pages == {("a", "b"): first}

    def test_index_shape_is_the_btree_shape_of_its_key(self):
        t = small_table(rows=100_000)
        ix = Index("t", ("a", "b"))
        first = t.index_shape(ix)
        assert first == pagemodel.btree_shape(t.row_count, ix.key_width(t))
        assert t.index_shape(Index("t", ("a", "b"))) == first  # served again
        assert list(t._index_shapes.values()) == [first]

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            small_table().column("zzz")


class TestIndex:
    def test_name_autogenerated(self):
        ix = Index("t", ("a", "b"))
        assert ix.name == "ix_t_a_b"

    def test_indexes_are_hashable_and_equal_by_value(self):
        assert Index("t", ("a",)) == Index("t", ("a",))
        assert len({Index("t", ("a",)), Index("t", ("a",))}) == 1

    def test_covers(self):
        ix = Index("t", ("a",), include=("b",))
        assert ix.covers({"a", "b"})
        assert not ix.covers({"a", "c"})

    def test_size_grows_with_columns(self):
        t = small_table(rows=500_000)
        assert Index("t", ("a", "b")).size_pages(t) > Index("t", ("a",)).size_pages(t)

    def test_build_cost_positive_and_grows(self):
        t1, t2 = small_table("t", 1000), small_table("t", 1_000_000)
        ix = Index("t", ("a",))
        assert 0 < ix.build_cost(t1) < ix.build_cost(t2)

    def test_sizing_against_wrong_table_raises(self):
        other = small_table("other")
        with pytest.raises(CatalogError):
            Index("t", ("a",)).size_pages(other)

    def test_empty_columns_rejected(self):
        with pytest.raises(CatalogError):
            Index("t", ())

    def test_sql_rendering(self):
        assert Index("t", ("a",)).sql() == "CREATE INDEX ix_t_a ON t (a)"


class TestCatalog:
    def test_add_and_lookup(self):
        cat = Catalog()
        t = cat.add_table(small_table())
        assert cat.table("t") is t
        assert cat.table_names == ["t"]

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.add_table(small_table())
        with pytest.raises(CatalogError):
            cat.add_table(small_table())

    def test_index_on_unknown_column_rejected(self):
        cat = Catalog()
        cat.add_table(small_table())
        with pytest.raises(CatalogError):
            cat.add_index(Index("t", ("nope",)))

    def test_readding_same_index_is_idempotent(self):
        cat = Catalog()
        cat.add_table(small_table())
        cat.add_index(Index("t", ("a",)))
        cat.add_index(Index("t", ("a",)))
        assert len(cat.indexes) == 1

    def test_clone_isolates_design(self):
        cat = Catalog()
        cat.add_table(small_table())
        clone = cat.clone()
        clone.add_index(Index("t", ("a",)))
        assert not cat.indexes
        assert len(clone.indexes) == 1

    def test_design_size_counts_indexes(self):
        cat = Catalog()
        t = cat.add_table(small_table(rows=200_000))
        assert cat.design_size_pages() == 0
        ix = cat.add_index(Index("t", ("a",)))
        assert cat.design_size_pages() == ix.size_pages(t)


class TestVerticalLayout:
    def make_layout(self, replicate=False):
        frags = [
            VerticalFragment("t", ("a",)),
            VerticalFragment("t", ("b", "c") if not replicate else ("a", "b", "c")),
        ]
        return VerticalLayout("t", tuple(frags))

    def test_coverage_validation(self):
        cat = Catalog()
        cat.add_table(small_table())
        bad = VerticalLayout("t", (VerticalFragment("t", ("a",)),))
        with pytest.raises(CatalogError):
            cat.set_vertical_layout(bad)

    def test_fragments_for_prefers_narrow_cover(self):
        layout = self.make_layout()
        chosen = layout.fragments_for({"a"})
        assert len(chosen) == 1
        assert chosen[0].columns == ("a",)

    def test_fragments_for_multi(self):
        layout = self.make_layout()
        chosen = layout.fragments_for({"a", "b"})
        assert {c for f in chosen for c in f.columns} >= {"a", "b"}

    def test_replication_pages_positive_when_replicated(self):
        t = small_table(rows=500_000)
        assert self.make_layout(replicate=True).replication_pages(t) > 0

    def test_uncoverable_columns_raise(self):
        layout = self.make_layout()
        with pytest.raises(CatalogError):
            layout.fragments_for({"zzz"})

    def test_hash_is_the_field_hash_computed_once(self):
        """Layouts, fragments and indexes are memo keys on the pricing
        hot path: each hashes like the tuple of its fields (so equal
        objects built separately collide, in sets and in pickles), and
        probing one re-hashes none of the tree below it."""
        layout, twin = self.make_layout(), self.make_layout()
        assert layout is not twin and layout == twin
        assert hash(layout) == hash(twin) \
            == hash(("t", layout.fragments))
        assert len({layout, twin}) == 1
        fragment = layout.fragments[1]
        assert hash(fragment) == hash(("t", ("b", "c"), "t__b_c"))
        index = Index("t", ["a"], include=["b"])
        assert index == Index("t", ("a",), include=("b",))
        assert hash(index) == hash(
            ("t", ("a",), ("b",), "ix_t_a_inc_b")
        )
        for thing in (layout, fragment, index):
            copy = pickle.loads(pickle.dumps(thing))
            assert copy == thing and hash(copy) == hash(thing)
            assert repr(copy) == repr(thing) and "_hash" not in repr(thing)

        class CountedStr(str):
            hashed = 0

            def __hash__(self):
                CountedStr.hashed += 1
                return str.__hash__(self)

        fragment = VerticalFragment("t", (CountedStr("a"),))
        layout = VerticalLayout("t", (fragment, VerticalFragment("t", ("b",))))
        index = Index("t", (CountedStr("c"),))
        built = CountedStr.hashed
        assert built
        table = {layout: 1, fragment: 2, index: 3}
        for __ in range(5):
            assert (table[layout], table[fragment], table[index]) == (1, 2, 3)
        assert CountedStr.hashed == built

    @pytest.mark.parametrize("seed", range(8))
    def test_fragments_for_equals_the_unfiltered_greedy_cover(self, seed):
        """Same fragments in the same order as the reference walk, on
        layouts with replicated columns and score ties."""
        rng = random.Random(seed)
        columns = ["c%d" % i for i in range(rng.randint(3, 12))]
        for __ in range(40):
            shuffled = rng.sample(columns, len(columns))
            cuts = sorted(rng.sample(range(1, len(columns)), rng.randint(1, 2)))
            groups = [
                tuple(shuffled[a:b])
                for a, b in zip([0] + cuts, cuts + [len(columns)])
            ]
            for __ in range(rng.randint(0, 3)):  # replicas, some duplicated
                groups.append(tuple(rng.sample(columns, rng.randint(1, 3))))
            layout = VerticalLayout(
                "t", tuple(VerticalFragment("t", cols) for cols in groups)
            )
            needed = set(rng.sample(columns, rng.randint(1, len(columns))))
            assert layout.fragments_for(needed) == fragments_for_reference(
                layout, needed
            )


class TestHorizontalPartitioning:
    def test_bounds_must_increase(self):
        with pytest.raises(CatalogError):
            HorizontalPartitioning("t", "a", (5, 5))

    def test_partition_count(self):
        part = HorizontalPartitioning("t", "a", (10, 20, 30))
        assert part.partition_count == 4

    def test_matching_partitions_pruning(self):
        part = HorizontalPartitioning("t", "a", (10, 20, 30))
        assert part.matching_partitions(12, 18) == [1]
        assert part.matching_partitions(None, 5) == [0]
        assert part.matching_partitions(35, None) == [3]
        assert part.matching_partitions(None, None) == [0, 1, 2, 3]

    def test_catalog_checks_partition_column(self):
        cat = Catalog()
        cat.add_table(small_table())
        with pytest.raises(CatalogError):
            cat.set_horizontal_partitioning(HorizontalPartitioning("t", "zzz", (1,)))

    def test_catalog_refuses_text_bounds_on_a_number_column(self):
        """Bounds are compared with the column's filter values: text
        bounds on a number column are refused, not a TypeError when a
        statement is priced."""
        cat = Catalog()
        cat.add_table(small_table())
        with pytest.raises(CatalogError, match="text bounds"):
            cat.set_horizontal_partitioning(
                HorizontalPartitioning("t", "a", ("x", "y")))


class TestNormalQuantilesWithoutScipyStats:
    """``ColumnStats.synthetic`` computes normal quantiles as
    ``ndtri(q) * sigma + mu`` — ``scipy.stats.norm.ppf``'s own arithmetic
    — on the in-repo port of Cephes ``ndtri`` (the test may import
    scipy; ``src/`` may not outside the MILP solver)."""

    @staticmethod
    def reference_bounds(dist, n_buckets=100):
        from scipy.stats import norm

        eps = 1.0 / (10.0 * n_buckets)
        return [
            float(norm.ppf(min(max(i / n_buckets, eps), 1.0 - eps),
                           loc=dist.mu, scale=dist.sigma))
            for i in range(n_buckets + 1)
        ]

    def test_every_normal_catalog_column_equals_norm_ppf(self):
        from repro import sdss_catalog, tpch_catalog

        checked = 0
        for catalog in (sdss_catalog(), tpch_catalog()):
            for table in catalog.tables:
                for column in table.columns:
                    dist = column.distribution
                    if dist is not None and dist.kind == "normal":
                        assert column.stats.histogram == \
                            self.reference_bounds(dist), column.name
                        checked += 1
        assert checked >= 10  # the SDSS magnitudes, radii, seeing, ...

    def test_fuzzed_normals_equal_norm_ppf(self):
        from repro.catalog.stats import ColumnStats

        rng = random.Random(19)
        for __ in range(60):
            dist = Distribution(
                kind="normal",
                mu=rng.uniform(-1e3, 1e3),
                sigma=rng.choice((1e-6, 1.0, 1e4)) * rng.uniform(0.1, 10.0),
            )
            buckets = rng.choice((1, 7, 100))
            stats = ColumnStats.synthetic(1000, dist, 8, n_buckets=buckets)
            assert stats.histogram == self.reference_bounds(dist, buckets)

    def test_ndtri_equals_scipy_on_every_synthetic_quantile(self):
        """Every clamped quantile ``synthetic`` asks for with 1 to 1000
        buckets."""
        from scipy.special import ndtri as reference

        qs = set()
        for n_buckets in range(1, 1001):
            eps = 1.0 / (10.0 * n_buckets)
            qs.update(clamp(i / n_buckets, eps, 1.0 - eps)
                      for i in range(n_buckets + 1))
        qs = sorted(qs)
        assert [ndtri(q) for q in qs] == reference(qs).tolist()

    @given(q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
           # below exp(-32), about 1.27e-14, on either side: the third
           # coefficient table
           | st.floats(0.0, 1e-14, exclude_min=True)
           | st.floats(1.0 - 1e-14, 1.0, exclude_max=True))
    def test_ndtri_equals_scipy_on_drawn_probabilities(self, q):
        from scipy.special import ndtri as reference

        assert ndtri(q) == float(reference(q))
