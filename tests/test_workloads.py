"""Tests for workload generators: schemas bind, queries plan, seeds repeat."""

import pytest

from repro.optimizer import CostService
from repro.sql import bind_sql
from repro.util import DesignError
from repro.workloads import (
    Workload,
    drifting_stream,
    sdss_catalog,
    sdss_workload,
    tpch_catalog,
    tpch_workload,
)
from repro.workloads import sdss, tpch
from repro.workloads.drift import default_phases, tpch_phases


class TestWorkloadContainer:
    def test_iteration_yields_pairs(self):
        wl = Workload([("SELECT a FROM t", 2.0), "SELECT b FROM t"])
        entries = list(wl)
        assert entries == [("SELECT a FROM t", 2.0), ("SELECT b FROM t", 1.0)]

    def test_rejects_bad_entries(self):
        with pytest.raises(DesignError):
            Workload(["  "])
        with pytest.raises(DesignError):
            Workload([("SELECT a FROM t", 0.0)])

def statements(workload):
    return [sql for sql, __ in workload]


class TestSdssGenerator:
    def test_catalog_shape(self):
        catalog = sdss_catalog(scale=0.01)
        assert set(catalog.table_names) == {
            "photoobj", "specobj", "field", "neighbors",
        }
        assert len(catalog.table("photoobj").columns) == 30

    def test_scale_controls_rows(self):
        small = sdss_catalog(scale=0.01)
        large = sdss_catalog(scale=0.05)
        assert large.table("photoobj").row_count > small.table("photoobj").row_count

    def test_workload_binds_and_plans(self):
        catalog = sdss_catalog(scale=0.01)
        service = CostService(catalog)
        workload = sdss_workload(n_queries=30, seed=1)
        for sql, __ in workload:
            bind_sql(sql, catalog)  # no BindError
            assert service.cost(sql) > 0

    def test_seed_determinism(self):
        a = statements(sdss_workload(n_queries=15, seed=9))
        b = statements(sdss_workload(n_queries=15, seed=9))
        c = statements(sdss_workload(n_queries=15, seed=10))
        assert a == b
        assert a != c

    def test_mix_has_joins_and_aggregates(self):
        texts = statements(sdss_workload(n_queries=60, seed=2))
        assert any("," in s.split("FROM")[1] for s in texts)  # a join
        assert any("GROUP BY" in s for s in texts)


class TestTpchGenerator:
    def test_catalog_shape(self):
        catalog = tpch_catalog(scale=0.01)
        assert set(catalog.table_names) == {
            "lineitem", "orders", "customer", "part", "supplier",
        }

    def test_workload_binds_and_plans(self):
        catalog = tpch_catalog(scale=0.01)
        service = CostService(catalog)
        for sql, __ in tpch_workload(n_queries=20, seed=3):
            assert service.cost(sql) > 0

    def test_seed_determinism(self):
        assert (
            statements(tpch_workload(n_queries=10, seed=4))
            == statements(tpch_workload(n_queries=10, seed=4))
        )


class TestDriftStream:
    def test_phases_in_order(self):
        phases = default_phases(length=5)
        stream = list(drifting_stream(phases, seed=1))
        assert len(stream) == 15
        names = [name for name, __ in stream]
        assert names == ["positional"] * 5 + ["photometric"] * 5 + ["spectral"] * 5

    def test_stream_queries_bind(self):
        catalog = sdss_catalog(scale=0.01)
        for __, sql in drifting_stream(default_phases(length=4), seed=2):
            bind_sql(sql, catalog)

    def test_phases_emphasize_different_columns(self):
        phases = default_phases(length=30)
        stream = list(drifting_stream(phases, seed=1))
        positional = " ".join(sql for name, sql in stream if name == "positional")
        photometric = " ".join(sql for name, sql in stream if name == "photometric")
        assert "ra BETWEEN" in positional
        assert "ra BETWEEN" not in photometric

    def test_seed_determinism(self):
        a = list(drifting_stream(default_phases(length=12), seed=5))
        b = list(drifting_stream(default_phases(length=12), seed=5))
        c = list(drifting_stream(default_phases(length=12), seed=6))
        assert a == b
        assert a != c

    @pytest.mark.parametrize("length", [1, 7, 40])
    def test_exact_phase_boundary_lengths(self, length):
        stream = list(drifting_stream(default_phases(length=length), seed=3))
        phases = default_phases(length=length)
        assert len(stream) == sum(p.length for p in phases)
        position = 0
        for phase in phases:
            chunk = stream[position:position + phase.length]
            assert [name for name, __ in chunk] == [phase.name] * phase.length
            position += phase.length

    def test_weight_mix_sanity_per_phase(self):
        """With many samples each phase's dominant template dominates,
        and only that phase's templates ever appear."""
        phases = default_phases(length=400)
        stream = list(drifting_stream(phases, seed=8))
        markers = {
            # template -> a substring unique to it within its phase
            "positional": [("ra BETWEEN", 0.8), ("n.distance <", 0.2)],
            "photometric": [
                ("err FROM photoobj", 0.55),  # magnitude_cut projects %serr
                ("mode = 1", 0.30),
                ("GROUP BY type", 0.15),
            ],
            "spectral": [
                ("s.z BETWEEN", 0.5),
                ("sn_median >", 0.3),
                ("plate, COUNT(*)", 0.2),
            ],
        }
        for phase in phases:
            sqls = [sql for name, sql in stream if name == phase.name]
            assert len(sqls) == phase.length
            shares = {
                marker: sum(marker in s for s in sqls) / len(sqls)
                for marker, __ in markers[phase.name]
            }
            for marker, expected in markers[phase.name]:
                assert shares[marker] == pytest.approx(expected, abs=0.1), (
                    phase.name, marker, shares)
            # Weighted draws only: the whole phase is covered by its
            # declared templates.
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_tpch_phases_bind_and_have_exact_lengths(self):
        catalog = tpch_catalog(scale=0.01)
        stream = list(drifting_stream(tpch_phases(length=6), seed=2))
        assert len(stream) == 18
        names = [name for name, __ in stream]
        assert names == ["pricing"] * 6 + ["customers"] * 6 + ["supply"] * 6
        for __, sql in stream:
            bind_sql(sql, catalog)


class TestTemplateRegistries:
    """The public registries are the supported way to address template
    makers — drift streams and tests never touch the privates."""

    def test_sdss_registry_covers_all_weighted_mixes(self):
        registered = set(sdss.TEMPLATE_REGISTRY.values())
        for maker, __ in sdss.TEMPLATES + sdss.WRITE_TEMPLATES:
            assert maker in registered

    def test_tpch_registry_covers_all_weighted_mixes(self):
        registered = set(tpch.TEMPLATE_REGISTRY.values())
        for maker, __ in tpch.TEMPLATES:
            assert maker in registered

    def test_lookup_and_unknown_name(self):
        import random

        maker = sdss.template("cone_search")
        assert "FROM photoobj" in maker(random.Random(1))
        with pytest.raises(KeyError, match="cone_search"):
            sdss.template("nope")
        with pytest.raises(KeyError, match="shipping_window"):
            tpch.template("nope")

    def test_registered_makers_produce_binding_sql(self):
        import random

        from repro.sql.binder import bind_statement

        catalog = sdss_catalog(scale=0.01)
        rng = random.Random(4)
        # bind_statement handles the write templates too (updates,
        # inserts), which plain SELECT binding would reject.
        for name, maker in sorted(sdss.TEMPLATE_REGISTRY.items()):
            bind_statement(maker(rng), catalog)
