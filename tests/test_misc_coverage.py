"""Coverage for surfaces the focused suites skip: rendering, settings
plumbing, utility helpers, and small error paths."""

import io
from dataclasses import replace

import pytest

from repro.catalog import Index
from repro.designer.cli import main as cli_main
from repro.optimizer import CostService, PlannerSettings
from repro.util import align8, ceil_div, clamp, safe_log2
from repro.util.errors import (
    BindError,
    CatalogError,
    DesignError,
    ParseError,
    PlanningError,
    ReproError,
)


class TestUtilHelpers:
    def test_align8(self):
        assert align8(0) == 0
        assert align8(1) == 8
        assert align8(8) == 8
        assert align8(9) == 16

    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_clamp(self):
        assert clamp(5, 0, 10) == 5
        assert clamp(-1, 0, 10) == 0
        assert clamp(99, 0, 10) == 10
        with pytest.raises(ValueError):
            clamp(1, 10, 0)

    def test_safe_log2(self):
        assert safe_log2(8) == 3.0
        assert safe_log2(1) == 1.0
        assert safe_log2(0) == 1.0

    def test_error_hierarchy(self):
        for exc in (CatalogError, ParseError, BindError, PlanningError, DesignError):
            assert issubclass(exc, ReproError)

    def test_parse_error_carries_position(self):
        err = ParseError("bad", position=7)
        assert err.position == 7


class TestExplainRendering:
    def test_all_scan_nodes_render(self, sdss_with_indexes):
        svc = CostService(sdss_with_indexes)
        texts = [
            svc.explain("SELECT ra FROM photoobj WHERE ra BETWEEN 1 AND 2"),
            svc.explain("SELECT ra, dec FROM photoobj WHERE dec BETWEEN 0 AND 4"),
            svc.explain("SELECT ra FROM photoobj"),
        ]
        combined = "\n".join(texts)
        assert "cost=" in combined and "rows=" in combined

    def test_join_tree_renders_with_indentation(self, sdss_catalog):
        svc = CostService(sdss_catalog)
        text = svc.explain(
            "SELECT p.ra, s.z FROM photoobj p, specobj s WHERE p.objid = s.objid"
        )
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("  ->")

    def test_aggregate_and_sort_render(self, sdss_catalog):
        svc = CostService(sdss_catalog)
        text = svc.explain(
            "SELECT type, COUNT(*) FROM photoobj GROUP BY type ORDER BY type"
        )
        assert "Aggregate" in text

    def test_limit_renders_count(self, sdss_catalog):
        text = CostService(sdss_catalog).explain("SELECT ra FROM photoobj LIMIT 3")
        assert "Limit 3" in text


class TestSettingsPlumbing:
    def test_replace_returns_new_object(self):
        base = PlannerSettings()
        changed = replace(base, random_page_cost=2.0)
        assert changed.random_page_cost == 2.0
        assert base.random_page_cost == 4.0

    @pytest.mark.parametrize("absurd", [
        {"work_mem": 0},  # was a ZeroDivisionError inside hashjoin_path
        {"work_mem": float("nan")},
        {"cpu_operator_cost": float("nan")},  # priced every statement nan
        {"seq_page_cost": -1.0},  # ... and this one negative
        {"random_page_cost": float("inf")},
        {"cpu_tuple_cost": -0.01},
        {"cpu_index_tuple_cost": float("-inf")},
    ], ids=lambda absurd: "%s=%s" % next(iter(absurd.items())))
    def test_absurd_constants_are_refused_at_construction(self, absurd):
        """Path sets are kept and searched in cost order, so a constant
        that can make a cost nan, negative or infinite never reaches a
        plan: a typed error, from the constructor and from
        ``dataclasses.replace`` alike."""
        (name,) = absurd
        with pytest.raises(DesignError, match=name):
            PlannerSettings(**absurd)
        with pytest.raises(DesignError, match=name):
            replace(PlannerSettings(), **absurd)

    def test_boundary_constants_are_accepted(self):
        free = PlannerSettings(
            seq_page_cost=0.0, cpu_operator_cost=0, work_mem=1,
        )
        assert free.work_mem == 1

    def test_higher_random_page_cost_discourages_index(self, sdss_with_indexes):
        sql = "SELECT ra, rmag FROM photoobj WHERE ra BETWEEN 10 AND 40"
        cheap_random = CostService(
            sdss_with_indexes, PlannerSettings(random_page_cost=1.1)
        )
        dear_random = CostService(
            sdss_with_indexes, PlannerSettings(random_page_cost=40.0)
        )
        assert dear_random.cost(sql) >= cheap_random.cost(sql)


class TestCliDrops:
    FAST = ["--scale", "0.01", "--queries", "6", "--seed", "1"]

    def run(self, argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    def test_drops_flags_useless_index(self):
        code, text = self.run(
            self.FAST + ["drops", "--indexes", "photoobj:skyversion"]
        )
        assert code == 0
        assert "DROP INDEX" in text
        assert "skyversion" in text

    def test_drops_on_clean_catalog(self):
        code, text = self.run(self.FAST + ["drops"])
        assert code == 0
        assert "every existing index is used" in text


class TestWorkloadDescribe:
    def test_describe_truncates(self):
        from repro.workloads import Workload

        wl = Workload(["SELECT a FROM t"] * 20)
        text = wl.describe(limit=3)
        assert "more" in text

    def test_catalog_describe_lists_design(self, sdss_with_indexes):
        text = sdss_with_indexes.describe()
        assert "photoobj" in text and "index" in text
