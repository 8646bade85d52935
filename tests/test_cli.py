"""Tests for the command-line interface."""

import io

import pytest

from repro.designer.cli import main, parse_index_spec
from repro.util import ReproError

FAST = ["--scale", "0.01", "--queries", "6", "--seed", "1"]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestIndexSpecParsing:
    def test_single_column(self):
        ix = parse_index_spec("photoobj:ra")
        assert ix.table_name == "photoobj" and ix.columns == ("ra",)

    def test_multi_column(self):
        ix = parse_index_spec("photoobj:ra,dec")
        assert ix.columns == ("ra", "dec")

    def test_whitespace_tolerated(self):
        ix = parse_index_spec(" photoobj : ra , dec ")
        assert ix.table_name == "photoobj" and ix.columns == ("ra", "dec")

    @pytest.mark.parametrize("bad", ["photoobj", "photoobj:", ":ra", "a:,,"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ReproError):
            parse_index_spec(bad)


class TestCommands:
    def test_describe(self):
        code, text = run_cli(FAST + ["describe"])
        assert code == 0
        assert "photoobj" in text and "Workload" in text

    def test_describe_tpch(self):
        code, text = run_cli(["--workload", "tpch"] + FAST[0:4] + ["describe"])
        assert code == 0
        assert "lineitem" in text

    def test_evaluate(self):
        code, text = run_cli(
            FAST + ["evaluate", "--indexes", "photoobj:ra,dec", "photoobj:ra"]
        )
        assert code == 0
        assert "What-if evaluation" in text
        assert "interaction" in text.lower()

    def test_evaluate_bad_spec_is_reported(self):
        code, text = run_cli(FAST + ["evaluate", "--indexes", "nope"])
        assert code == 2
        assert "error:" in text

    def test_evaluate_unknown_table_is_reported(self):
        code, text = run_cli(FAST + ["evaluate", "--indexes", "ghost:ra"])
        assert code == 2
        assert "error:" in text

    def test_recommend(self):
        code, text = run_cli(
            FAST + ["recommend", "--budget-frac", "0.2", "--solver", "greedy",
                    "--no-partitions"]
        )
        assert code == 0
        assert "Recommended indexes" in text
        assert "storage budget" in text

    @pytest.mark.parametrize("frac", ["nan", "inf", "-0.5"])
    def test_recommend_bad_budget_is_reported(self, frac):
        code, text = run_cli(
            FAST + ["recommend", "--budget-frac", frac, "--no-partitions"]
        )
        assert code == 2
        assert text.startswith("error: storage budget must be finite")

    def test_explain(self):
        code, text = run_cli(
            FAST + ["explain", "--sql", "SELECT ra FROM photoobj WHERE ra < 5"]
        )
        assert code == 0
        assert "cost=" in text

    def test_online(self):
        code, text = run_cli(
            FAST + ["online", "--phase-length", "10", "--epoch", "5"]
        )
        assert code == 0
        assert "epoch" in text and "saved" in text

    def test_online_tpch(self):
        """``online`` replays the phases of ``--workload``, as
        ``stream`` does: TPC-H statements on the TPC-H catalog."""
        code, text = run_cli(
            ["--workload", "tpch"] + FAST
            + ["online", "--phase-length", "6", "--epoch", "5"]
        )
        assert code == 0, text
        assert "epoch" in text and "saved" in text

    @pytest.mark.parametrize("epoch", ["0", "-5"])
    def test_online_bad_epoch_is_reported(self, epoch):
        code, text = run_cli(FAST + ["online", "--epoch", epoch])
        assert code == 2
        assert text.startswith("error: COLT setting epoch_length=")

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--pool-capacity", "0"], "pool capacity"),
        (["serve", "--shards", "0"], "shard count"),
        (["serve", "--runners", "127.0.0.1:9", "--remote-timeout", "-1"],
         "timeout must be positive"),
        # Zero would put the sockets in non-blocking mode.
        (["serve", "--runners", "127.0.0.1:9", "--remote-timeout", "0"],
         "timeout must be positive"),
        (["online", "--phase-length", "0"], "at least one query"),
        (["stream", "--phase-length", "0"], "at least one query"),
        (["stream", "--window", "0"], "window"),
    ], ids=["pool-capacity", "shards", "remote-timeout", "remote-timeout-0",
            "online-phase", "stream-phase", "window"])
    def test_out_of_range_input_is_reported(self, argv, message):
        """A value no run can use is an input error: ``error:`` and exit
        2, not a traceback."""
        code, text = run_cli(FAST + argv)
        assert code == 2
        assert text.startswith("error: ") and message in text, text

    def test_online_alert_only(self):
        code, text = run_cli(
            FAST + ["online", "--phase-length", "10", "--epoch", "5",
                    "--no-adopt"]
        )
        assert code == 0

    def test_stream(self):
        code, text = run_cli(
            FAST + ["stream", "--phase-length", "8", "--epoch", "5",
                    "--refresh-every", "10", "--window", "10"]
        )
        assert code == 0
        assert "epoch" in text  # the COLT panel
        assert "refresh@" in text  # recommendation refreshes
        assert "backplane sdss" in text  # pool status line

    def test_stream_tpch(self):
        code, text = run_cli(
            ["--workload", "tpch"] + FAST
            + ["stream", "--phase-length", "6", "--epoch", "5",
               "--refresh-every", "10"]
        )
        assert code == 0
        assert "backplane tpch" in text

    def test_serve(self):
        code, text = run_cli(
            FAST + ["serve", "--tenants", "2", "--shards", "2",
                    "--phase-length", "6", "--epoch", "5",
                    "--refresh-every", "10"]
        )
        assert code == 0
        # One SDSS and one TPC-H tenant, plus both backplane lines.
        assert "sdss-0" in text and "tpch-1" in text
        assert "backplane sdss" in text and "backplane tpch" in text

    def test_serve_state_dir_kill_restore_cycle(self, tmp_path):
        """--state-dir + --max-events simulates a shutdown mid-stream;
        the next invocation restores the tenant and finishes it."""
        state = str(tmp_path / "state")
        args = FAST + ["serve", "--tenants", "1", "--shards", "2",
                       "--phase-length", "5", "--epoch", "5",
                       "--refresh-every", "0", "--state-dir", state]
        code, text = run_cli(args + ["--max-events", "8"])
        assert code == 0
        assert "state saved to" in text
        assert "       8 " in text  # 8 of 15 events ingested
        code, text = run_cli(args)
        assert code == 0
        assert "restored 1 tenant(s)" in text
        assert "      15 " in text  # resumed to the end of the stream

    def test_serve_snapshot_interval_periodic_and_restorable(self, tmp_path):
        """--snapshot-interval writes consistent snapshots at scheduler
        pause points without stopping ingest; the state dir restores."""
        import re

        state = str(tmp_path / "state")
        args = FAST + ["serve", "--tenants", "1", "--shards", "2",
                       "--phase-length", "5", "--epoch", "5",
                       "--refresh-every", "0", "--state-dir", state,
                       "--snapshot-interval", "3"]
        code, text = run_cli(args + ["--max-events", "8"])
        assert code == 0
        assert "state saved to" in text
        count = int(re.search(r"snapshots=(\d+)", text).group(1))
        assert count >= 3  # periodic pause-point snapshots + final save
        code, text = run_cli(args)
        assert code == 0
        assert "restored 1 tenant(s)" in text
        assert "      15 " in text

    def test_serve_corrupt_state_file_is_reported(self, tmp_path):
        """A state file that does not decode is an input error: serve
        prints ``error:`` and exits 2 instead of raising a traceback."""
        import json
        import os

        state = str(tmp_path / "state")
        args = FAST + ["serve", "--tenants", "1", "--shards", "2",
                       "--phase-length", "5", "--epoch", "5",
                       "--refresh-every", "0", "--state-dir", state]
        code, __ = run_cli(args + ["--max-events", "8"])
        assert code == 0
        path = os.path.join(state, "service.json")
        with open(path) as f:
            payload = json.load(f)
        del payload["tenants"][0]["session"]["options"]
        with open(path, "w") as f:
            json.dump(payload, f)
        code, text = run_cli(args)
        assert code == 2
        assert "error:" in text and "options" in text

    def test_serve_snapshot_interval_requires_state_dir(self):
        code, text = run_cli(
            FAST + ["serve", "--tenants", "1", "--snapshot-interval", "3"]
        )
        assert code == 2
        assert "--state-dir" in text
