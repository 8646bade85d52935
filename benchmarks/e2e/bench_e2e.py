"""The pytest face of the e2e ledger's smoke run.

    PYTHONPATH=src python -m pytest benchmarks/e2e/bench_e2e.py -q

Named ``bench_*`` so tier-1's default ``test_*.py`` collection never
picks it up.  Each workload runs at about 1/20 size through the same
``run.py`` a person would use, correctness checks only.
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import layers  # noqa: E402


def test_benchmark_json_names_what_the_harness_reports():
    spec = common.load_benchmark_json()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared.items() <= common.E2E_UNITS.items()
    # The suite adds exactly these two (see common.E2E_UNITS).
    assert set(common.E2E_UNITS) - set(declared) == {"op_p99_ms", "fail_frac"}
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_smoke(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
