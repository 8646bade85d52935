"""The work-counter gate in tier-1 (``tests/work_counters.py``): every
ledger workload at the smoke scale, seed 42, traced, does exactly the
work ``tests/data/work_counters.json`` records — same ``result_digest``,
same plans, builds, pool misses, evictions, kernel compiles, cells,
candidates, probes, steps and runner tasks."""

import pytest

import work_counters


def test_every_workload_does_the_recorded_work():
    expected = work_counters.load()
    if expected["environment"] != work_counters.environment():
        pytest.skip("recorded under %s, running under %s; regenerate with "
                    "python tests/work_counters.py --write"
                    % (expected["environment"], work_counters.environment()))
    assert work_counters.drift(expected, work_counters.measure()) == []
