"""What a resident designer process loads.

What-if sessions, ``serve`` tenants and ``runner`` nodes live in
processes that import ``repro`` and then wait for work.  Until one of
them solves a MILP they load nothing beyond numpy and the standard
library: scipy is imported by ``solve_bip``, ``http.server`` only with
``serve --metrics-port``.  A fresh interpreter checks it, since this
one has imported everything the other tests reach.
"""

import json
import os
import subprocess
import sys

import repro

# The source tree this process imported, so a copy under test is the
# one the fresh interpreter loads.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = r"""
import json, sys

before = set(sys.modules)


def loaded():
    new = set(sys.modules) - before
    # Names with a leading underscore are aliases (__mp_main__) or the
    # private extension modules of a package already counted.
    top = {name.partition(".")[0] for name in new if name[0] != "_"}
    return {
        "foreign": sorted(top - set(sys.stdlib_module_names)
                          - {"numpy", "repro"}),
        "http.server": "http.server" in new,
        "scipy": "scipy" in new,
    }


from repro import (
    Designer, Index, TuningService, sdss_catalog, sdss_workload,
    tpch_catalog)

sdss = sdss_catalog(scale=0.05)
tpch_catalog(scale=0.05)
workload = list(sdss_workload(n_queries=6, seed=3))
designer = Designer(sdss)
designer.evaluate_design(workload, indexes=[Index("photoobj", ("ra",))])
designer.recommend(workload, 5_000, solver="greedy")
service = TuningService()
service.add_backplane("sdss", sdss)
session = service.add_tenant("t", "sdss")
for step in session.ingest_steps(("p0", workload[0][0])):
    step.run()
report = {"lean": loaded()}
designer.recommend(workload, 5_000, solver="milp", partitions=False)
report["milp"] = loaded()
print(json.dumps(report))
"""


def test_only_a_milp_solve_loads_scipy():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=SRC),
    ).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["lean"] == {
        "foreign": [], "http.server": False, "scipy": False}
    assert report["milp"]["scipy"]
