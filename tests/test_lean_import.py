"""What a resident designer process loads.

What-if sessions, ``serve`` tenants and ``runner`` nodes live in
processes that import ``repro`` and then wait for work.  Until one of
them solves a MILP they load nothing beyond numpy and the standard
library: ``http.server`` is imported only with ``serve --metrics-port``.
A MILP solve then loads HiGHS's own binding,
``scipy.optimize._highspy._core``, from its file, and nothing else of
scipy: not ``scipy.optimize``, whose ``__init__`` would load
``scipy.sparse``, ``scipy.linalg`` and some 300 more modules.  A fresh
interpreter checks it, since this one has imported everything the other
tests reach.
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
                          - {"numpy", "repro", "scipy"}),
        "http.server": "http.server" in new,
        "scipy": sorted(name for name in new
                        if name.partition(".")[0] == "scipy"),
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
# scipy.optimize, imported later, finds the binding already loaded.
core = sys.modules["scipy.optimize._highspy._core"]
from scipy.optimize._highspy import _core
report["shared"] = _core is core
print(json.dumps(report))
"""


HIGHS = "scipy.optimize._highspy._core"


def test_only_a_milp_solve_loads_scipy():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=SRC),
    ).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["lean"] == {
        "foreign": [], "http.server": False, "scipy": []}
    milp = report["milp"]
    assert milp["foreign"] == []
    # The binding and the submodules pybind11 registers under it.
    assert HIGHS in milp["scipy"]
    assert [name for name in milp["scipy"]
            if name != HIGHS and not name.startswith(HIGHS + ".")] == []
    for package in ("scipy.optimize", "scipy.sparse", "scipy.linalg"):
        assert package not in milp["scipy"], package
    assert report["shared"]
