"""Scenario 3 — continuous tuning of a drifting workload.

A three-phase astronomy stream (positional -> photometric -> spectral)
runs against the database.  COLT monitors it, raises alerts when the
design goes stale, and (in auto-adopt mode) pays the build cost to switch.
The output compares against leaving the database untuned.

Run:  python examples/online_tuning.py
"""

from repro import ColtSettings, Designer, WorkloadEvaluator, sdss_catalog
from repro.whatif import WhatIfSession
from repro.workloads.drift import default_phases, drifting_stream


def main():
    catalog = sdss_catalog(scale=0.1)
    designer = Designer(catalog)
    phases = default_phases(length=100)

    settings = ColtSettings(
        epoch_length=25,
        space_budget_pages=int(sum(t.pages for t in catalog.tables) * 0.5),
        whatif_budget=40,
    )
    report = designer.continuous(drifting_stream(phases, seed=11), settings)
    print(report.to_text())

    session = WhatIfSession(WorkloadEvaluator(catalog))
    untuned = sum(
        session.cost(sql) for __, sql in drifting_stream(phases, seed=11)
    )
    saved = 100.0 * (untuned - report.total_cost) / untuned
    print("\nUntuned stream cost: %.1f" % untuned)
    print("COLT (incl. %.1f build cost): %.1f  -> %.1f%% saved"
          % (report.build_cost, report.total_cost, saved))

    # Manual mode: the DBA reviews alerts instead of auto-adopting
    # ("whether this configuration would be adopted depends on the DBA").
    manual = designer.continuous_tuner(
        ColtSettings(epoch_length=25, auto_adopt=False)
    )
    for __, sql in drifting_stream(default_phases(length=30), seed=11):
        manual.observe(sql)
    manual.flush()
    if manual.pending_alert is not None:
        print("\nPending alert for the DBA:")
        print(manual.pending_alert.describe())


if __name__ == "__main__":
    main()
