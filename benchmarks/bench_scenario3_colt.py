"""SC3 — Scenario 3: continuous tuning under a changing workload.

"This component monitors the behavior of the system when the workload
changes and suggests changes to the set of indexes.  Our tool presents
the change in system's performance accruing from adopting the new
suggested indexes."

Expected shape: per-epoch observed cost drops after each drift phase once
COLT adopts new indexes; total cost (including builds) beats not tuning;
alerts fire in every phase.
"""

from repro.colt import ColtSettings, ColtTuner
from repro.evaluation import WorkloadEvaluator
from repro.whatif import WhatIfSession
from repro.workloads.drift import default_phases, drifting_stream

from conftest import print_table

PHASE_LEN = 75
EPOCH = 25
SEED = 11


def run_colt(catalog):
    settings = ColtSettings(
        epoch_length=EPOCH,
        space_budget_pages=int(sum(t.pages for t in catalog.tables) * 0.6),
        whatif_budget=40,
    )
    tuner = ColtTuner(WorkloadEvaluator(catalog), settings)
    report = tuner.run(drifting_stream(default_phases(PHASE_LEN), seed=SEED))
    return report


def test_scenario3_drifting_stream(sdss_env, benchmark):
    catalog, __ = sdss_env

    report = benchmark.pedantic(run_colt, args=(catalog,), rounds=1, iterations=1)

    epochs_per_phase = PHASE_LEN // EPOCH
    rows = [
        (
            e.epoch,
            ("positional", "photometric", "spectral")[e.epoch // epochs_per_phase],
            e.observed_cost,
            e.build_cost,
            "*" if e.alert else "",
            len(e.configuration),
        )
        for e in report.epochs
    ]
    print_table(
        "SC3: per-epoch trace",
        ("epoch", "phase", "observed", "build", "alert", "#indexes"),
        rows,
    )

    session = WhatIfSession(WorkloadEvaluator(catalog))
    untuned = sum(
        session.cost(sql)
        for __, sql in drifting_stream(default_phases(PHASE_LEN), seed=SEED)
    )
    from repro.colt import static_oracle

    budget = int(sum(t.pages for t in catalog.tables) * 0.6)
    full_stream = list(drifting_stream(default_phases(PHASE_LEN), seed=SEED))
    oracle = static_oracle(catalog, full_stream, space_budget_pages=budget)
    # The paper's motivation: a design tuned offline for the *initial*
    # workload "may become obsolete" — tune for phase 1 only, then pay for
    # it across the drift.
    stale = static_oracle(catalog, full_stream[:PHASE_LEN], space_budget_pages=budget)
    stale_stream_cost = sum(
        session.cost(sql, stale.configuration) for __, sql in full_stream
    )
    print_table(
        "SC3: totals",
        ("method", "stream cost", "builds", "total"),
        [
            ("no tuning", untuned, 0.0, untuned),
            ("stale static (tuned for phase 1)", stale_stream_cost,
             stale.build_cost, stale_stream_cost + stale.build_cost),
            ("colt (online)", report.observed_cost, report.build_cost,
             report.total_cost),
            ("static oracle (hindsight)", oracle.stream_cost,
             oracle.build_cost, oracle.total_cost),
        ],
    )

    # Adaptivity is visible *after the drift*: the phase-1 design is
    # obsolete for phases 2-3, COLT's adopted indexes are not.
    post_drift = full_stream[PHASE_LEN:]
    stale_post = sum(session.cost(sql, stale.configuration) for __, sql in post_drift)
    colt_post = sum(
        e.observed_cost + e.build_cost
        for e in report.epochs if e.epoch >= PHASE_LEN // EPOCH
    )
    untuned_post = sum(session.cost(sql) for __, sql in post_drift)
    print_table(
        "SC3: post-drift cost (phases 2+3 only)",
        ("no tuning", "stale static", "colt (incl. builds)"),
        [(untuned_post, stale_post, colt_post)],
    )
    print("\nSC3: colt observed-cost sparkline: %s" % report.sparkline())
    # After the workload changes, COLT must beat the obsolete design —
    # the paper's case for lightweight online re-optimization.
    assert colt_post < stale_post
    assert colt_post < untuned_post

    # Shapes: alerts in multiple phases, net savings, per-phase adaptation.
    adopted_phases = {e.epoch // epochs_per_phase for e in report.epochs if e.adopted}
    assert len(adopted_phases) >= 2, "COLT must adapt to at least two phases"
    assert report.total_cost < untuned, "COLT must beat not tuning"
    # Within the first phase, cost after adoption drops vs the first epoch.
    first_phase = report.epochs[:epochs_per_phase]
    assert first_phase[-1].observed_cost < first_phase[0].observed_cost


def test_scenario3_probe_budget_self_regulates(sdss_env, benchmark):
    """A steady stream lets COLT throttle its what-if probing."""
    catalog, __ = sdss_env
    from repro.workloads.drift import DriftPhase
    from repro.workloads import sdss

    def run_steady():
        settings = ColtSettings(
            epoch_length=20, whatif_budget=32, min_whatif_budget=4,
            space_budget_pages=100_000,
        )
        tuner = ColtTuner(WorkloadEvaluator(catalog), settings)
        phases = (DriftPhase("pos", 200, ((sdss.template("cone_search"), 1.0),)),)
        return tuner.run(drifting_stream(phases, seed=SEED))

    report = benchmark.pedantic(run_steady, rounds=1, iterations=1)
    probes = [e.whatif_probes for e in report.epochs]
    print_table(
        "SC3: probe budget over a steady stream",
        ("epoch", "probes"),
        list(enumerate(probes)),
    )
    assert probes[-1] < probes[0], "budget must decay once the design is stable"
