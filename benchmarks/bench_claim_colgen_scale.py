"""CL-COLGEN — column-generation CoPhy at a 5000-candidate scale.

The exhaustive pipeline materializes one BIP option per
(slot, candidate) pair before any search happens: at thousands of
candidates ``build_bip`` dominates the advisor's wall-clock, and every
greedy round prices the whole frontier.  Column generation
(:func:`~repro.cophy.colgen.solve_colgen`) prices candidates through
the slot pricer's cached path machinery, keeps a restricted master over
only the *active* candidates, and uses a sound reduced-benefit bound to
prove the rest can never win a round.

Method: a wide synthetic catalog (4 tables x 48 numeric columns, 2M
rows each) and a 150-query seeded mix vote in >5000 distinct candidate
indexes.  Each engine gets a **fresh advisor** (cold memos — the claim
is end-to-end advisor wall-clock, not steady-state), one timed
``recommend`` call per engine.  Column generation must be
**decision-identical** (same indexes in the same rank order, bit-equal
predicted and base costs), must activate under 30% of the candidate
space while certifying the rest, and must not be slower.

The wall-clock ratio has shrunk twice, each time because the *reference*
side got faster.  It was 3.6x (53.0 s vs 14.8 s) while the slot pricer
kept the scan contexts and path groups to itself; the shared
scan-context memo (``optimizer/paths.py``, PR 12) gave exhaustive
``build_bip`` the same reuse: 16.2 s vs 5.9 s (2.7x).  Since PR 13
``build_bip`` prices through the very same ``CandidatePricer`` (and its
O(1) lead-column check), so pricing costs both engines the same and
what column generation still saves is the exhaustive master and the
full-frontier rounds: 9.5-12.1 s vs 5.4-5.9 s over five runs on the
same box (1.6-2.2x).  The gates are identity, the certificate and the
activation ceiling; the wall-clock gate that is left is the one that
needs no number fitted to a box — column generation is not slower.
"""

import os
import random
import time

from repro.catalog import Catalog, Column, DataType, Distribution, Table
from repro.cophy import CoPhyAdvisor, candidate_indexes
from repro.evaluation import WorkloadEvaluator

from conftest import assert_recommends, print_table

N_TABLES = 4
N_COLUMNS = 48
N_ROWS = 2_000_000
N_QUERIES = 150
N_CANDIDATES = 5_000

# "Not slower" on quiet hardware (1.6-2.2x measured); CI smoke jobs on
# shared runners relax the floor (they check decision identity, not
# magnitude).
SPEEDUP_FLOOR = float(os.environ.get("COLGEN_SCALE_SPEEDUP_FLOOR", "1.0"))
ACTIVATION_CEILING = 0.30


def wide_catalog():
    """Many similarly-shaped numeric columns: the composite-pair miner
    votes in thousands of near-duplicate candidates, the regime the
    bound has to prune."""
    catalog = Catalog()
    for t in range(N_TABLES):
        columns = [Column("id", DataType.BIGINT, Distribution(kind="sequence"))]
        for c in range(N_COLUMNS):
            columns.append(Column(
                "c%02d" % c, DataType.DOUBLE,
                Distribution(kind="uniform", low=0.0, high=1000.0),
            ))
        catalog.add_table(
            Table("t%d" % t, columns, row_count=N_ROWS).build_stats()
        )
    return catalog


def seeded_workload(seed=17):
    rng = random.Random(seed)
    names = ["c%02d" % c for c in range(N_COLUMNS)]
    workload = []
    for __ in range(N_QUERIES):
        table = "t%d" % rng.randrange(N_TABLES)
        eq = rng.sample(names, 8)
        ranges = rng.sample([c for c in names if c not in eq], 4)
        order = rng.choice(
            [c for c in names if c not in eq and c not in ranges]
        )
        predicates = ["%s = %d" % (c, rng.randrange(1000)) for c in eq]
        predicates += [
            "%s < %d" % (c, rng.randrange(100, 900)) for c in ranges
        ]
        sql = "SELECT %s FROM %s WHERE %s ORDER BY %s LIMIT 50" % (
            ", ".join(eq[:2]), table, " AND ".join(predicates), order,
        )
        workload.append((sql, rng.choice([0.5, 1.0, 2.0])))
    return workload


def test_claim_colgen_scale():
    catalog = wide_catalog()
    workload = seeded_workload()
    space = candidate_indexes(catalog, workload, max_candidates=None)
    assert len(space) >= N_CANDIDATES, (
        "scale claim needs a >=%d-candidate space (got %d)"
        % (N_CANDIDATES, len(space))
    )
    candidates = space[:N_CANDIDATES]
    budget = sum(
        ix.size_pages(catalog.table(ix.table_name)) for ix in candidates
    ) // 40

    t0 = time.perf_counter()
    evaluator = WorkloadEvaluator(catalog)
    full = CoPhyAdvisor(evaluator).recommend(
        workload, budget, candidates=candidates, solver="greedy",
    )
    t_full = time.perf_counter() - t0

    t0 = time.perf_counter()
    colgen = CoPhyAdvisor(WorkloadEvaluator(catalog)).recommend(
        workload, budget, candidates=candidates, solver="colgen",
    )
    t_colgen = time.perf_counter() - t0

    stats = colgen.stats["solve_extra"]
    speedup = t_full / max(t_colgen, 1e-9)
    activation = stats["activated"] / len(candidates)
    print_table(
        "CL-COLGEN: advisor wall-clock, %d queries x %d candidates"
        % (N_QUERIES, len(candidates)),
        ("engine", "seconds", "chosen", "activated"),
        [
            ("exhaustive BIP + greedy", t_full, len(full.indexes),
             len(candidates)),
            ("column generation", t_colgen, len(colgen.indexes),
             stats["activated"]),
        ],
    )
    print_table(
        "CL-COLGEN: search summary",
        ("speedup x", "activated %", "rounds", "waves", "pairs priced"),
        [(speedup, 100.0 * activation, stats["rounds"], stats["waves"],
          stats["priced"])],
    )

    assert_recommends(evaluator, workload, full)
    # Decision-identical: same indexes in the same rank order, bit-equal
    # objective and base cost — column generation changes the wall
    # clock, never the recommendation.
    assert [ix.name for ix in colgen.indexes] == \
        [ix.name for ix in full.indexes]
    assert colgen.predicted_workload_cost == full.predicted_workload_cost
    assert colgen.base_workload_cost == full.base_workload_cost
    assert colgen.size_pages == full.size_pages
    assert stats["certificate"] == "no-inactive-candidate-improves"

    # The bound must keep the master small — the whole point.
    assert activation < ACTIVATION_CEILING, (
        "colgen activated %.0f%% of the candidate space (ceiling %.0f%%)"
        % (100.0 * activation, 100.0 * ACTIVATION_CEILING)
    )

    assert speedup >= SPEEDUP_FLOOR, (
        "column generation must be at least %.1fx faster than the "
        "exhaustive pipeline at this scale (got %.2fx)"
        % (SPEEDUP_FLOOR, speedup)
    )
