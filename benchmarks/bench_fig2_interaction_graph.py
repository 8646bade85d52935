"""FIG2 — regenerate Figure 2: the index-interaction graph.

Paper artifact: "an undirected graph in which the vertices represent
indexes and the weights of the edges are the degree of interaction for a
pair of indexes", with a dynamic top-k edge filter.

Output: node list with standalone benefits, edge list with doi weights,
and the top-k filtered view.  Expected shape: overlapping indexes (e.g.
``ra`` vs ``(ra, dec)``) carry heavy edges; indexes serving disjoint
queries carry none.
"""

from repro.catalog import Index
from repro.interaction import InteractionAnalyzer

from conftest import print_table


def candidate_set():
    """Overlapping candidates, as a DBA exploring alternatives would pick."""
    return [
        Index("photoobj", ("ra",)),
        Index("photoobj", ("ra", "dec")),
        Index("photoobj", ("type", "rmag")),
        Index("photoobj", ("rmag",)),
        Index("specobj", ("z",)),
        Index("specobj", ("z",), include=("bestobjid",)),
        Index("photoobj", ("objid",)),
    ]


def test_fig2_interaction_graph(sdss_env, sdss_evaluator, benchmark):
    catalog, workload = sdss_env
    analyzer = InteractionAnalyzer(sdss_evaluator, workload)
    candidates = candidate_set()

    graph = benchmark(analyzer.interaction_graph, candidates)

    rows = sorted(graph.benefits.items())
    print_table("FIG2: vertices (standalone benefit)", ("index", "benefit"), rows)
    edges = graph.edges_by_weight()
    print_table(
        "FIG2: edges (degree of interaction)",
        ("a", "b", "doi"),
        [(a, b, w) for a, b, w in edges],
    )
    print_table(
        "FIG2: top-3 filter (the demo's dynamic edge count)",
        ("a", "b", "doi"),
        [(a, b, w) for a, b, w in graph.top_edges(3)],
    )

    # Shape assertions: subsumed pairs interact, disjoint pairs do not.
    ra_pair = graph.dois.get(("ix_photoobj_ra", "ix_photoobj_ra_dec"))
    assert ra_pair is not None and ra_pair > 0.05
    assert ("ix_photoobj_ra", "ix_specobj_z") not in graph.dois
    assert len(graph.top_edges(3)) <= 3


def test_fig2_stable_partition(sdss_env, sdss_evaluator, benchmark):
    """Companion analysis: Schnaitter's stable partitions of the set."""
    catalog, workload = sdss_env
    analyzer = InteractionAnalyzer(sdss_evaluator, workload)
    candidates = candidate_set()

    parts = benchmark(analyzer.stable_partition, candidates, 0.02)

    print_table(
        "FIG2: stable partitions (threshold 0.02)",
        ("group", "members"),
        [(i, ", ".join(ix.name for ix in part)) for i, part in enumerate(parts)],
    )
    by_member = {ix.name: i for i, part in enumerate(parts) for ix in part}
    assert by_member["ix_photoobj_ra"] == by_member["ix_photoobj_ra_dec"]
    assert len(parts) >= 2
