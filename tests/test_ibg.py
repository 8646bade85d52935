"""The shipped degree of interaction against the Index Benefit Graph.

``InteractionAnalyzer.doi`` enumerates every context of up to
``doi.EXACT_LIMIT`` other indexes and samples beyond that;
``tests/oracle.py:IndexBenefitGraph`` is the interaction paper's exact
doi over the serial usage walk.  On sets small enough to enumerate the
two are bit-equal; above, sampling can only fall short of the oracle;
and the oracle is itself brute-force enumeration on an 11-index set.
The graph's own cost lookups are checked first.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro.catalog import Index
from repro.cophy import candidate_indexes
from repro.evaluation import WorkloadEvaluator
from repro.interaction import InteractionAnalyzer
from repro.interaction.doi import EXACT_LIMIT
from repro.whatif import Configuration
from repro.workloads import sdss_catalog, sdss_workload, tpch_catalog, tpch_workload

from oracle import IndexBenefitGraph, PerTextEvaluator
from test_backward_and_solver_props import share

WORKLOAD = [
    ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12", 1.0),
    ("SELECT ra, dec, rmag FROM photoobj WHERE ra BETWEEN 50 AND 51 AND dec > 0", 1.0),
    ("SELECT p.ra, s.z FROM photoobj p, specobj s "
     "WHERE p.objid = s.objid AND s.z > 6.8", 1.0),
    ("SELECT rmag FROM photoobj WHERE rmag < 14 AND type = 2", 1.0),
]

CANDIDATES = [
    Index("photoobj", ("ra",)),
    Index("photoobj", ("ra", "dec")),
    Index("specobj", ("z",)),
    Index("photoobj", ("objid",)),
    Index("photoobj", ("type", "rmag")),
]


@pytest.fixture(scope="module")
def inum(request):
    from tests.conftest import make_sdss_catalog

    return PerTextEvaluator(make_sdss_catalog())


@pytest.fixture(scope="module")
def ibg(inum):
    return IndexBenefitGraph(inum, WORKLOAD, CANDIDATES)


class TestConstruction:
    def test_root_present(self, ibg):
        assert frozenset(CANDIDATES) in ibg.nodes

    def test_used_subset_of_node(self, ibg):
        for subset, (__, used) in ibg.nodes.items():
            assert used <= subset

    def test_graph_collapses_unused_candidates(self, inum):
        """Adding never-used candidates must not blow up the IBG: subsets
        differing only in unused indexes share nodes via used-set closure."""
        padded = CANDIDATES + [
            Index("photoobj", ("flags",)),
            Index("photoobj", ("status",)),
        ]
        graph = IndexBenefitGraph(inum, WORKLOAD, padded)
        assert len(graph.nodes) <= 2 ** len(CANDIDATES) + len(padded)
        assert len(graph.nodes) < 2 ** len(padded) / 2


class TestCostOracle:
    """The IBG's core guarantee: cost(X) for *any* X via traversal."""

    def test_cost_matches_inum_on_every_subset(self, ibg, inum):
        for r in range(len(CANDIDATES) + 1):
            for combo in itertools.combinations(CANDIDATES, r):
                direct = inum.workload_cost(
                    WORKLOAD, Configuration(indexes=frozenset(combo))
                )
                assert ibg.cost(combo) == pytest.approx(direct, rel=1e-9), combo

    def test_used_is_fixpoint(self, ibg):
        for r in range(len(CANDIDATES) + 1):
            for combo in itertools.combinations(CANDIDATES, r):
                used = ibg.used(combo)
                assert used <= frozenset(combo)
                # Plans only read what exists; cost(used) == cost(X).
                assert ibg.cost(used) == pytest.approx(ibg.cost(combo), rel=1e-9)

    def test_benefit_consistency(self, ibg):
        a = CANDIDATES[0]
        assert ibg.benefit(a, ()) == pytest.approx(
            ibg.cost(()) - ibg.cost((a,)), rel=1e-9
        )

    def test_monotone_costs(self, ibg):
        assert ibg.cost(CANDIDATES) <= ibg.cost(()) + 1e-6


def test_non_interacting_pair_is_zero(inum):
    ra, z = CANDIDATES[0], CANDIDATES[2]
    assert IndexBenefitGraph(inum, WORKLOAD, CANDIDATES).doi(ra, z) < 0.01


def test_the_oracle_is_one_graph_on_an_evaluator_and_a_plain_model(ibg, inum):
    """The evaluator's usage walk — pooled caches, memoized slots —
    builds the graph the pool-free per-text reference builds, node for
    node."""
    pooled = IndexBenefitGraph(
        WorkloadEvaluator(inum.catalog), WORKLOAD, CANDIDATES
    )
    assert pooled.nodes == ibg.nodes


def test_the_interaction_graph_has_the_oracles_edges(inum):
    """Five candidates are enumerated, so every edge and weight of the
    shipped graph is the oracle's doi of that pair."""
    evaluator = WorkloadEvaluator(inum.catalog)
    graph = InteractionAnalyzer(evaluator, WORKLOAD).interaction_graph(
        CANDIDATES
    )
    oracle = IndexBenefitGraph(evaluator, WORKLOAD, CANDIDATES)
    expected = {}
    for a, b in itertools.combinations(
            sorted(CANDIDATES, key=lambda ix: ix.name), 2):
        doi = oracle.doi(a, b)
        if doi > 1e-9:
            expected[frozenset((a.name, b.name))] = doi
    edges = {frozenset(pair): doi for pair, doi in graph.dois.items()}
    assert edges == expected
    assert frozenset((CANDIDATES[0].name, CANDIDATES[1].name)) in edges


# ----------------------------------------------------------------------
# The shipped doi against the oracle, on sets drawn from the advisor's
# own candidates.
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def environment(name):
    """``(evaluator, workload, candidates)`` at test scale."""
    if name == "sdss":
        catalog = sdss_catalog(scale=0.05)
        workload = sdss_workload(n_queries=10, seed=42)
    else:
        catalog = tpch_catalog(scale=0.05)
        workload = tpch_workload(n_queries=10, seed=42)
    candidates = candidate_indexes(catalog, workload, max_candidates=20)
    return WorkloadEvaluator(catalog), workload, tuple(candidates)


@st.composite
def drawn_sets(draw, min_size, max_size):
    evaluator, workload, candidates = environment(
        draw(st.sampled_from(["sdss", "tpch"]))
    )
    members = draw(st.lists(st.sampled_from(candidates), min_size=min_size,
                            max_size=max_size, unique=True))
    return evaluator, workload, members


@hsettings(max_examples=share(0.1))
@given(drawn=drawn_sets(2, EXACT_LIMIT + 2))
def test_enumerated_doi_is_bit_equal_to_the_oracle(drawn):
    evaluator, workload, members = drawn
    analyzer = InteractionAnalyzer(evaluator, workload)
    oracle = IndexBenefitGraph(evaluator, workload, members)
    for a, b in itertools.permutations(members, 2):
        assert analyzer.doi(a, b, members) == oracle.doi(a, b), (a, b)


@hsettings(max_examples=share(0.02))
@given(drawn=drawn_sets(EXACT_LIMIT + 3, EXACT_LIMIT + 4))
def test_sampled_doi_never_exceeds_the_oracle(drawn):
    evaluator, workload, members = drawn
    a, b = members[:2]  # the draw's own order: any pair
    analyzer = InteractionAnalyzer(evaluator, workload)
    oracle = IndexBenefitGraph(evaluator, workload, members)
    assert analyzer.doi(a, b, members) <= oracle.doi(a, b)


def brute_force_doi(evaluator, workload, members):
    """``{(a, b): doi}`` maximized over every context, every subset
    priced in one dense batch."""
    subsets = [
        frozenset(combo)
        for r in range(len(members) + 1)
        for combo in itertools.combinations(members, r)
    ]
    totals = evaluator.evaluate_many(
        workload, [Configuration(indexes=s) for s in subsets]
    ).totals
    cost = dict(zip(subsets, totals))
    out = {}
    for a, b in itertools.permutations(members, 2):
        others = [ix for ix in members if ix not in (a, b)]
        best = 0.0
        for r in range(len(others) + 1):
            for combo in itertools.combinations(others, r):
                context = frozenset(combo)
                with_b = context | {b}
                denom = cost[with_b | {a}]
                if denom <= 0:
                    continue
                delta = abs((cost[context] - cost[context | {a}])
                            - (cost[with_b] - cost[with_b | {a}]))
                best = max(best, delta / denom)
        out[a, b] = best
    return out


def test_the_oracle_is_brute_force_enumeration():
    evaluator, workload, candidates = environment("sdss")
    members = random.Random(7).sample(candidates, 11)
    oracle = IndexBenefitGraph(evaluator, workload, members)
    exact = brute_force_doi(evaluator, workload, members)
    assert any(exact.values())
    for (a, b), value in exact.items():
        assert oracle.doi(a, b) == value, (a, b)
