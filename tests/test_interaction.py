"""Tests for index interaction analysis and materialization scheduling."""

import pytest

from repro.catalog import Index
from repro.evaluation import WorkloadEvaluator
from repro.interaction import (
    InteractionAnalyzer,
    evaluate_schedule,
    schedule_greedy,
    schedule_naive,
    schedule_optimal,
)

from oracle import IndexBenefitGraph

WORKLOAD = [
    ("SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 12", 1.0),
    ("SELECT ra, dec, rmag FROM photoobj WHERE ra BETWEEN 50 AND 51 AND dec > 0", 1.0),
    ("SELECT p.ra, s.z FROM photoobj p, specobj s "
     "WHERE p.objid = s.objid AND s.z > 6.8", 1.0),
]

RA = Index("photoobj", ("ra",))
RA_DEC = Index("photoobj", ("ra", "dec"))
Z = Index("specobj", ("z",))
OBJID = Index("photoobj", ("objid",))


@pytest.fixture
def analyzer(sdss_catalog):
    return InteractionAnalyzer(WorkloadEvaluator(sdss_catalog), WORKLOAD)


def doi(analyzer, a, b, candidate_set):
    """The graph's edge between *a* and *b* (``min_doi`` below 0 keeps
    every pair), read in either order."""
    graph = analyzer.interaction_graph(candidate_set, min_doi=-1.0)
    return graph.dois.get((a.name, b.name), graph.dois.get((b.name, a.name)))


class TestDegreeOfInteraction:
    def test_self_interaction_is_zero(self, analyzer):
        """An index named twice is one vertex: no edge to itself."""
        graph = analyzer.interaction_graph([RA, RA, Z], min_doi=-1.0)
        assert list(graph.dois) == [tuple(sorted((RA.name, Z.name)))]

    def test_every_pair_is_an_edge_below_zero(self, analyzer):
        graph = analyzer.interaction_graph([RA, Z, RA_DEC], min_doi=-1.0)
        assert set(graph.dois) == {
            tuple(sorted((x.name, y.name))) for x, y in
            [(RA, Z), (RA, RA_DEC), (Z, RA_DEC)]}

    def test_doi_nonnegative(self, analyzer):
        assert doi(analyzer, RA, Z, [RA, Z, RA_DEC]) >= 0.0

    def test_subsuming_indexes_interact(self, analyzer):
        """ra and (ra,dec) serve the same queries: strong interaction."""
        assert doi(analyzer, RA, RA_DEC, [RA, RA_DEC]) > 0.05

    def test_unrelated_indexes_do_not_interact(self, analyzer):
        """Indexes serving disjoint queries have ~zero interaction."""
        assert doi(analyzer, RA, Z, [RA, Z]) < 0.01

    def test_doi_symmetric_enough(self, analyzer):
        """The graph's edge reads the benefit of its first index by
        name; the other orientation (the Index Benefit Graph's) is of
        the same order of magnitude."""
        ab = doi(analyzer, RA, RA_DEC, [RA, RA_DEC])
        first, second = sorted((RA, RA_DEC), key=lambda ix: ix.name)
        ba = IndexBenefitGraph(analyzer.evaluator, WORKLOAD,
                               [RA, RA_DEC]).doi(second, first)
        assert ab == pytest.approx(ba, rel=0.5)

    def test_benefit_definition(self, analyzer):
        empty_cost = analyzer.cost(frozenset())
        with_ra = analyzer.cost(frozenset([RA]))
        assert analyzer.benefit(RA, ()) == pytest.approx(empty_cost - with_ra)
        graph = analyzer.interaction_graph([RA, Z])
        assert graph.benefits[RA.name] == analyzer.benefit(RA, ())

    def test_prefetch_prices_what_cost_does(self, sdss_catalog):
        """A prefetched subset costs exactly what :meth:`cost` computes
        for it alone, through the one lattice seam."""
        subsets = [frozenset(), frozenset([RA]), frozenset([RA, Z]),
                   frozenset([RA_DEC, OBJID])]
        batched = InteractionAnalyzer(WorkloadEvaluator(sdss_catalog), WORKLOAD)
        batched.prefetch(subsets)
        assert set(batched._cost_cache) == set(map(batched._mask, subsets))
        lazy = InteractionAnalyzer(WorkloadEvaluator(sdss_catalog), WORKLOAD)
        assert [batched.cost(s) for s in subsets] \
            == [lazy.cost(s) for s in subsets]


class TestInteractionGraph:
    def test_nodes_and_benefits(self, analyzer):
        graph = analyzer.interaction_graph([RA, RA_DEC, Z])
        assert set(graph.benefits) == {RA.name, RA_DEC.name, Z.name}
        assert graph.benefits[RA.name] > 0

    def test_edge_between_interacting_pair(self, analyzer):
        graph = analyzer.interaction_graph([RA, RA_DEC, Z])
        assert (RA.name, RA_DEC.name) in graph.dois

    def test_top_edges_filter(self, analyzer):
        graph = analyzer.interaction_graph([RA, RA_DEC, Z])
        assert len(graph.top_edges(1)) <= 1

    def test_text_and_dot_render(self, analyzer):
        graph = analyzer.interaction_graph([RA, RA_DEC])
        assert "doi" in graph.to_text()
        dot = graph.to_dot()
        assert dot.startswith("graph interactions {") and dot.endswith("}")

    def test_stable_partition_separates_non_interacting(self, analyzer):
        parts = analyzer.stable_partition([RA, RA_DEC, Z], threshold=0.02)
        by_member = {ix.name: i for i, part in enumerate(parts) for ix in part}
        assert by_member[RA.name] == by_member[RA_DEC.name]
        assert by_member[Z.name] != by_member[RA.name]


class TestScheduling:
    INDEXES = [RA, RA_DEC, Z, OBJID]

    def test_schedules_cover_all_indexes(self, analyzer, sdss_catalog):
        for scheduler in (schedule_naive, schedule_greedy, schedule_optimal):
            schedule = scheduler(self.INDEXES, analyzer.cost, sdss_catalog)
            assert sorted(ix.name for ix in schedule.order) == sorted(
                ix.name for ix in self.INDEXES
            )

    def test_optimal_no_worse_than_heuristics(self, analyzer, sdss_catalog):
        optimal = schedule_optimal(self.INDEXES, analyzer.cost, sdss_catalog)
        naive = schedule_naive(self.INDEXES, analyzer.cost, sdss_catalog)
        greedy = schedule_greedy(self.INDEXES, analyzer.cost, sdss_catalog)
        assert optimal.area <= naive.area + 1e-6
        assert optimal.area <= greedy.area + 1e-6

    def test_timeline_monotone_in_time(self, analyzer, sdss_catalog):
        schedule = schedule_greedy(self.INDEXES, analyzer.cost, sdss_catalog)
        times = [t for t, __ in schedule.timeline]
        assert times == sorted(times)
        assert len(schedule.timeline) == len(self.INDEXES) + 1

    def test_final_cost_independent_of_order(self, analyzer, sdss_catalog):
        naive = schedule_naive(self.INDEXES, analyzer.cost, sdss_catalog)
        greedy = schedule_greedy(self.INDEXES, analyzer.cost, sdss_catalog)
        assert naive.timeline[-1][1] == pytest.approx(greedy.timeline[-1][1])

    def test_area_formula(self, analyzer, sdss_catalog):
        """area == sum over steps of (cost before step) * build time."""
        schedule = evaluate_schedule([RA, Z], analyzer.cost, sdss_catalog)
        c0 = analyzer.cost(frozenset())
        c1 = analyzer.cost(frozenset([RA]))
        t_ra = RA.build_cost(sdss_catalog.table("photoobj"))
        t_z = Z.build_cost(sdss_catalog.table("specobj"))
        assert schedule.area == pytest.approx(c0 * t_ra + c1 * t_z, rel=1e-6)

    def test_greedy_prices_each_index_on_what_is_built(self, sdss_catalog):
        """Two redundant indexes save the same alone and nothing more
        together; a third saves less alone.  Interaction-aware greedy
        builds the third before the redundant twin, for a smaller area
        than the order pricing each index alone would pick."""
        twins, third = (RA, RA_DEC), Z

        def build_time(ix):
            return ix.build_cost(sdss_catalog.table(ix.table_name))

        saving = 1000.0
        # Per build second the third gains less than either twin.
        third_saving = (0.5 * saving * build_time(third)
                        / max(map(build_time, twins)))

        def cost_fn(design):
            design = frozenset(design)
            cost = 10 * saving
            if design & set(twins):
                cost -= saving
            if third in design:
                cost -= third_saving
            return cost

        greedy = schedule_greedy([*twins, third], cost_fn, sdss_catalog)
        first = greedy.order[0]
        assert first in twins
        twin = twins[1] if first == twins[0] else twins[0]
        assert greedy.order == [first, third, twin]
        blind = evaluate_schedule([first, twin, third], cost_fn, sdss_catalog)
        assert greedy.area < blind.area

    def test_empty_schedule(self, analyzer, sdss_catalog):
        schedule = schedule_optimal([], analyzer.cost, sdss_catalog)
        assert schedule.order == [] and schedule.area == 0.0

    def test_single_index_trivial(self, analyzer, sdss_catalog):
        schedule = schedule_optimal([RA], analyzer.cost, sdss_catalog)
        assert schedule.order == [RA]

    def test_text_rendering(self, analyzer, sdss_catalog):
        schedule = schedule_greedy([RA, Z], analyzer.cost, sdss_catalog)
        text = schedule.to_text()
        assert "area=" in text and "1." in text
