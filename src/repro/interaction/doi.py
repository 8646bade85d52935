"""Degree of interaction between indexes (Schnaitter et al., PVLDB 2009).

Two indexes *a*, *b* interact when the benefit of *a* depends on whether
*b* is present.  Following the reference paper::

    benefit(a | X)  =  cost(X) - cost(X ∪ {a})
    doi(a, b)       =  max over X ⊆ S \\ {a,b} of
                       |benefit(a | X) - benefit(a | X ∪ {b})| / cost(X ∪ {a,b})

where S is the candidate set under analysis and cost() is the workload
cost.  The subset maximization is exponential, so we enumerate exactly up
to ``EXACT_LIMIT`` context indexes and fall back to seeded random subset
sampling beyond that.  Costs come from INUM, so each subset evaluation is
analytic — this is precisely why the demo can visualize interactions
interactively.
"""

import itertools
import random
from dataclasses import dataclass, field

from repro.whatif import Configuration

# Context sets of up to EXACT_LIMIT other indexes (2^8 subsets) are
# enumerated; larger ones are the empty and full contexts plus SAMPLES
# random subsets drawn from a generator seeded with SAMPLE_SEED.
EXACT_LIMIT = 8
SAMPLES = 40
SAMPLE_SEED = 17


class InteractionAnalyzer:
    """Computes doi values and interaction graphs over one workload.

    Subset costs are batch-priced on the
    :class:`~repro.evaluation.WorkloadEvaluator` it is given.
    """

    def __init__(self, evaluator, workload):
        self.evaluator = evaluator
        self.workload = list(workload)
        self._cost_cache = {}

    # ------------------------------------------------------------------

    def cost(self, index_set):
        """Workload cost under exactly *index_set* (cached)."""
        key = frozenset(index_set)
        cached = self._cost_cache.get(key)
        if cached is None:
            cached = self.evaluator.workload_cost(
                self.workload, Configuration(indexes=key)
            )
            self._cost_cache[key] = cached
        return cached

    def benefit(self, index, context):
        """benefit(index | context) = cost(context) - cost(context + index)."""
        context = frozenset(context) - {index}
        return self.cost(context) - self.cost(context | {index})

    def prefetch(self, subsets, parent=None):
        """Batch-price index subsets into the cost cache, in one
        columnar-kernel pass
        (:meth:`~repro.evaluation.WorkloadEvaluator.evaluate_many`) —
        the same numbers :meth:`cost` would compute one by one.

        With *parent* (an index set the batch's subsets are small edits
        of) the batch prices through the seminaïve seam
        (:meth:`~repro.evaluation.WorkloadEvaluator.evaluate_deltas`)
        instead — same numbers, captured-parent state reused.
        """
        missing = [
            key
            for key in dict.fromkeys(frozenset(s) for s in subsets)
            if key not in self._cost_cache
        ]
        if not missing:
            return
        configs = [Configuration(indexes=key) for key in missing]
        if parent is not None:
            totals = self.evaluator.evaluate_deltas(
                self.workload, Configuration(indexes=frozenset(parent)),
                configs,
            ).totals
        else:
            totals = self.evaluator.evaluate_many(self.workload, configs).totals
        for key, total in zip(missing, totals):
            self._cost_cache[key] = total

    def doi(self, a, b, candidate_set):
        """Degree of interaction between *a* and *b* within *candidate_set*."""
        if a == b:
            return 0.0
        others = sorted(
            (ix for ix in candidate_set if ix not in (a, b)), key=lambda i: i.name
        )
        contexts = list(self._contexts(others))
        self.prefetch(
            frozenset(context) | extra
            for context in contexts
            for extra in (frozenset(), {a}, {b}, {a, b})
        )
        best = 0.0
        for context in contexts:
            with_b = frozenset(context) | {b}
            denom = self.cost(with_b | {a})
            if denom <= 0:
                continue
            delta = abs(self.benefit(a, context) - self.benefit(a, with_b))
            best = max(best, delta / denom)
        return best

    def _contexts(self, others):
        if len(others) <= EXACT_LIMIT:
            for r in range(len(others) + 1):
                yield from itertools.combinations(others, r)
            return
        rng = random.Random(SAMPLE_SEED)
        yield ()
        yield tuple(others)
        for __ in range(SAMPLES):
            r = rng.randint(0, len(others))
            yield tuple(rng.sample(others, r))

    # ------------------------------------------------------------------

    def interaction_graph(self, candidate_set, min_doi=1e-9):
        """The Figure-2 graph: one vertex per index, edges weighted by doi."""
        candidate_set = sorted(set(candidate_set), key=lambda i: i.name)
        # Singles are one-index edits of the empty design: delta-priced
        # off the empty parent.
        self.prefetch(
            [frozenset()] + [frozenset((ix,)) for ix in candidate_set],
            parent=frozenset(),
        )
        benefits = {ix.name: self.benefit(ix, ()) for ix in candidate_set}
        dois = {}
        for a, b in itertools.combinations(candidate_set, 2):
            weight = self.doi(a, b, candidate_set)
            if weight > min_doi:
                dois[a.name, b.name] = weight
        return InteractionGraph(benefits, dois)

    def stable_partition(self, candidate_set, threshold=0.01):
        """Partition indexes into groups with no cross-group interaction
        above *threshold* (Schnaitter's stable partitions): the connected
        components of the thresholded interaction graph, in the order of
        their first member by name."""
        graph = self.interaction_graph(candidate_set, min_doi=threshold)
        parent = {name: name for name in graph.benefits}

        def root(name):
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for a, b in graph.dois:
            parent[root(b)] = root(a)
        name_to_index = {ix.name: ix for ix in candidate_set}
        components = {}
        for name in graph.benefits:
            components.setdefault(root(name), []).append(name_to_index[name])
        return [sorted(members, key=lambda i: i.name)
                for members in components.values()]


@dataclass
class InteractionGraph:
    """The interaction graph: a standalone benefit per index name (the
    vertices, by name) and a doi per interacting name pair (the edges,
    ``(a, b)`` with *a* first by name, in name order)."""

    benefits: dict
    dois: dict
    _edge_cache: list = field(default=None, repr=False)

    def edges_by_weight(self):
        """``(a, b, doi)`` per edge, strongest first."""
        if self._edge_cache is None:
            self._edge_cache = sorted(
                ((a, b, w) for (a, b), w in self.dois.items()),
                key=lambda e: -e[2],
            )
        return self._edge_cache

    def top_edges(self, k):
        """The demo's dynamic filter: show only the k strongest interactions."""
        return self.edges_by_weight()[:k]

    def to_text(self):
        lines = ["Index interaction graph (%d indexes):" % len(self.benefits)]
        for name in sorted(self.benefits):
            lines.append(
                "  [%s] standalone benefit %.1f" % (name, self.benefits[name])
            )
        edges = self.top_edges(15)
        if not edges:
            lines.append("  (no interactions above threshold)")
        for a, b, w in edges:
            lines.append("  %s -- %s  doi=%.4f" % (a, b, w))
        return "\n".join(lines)

    def to_dot(self, max_edges=None):
        """Graphviz DOT rendering (what the demo UI draws)."""
        edges = self.edges_by_weight()
        if max_edges is not None:
            edges = edges[:max_edges]
        lines = ["graph interactions {"]
        for name in sorted(self.benefits):
            lines.append('  "%s";' % name)
        max_w = max((w for __, __, w in edges), default=1.0) or 1.0
        for a, b, w in edges:
            lines.append(
                '  "%s" -- "%s" [label="%.3f", penwidth=%.2f];'
                % (a, b, w, 1.0 + 4.0 * w / max_w)
            )
        lines.append("}")
        return "\n".join(lines)
