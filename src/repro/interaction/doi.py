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
interactively: a whole graph is one kernel batch over the index subsets
its pairs' contexts read, named by bitmask, and every pair's doi is an
array reduction over that batch's totals.
"""

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from repro.evaluation.evaluator import Lattice
from repro.whatif import Configuration

# Context sets of up to EXACT_LIMIT other indexes (2^8 subsets) are
# enumerated; larger ones are the empty and full contexts plus SAMPLES
# random subsets drawn from a generator seeded with SAMPLE_SEED.
EXACT_LIMIT = 8
SAMPLES = 40
SAMPLE_SEED = 17


class InteractionAnalyzer:
    """Computes interaction graphs and subset costs over one workload.

    Every index set it prices is named by a bitmask over the indexes it
    has seen (bit ``i`` names the ``i``-th, in first-seen order), its
    cost cache is keyed by mask, and subsets are batch-priced as a
    :class:`~repro.evaluation.evaluator.Lattice` on the
    :class:`~repro.evaluation.WorkloadEvaluator` it is given.
    """

    def __init__(self, evaluator, workload):
        self.evaluator = evaluator
        self.workload = list(workload)
        self._indexes = []  # bit i names self._indexes[i]
        self._position = {}  # index -> i
        self._cost_cache = {}  # mask -> workload cost

    # ------------------------------------------------------------------

    def _mask(self, index_set):
        """The mask of *index_set*, naming the indexes not seen yet."""
        mask = 0
        for ix in index_set:
            i = self._position.get(ix)
            if i is None:
                i = self._position[ix] = len(self._indexes)
                self._indexes.append(ix)
            mask |= 1 << i
        return mask

    def cost(self, index_set):
        """Workload cost under exactly *index_set* (cached)."""
        index_set = frozenset(index_set)
        key = self._mask(index_set)
        cached = self._cost_cache.get(key)
        if cached is None:
            cached = self.evaluator.workload_cost(
                self.workload, Configuration(indexes=index_set)
            )
            self._cost_cache[key] = cached
        return cached

    def benefit(self, index, context):
        """benefit(index | context) = cost(context) - cost(context + index)."""
        context = frozenset(context) - {index}
        return self.cost(context) - self.cost(context | {index})

    def _price(self, masks):
        """Totals of the designs *masks* names, as an array, and into the
        cost cache: edits of the empty design, priced as one lattice in
        one kernel batch through the seminaïve seam, which prices a
        lattice on the grid."""
        lattice = Lattice(self._indexes, masks)
        totals = self.evaluator.evaluate_deltas(
            self.workload, None, lattice).totals
        self._cost_cache.update(zip(lattice.masks.tolist(), totals))
        return np.asarray(totals)

    def prefetch(self, subsets):
        """Batch-price index subsets into the cost cache, as one lattice
        on the kernel — the same numbers :meth:`cost` would compute one
        by one."""
        missing = [mask for mask in dict.fromkeys(map(self._mask, subsets))
                   if mask not in self._cost_cache]
        if missing:
            self._price(missing)

    @staticmethod
    def _contexts(m):
        """The contexts of a pair with *m* other indexes, as a bool
        matrix over their positions: every subset up to
        :data:`EXACT_LIMIT`, else the empty and full ones plus
        :data:`SAMPLES` seeded draws.  Draws depend on *m* alone, so
        every pair of one graph reads the same positions."""
        if m <= EXACT_LIMIT:
            return (np.arange(1 << m)[:, None] >> np.arange(m) & 1) \
                .astype(bool)
        rng = random.Random(SAMPLE_SEED)
        drawn = [(), range(m)] + [
            rng.sample(range(m), rng.randint(0, m)) for __ in range(SAMPLES)
        ]
        contexts = np.zeros((len(drawn), m), dtype=bool)
        for k, positions in enumerate(drawn):
            contexts[k, list(positions)] = True
        return contexts

    # ------------------------------------------------------------------

    def interaction_graph(self, candidate_set, min_doi=1e-9):
        """The Figure-2 graph: one vertex per index, edges weighted by
        doi, for each pair ``(a, b)`` with *a* first by name.

        One kernel batch prices every subset the graph reads — the
        empty design, each index alone, and for each pair and context
        ``X`` the designs ``X``, ``X+a``, ``X+b`` and ``X+a+b`` — and
        the doi of every pair is a reduction over its contexts'
        totals."""
        candidate_set = sorted(set(candidate_set), key=lambda i: i.name)
        n = len(candidate_set)
        self._mask(candidate_set)
        bits = Lattice.bits(len(self._indexes))[
            [self._position[ix] for ix in candidate_set]]
        pairs = np.asarray(list(itertools.combinations(range(n), 2)),
                           dtype=np.intp).reshape(-1, 2)
        quads = self._pair_designs(bits, pairs)
        masks = np.concatenate([np.zeros(1, bits.dtype), bits,
                                quads.ravel()])
        distinct, inverse = np.unique(masks, return_inverse=True)
        totals = self._price(distinct)[inverse]
        empty, singles = totals[0], totals[1:n + 1]
        benefits = dict(zip((ix.name for ix in candidate_set),
                            (empty - singles).tolist()))
        c = totals[n + 1:].reshape(quads.shape)
        delta = np.abs((c[..., 0] - c[..., 1]) - (c[..., 2] - c[..., 3]))
        ratio = np.divide(delta, c[..., 3], out=np.zeros_like(delta),
                          where=c[..., 3] > 0)
        dois = {}
        for (a, b), weight in zip(pairs.tolist(),
                                  ratio.max(axis=1, initial=0.0).tolist()):
            if weight > min_doi:
                dois[candidate_set[a].name, candidate_set[b].name] = weight
        return InteractionGraph(benefits, dois)

    def _pair_designs(self, bits, pairs):
        """For each pair ``(a, b)`` and each of its contexts ``X`` (over
        the other indexes in name order), the masks of ``X``, ``X+a``,
        ``X+b`` and ``X+a+b``: shape ``(pairs, contexts, 4)``."""
        if not len(pairs):
            return np.zeros((0, 0, 4), dtype=bits.dtype)
        a, b = pairs[:, :1], pairs[:, 1:]  # a < b
        others = np.arange(len(bits) - 2)
        others = others + (others >= a)
        others += others >= b
        contexts = bits[others] @ self._contexts(len(bits) - 2).T.astype(
            bits.dtype)
        extras = np.zeros((len(pairs), 4), dtype=bits.dtype)
        extras[:, 1], extras[:, 2] = bits[a[:, 0]], bits[b[:, 0]]
        extras[:, 3] = extras[:, 1] | extras[:, 2]
        return contexts[:, :, None] | extras[:, None, :]

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
