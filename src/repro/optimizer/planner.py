"""The planner: Selinger dynamic programming over join orders.

``plan_query`` is the single entry point.  It keeps, per relation subset,
the cheapest path for every distinct output ordering (interesting orders),
which both merge joins and the INUM cost model rely on.
"""

import itertools
from bisect import insort_right
from operator import attrgetter

from repro.optimizer import joins as J
from repro.optimizer import paths as P
from repro.optimizer.selectivity import group_count, join_selectivity
from repro.optimizer.settings import DEFAULT_SETTINGS
from repro.util import PlanningError

MAX_PATHS_PER_SET = 12

_total_cost = attrgetter("total_cost")


def plan_query(bound_query, catalog, settings=None, inputs=None, subsets=None):
    """Plan *bound_query* against *catalog*; returns the cheapest Plan.

    *inputs* is ``paths.plan_inputs(bound_query, catalog)`` when the
    caller has already resolved it (the plan memo's lookup key).

    *subsets* is a dict a caller that plans one statement under several
    designs (an INUM build: one design per interesting-order vector)
    passes to each call: the path set of a relation subset is a pure
    function of the bound query, the settings and the *inputs* entries
    of its aliases, so it is enumerated once and shared by every design
    that offers those aliases the same indexes (a row of
    :mod:`repro.evaluation.memos`: one bound query and settings only)."""
    settings = settings or DEFAULT_SETTINGS
    if inputs is None:
        inputs = P.plan_inputs(bound_query, catalog)
    if subsets is None:
        subsets = {}
    return _Planner(bound_query, inputs, settings, subsets).plan()


class _PathSet:
    """Cheapest path per distinct ordering for one relation subset,
    ascending in total cost (ties in arrival order)."""

    def __init__(self):
        self._paths = []

    def admits(self, total_cost, ordering):
        """False when a path of this cost and ordering would be dropped
        by :meth:`add` as dominated — the test join enumeration runs
        before building a node.  Only a path that costs no more can
        dominate, and the paths ascend in cost: the scan ends at the
        first dearer one, and the cheapest alone answers for a
        candidate that promises no ordering."""
        paths = self._paths
        if not ordering:
            return not paths or paths[0].total_cost > total_cost
        for existing in paths:
            if existing.total_cost > total_cost:
                break
            if J.ordering_satisfies(existing.ordering, ordering):
                return False
        return True

    def add(self, path):
        total_cost, ordering = path.total_cost, path.ordering
        satisfies = J.ordering_satisfies
        kept = []
        for existing in self._paths:
            if existing.total_cost <= total_cost:
                if satisfies(existing.ordering, ordering):
                    return  # dominated: no cheaper and no better ordered
                # Only an equally cheap path can be dominated in turn.
                if (
                    existing.total_cost < total_cost
                    or not satisfies(ordering, existing.ordering)
                ):
                    kept.append(existing)
            elif not satisfies(ordering, existing.ordering):
                kept.append(existing)
        # Where a stable sort puts a late arrival: behind its cost ties.
        insort_right(kept, path, key=_total_cost)
        del kept[MAX_PATHS_PER_SET:]
        self._paths = kept

    def __iter__(self):
        return iter(self._paths)

    def __len__(self):
        return len(self._paths)


class _Planner:
    def __init__(self, bound_query, inputs, settings, subsets):
        self.q = bound_query
        self.settings = settings
        self.aliases = list(bound_query.tables)
        # One scan context (geometry + selectivities, memoized on the
        # bound query) and one list of the indexes that reach it per
        # alias, shared by the base paths and every parameterized join
        # probe — all a path set reads of the design, hence the subset
        # memo's key.
        self._ctx = {}
        self._indexes = {}
        for alias, (ctx, indexes) in zip(self.aliases, inputs):
            self._ctx[alias] = ctx
            self._indexes[alias] = indexes
        self._subsets = subsets

    # ------------------------------------------------------------------

    def plan(self):
        best = self._join_search()
        top = self._finalize(best)
        return top

    # ------------------------------------------------------------------
    # Cardinality model (shared by every path for the same subset).
    # ------------------------------------------------------------------

    def subset_rows(self, subset):
        rows = 1.0
        for alias in subset:
            ctx = self._ctx[alias]
            rows *= ctx.geometry.rows * ctx.sel_all
        for clause in self.q.joins:
            if clause.left_alias in subset and clause.right_alias in subset:
                rows *= join_selectivity(
                    self.q.table_for(clause.left_alias),
                    clause.left_column,
                    self.q.table_for(clause.right_alias),
                    clause.right_column,
                )
        return max(1e-9, rows)

    # ------------------------------------------------------------------
    # Base relations.
    # ------------------------------------------------------------------

    def _subset_key(self, aliases):
        """*aliases* (in ``FROM`` order) with everything their path set
        reads of the design."""
        ctx, indexes = self._ctx, self._indexes
        return tuple((alias, ctx[alias], indexes[alias]) for alias in aliases)

    def _base_paths(self):
        table_paths = {}
        for alias in self.aliases:
            key = self._subset_key((alias,))
            pset = self._subsets.get(key)
            if pset is None:
                pset = _PathSet()
                ctx = self._ctx[alias]
                for path in P.access_paths(
                    ctx, self._indexes[alias], self.settings, ctx.interesting
                ):
                    pset.add(path)
                if not len(pset):
                    raise PlanningError("no access path for %r" % (alias,))
                self._subsets[key] = pset
            table_paths[frozenset((alias,))] = pset
        return table_paths

    # ------------------------------------------------------------------
    # Join enumeration.
    # ------------------------------------------------------------------

    def _join_search(self):
        sets = self._base_paths()
        n = len(self.aliases)
        if n == 1:
            return sets[frozenset(self.aliases)]
        for size in range(2, n + 1):
            for combo in itertools.combinations(self.aliases, size):
                subset = frozenset(combo)
                if size == n:
                    # Distinct per design by construction: never shared.
                    pset = self._enumerate(sets, subset)
                else:
                    key = self._subset_key(combo)
                    pset = self._subsets.get(key)
                    if pset is None:
                        pset = self._subsets[key] = self._enumerate(
                            sets, subset
                        )
                if len(pset):
                    sets[subset] = pset
        full = frozenset(self.aliases)
        if full not in sets:
            raise PlanningError("join search failed to cover all relations")
        return sets[full]

    def _enumerate(self, sets, subset):
        """The path set of *subset*: every join of two smaller sets."""
        pset = _PathSet()
        rows_out = self.subset_rows(subset)
        # A split no join clause crosses is a cartesian pair (empty
        # clauses): a disconnected join graph still gets every product.
        for left, right in self._splits(subset):
            if left not in sets or right not in sets:
                continue
            self._join_pair(sets, left, right,
                            self._clauses_between(left, right), rows_out, pset)
        return pset

    def _splits(self, subset):
        members = sorted(subset)
        seen = set()
        for r in range(1, len(members)):
            for combo in itertools.combinations(members, r):
                left = frozenset(combo)
                if left in seen:
                    continue
                right = subset - left
                seen.add(left)
                seen.add(right)
                yield left, right
                yield right, left

    def _clauses_between(self, left, right):
        return tuple(
            c
            for c in self.q.joins
            if (c.left_alias in left and c.right_alias in right)
            or (c.left_alias in right and c.right_alias in left)
        )

    def _join_pair(self, sets, left, right, clauses, rows_out, pset):
        """Every join of a *left* path (outer) with a *right* path
        (inner) into *pset*.  What a cost reads of one input is derived
        once per path, before the pair loop; a candidate is priced from
        those terms and tested against the set's dominance rule
        (``admits``) before its node is built."""
        settings = self.settings
        admits, add = pset.admits, pset.add
        keys_outer, keys_inner = self._merge_keys(clauses, left)
        costing = J.JoinCosting(
            clauses, keys_outer, keys_inner, rows_out, settings
        )
        nestloop_cost = costing.nestloop_cost
        # Parameterized index nested loop: only when the inner side is a
        # single base relation probed on its join columns.
        probes = ()
        if clauses and len(right) == 1:
            (inner_alias,) = right
            probes = [
                costing.probe(path)
                for path in P.probe_paths(
                    self._ctx[inner_alias],
                    self._indexes[inner_alias],
                    settings,
                    tuple(
                        clause.side_for(inner_alias)[0]
                        for clause in clauses
                        if clause.involves(inner_alias)
                    ),
                )
            ]
        inners = [costing.inner(path) for path in sets[right]]
        for outer in sets[left]:
            o = costing.outer(outer)
            ordering = outer.ordering
            for i in inners:
                total = nestloop_cost(o, i, i.total, i.rescan)
                if admits(total, ordering):
                    add(costing.nestloop(o, i.path, total))
                if i.mat_total is not None:
                    total = nestloop_cost(o, i, i.mat_total, i.mat_rescan)
                    if admits(total, ordering):
                        add(costing.nestloop(
                            o, costing.materialized(i), total
                        ))
                if clauses:
                    total = costing.hashjoin_cost(o, i)
                    if admits(total, ()):
                        add(costing.hashjoin(o, i, total))
                    total = costing.mergejoin_cost(o, i)
                    if admits(total, o.merge_ordering):
                        add(costing.mergejoin(o, i, total))
            for i in probes:
                total = nestloop_cost(o, i, i.total, i.rescan)
                if admits(total, ordering):
                    add(costing.nestloop(o, i.path, total))

    @staticmethod
    def _merge_keys(clauses, outer_aliases):
        keys_outer, keys_inner = [], []
        for clause in clauses:
            if clause.left_alias in outer_aliases:
                keys_outer.append((clause.left_alias, clause.left_column, True))
                keys_inner.append((clause.right_alias, clause.right_column, True))
            else:
                keys_outer.append((clause.right_alias, clause.right_column, True))
                keys_inner.append((clause.left_alias, clause.left_column, True))
        return tuple(keys_outer), tuple(keys_inner)

    # ------------------------------------------------------------------
    # Grouping, ordering, limit.
    # ------------------------------------------------------------------

    def _finalize(self, path_set):
        candidates = list(path_set)
        if self.q.is_aggregate or self.q.group_by:
            groups = group_count(self.q, max(p.rows for p in candidates))
            aggregated = []
            for path in candidates:
                aggregated.extend(
                    J.aggregate_paths(path, self.q, groups, self.settings)
                )
            candidates = aggregated

        if self.q.order_by:
            required = tuple(self.q.order_by)
            ordered = []
            for path in candidates:
                if J.ordering_satisfies(path.ordering, required):
                    ordered.append(path)
                else:
                    ordered.append(J.sort_path(path, required, self.settings))
            candidates = ordered

        if self.q.limit is not None:
            candidates = [
                J.limit_path(path, self.q.limit, self.settings) for path in candidates
            ]

        best = min(candidates, key=lambda p: p.total_cost)
        return best
