"""The planner: Selinger dynamic programming over join orders.

``plan_query`` is the single entry point.  It keeps, per relation subset,
the cheapest path for every distinct output ordering (interesting orders),
which both merge joins and the INUM cost model rely on.
"""

import itertools

from repro.optimizer import joins as J
from repro.optimizer import paths as P
from repro.optimizer.selectivity import group_count, join_selectivity
from repro.optimizer.settings import DEFAULT_SETTINGS
from repro.util import PlanningError

MAX_PATHS_PER_SET = 12


def plan_query(bound_query, catalog, settings=None, inputs=None):
    """Plan *bound_query* against *catalog*; returns the cheapest Plan.

    *inputs* is ``paths.plan_inputs(bound_query, catalog)`` when the
    caller has already resolved it (the plan memo's lookup key)."""
    settings = settings or DEFAULT_SETTINGS
    if inputs is None:
        inputs = P.plan_inputs(bound_query, catalog)
    return _Planner(bound_query, inputs, settings).plan()


class _PathSet:
    """Cheapest path per distinct ordering for one relation subset."""

    def __init__(self):
        self._paths = []

    def admits(self, total_cost, ordering):
        """False when a path of this cost and ordering would be dropped
        by :meth:`add` as dominated — the test join constructors run
        before building a node."""
        for existing in self._paths:
            if (
                existing.total_cost <= total_cost
                and J.ordering_satisfies(existing.ordering, ordering)
            ):
                return False
        return True

    def add(self, path):
        if path is None:
            return
        kept = []
        for existing in self._paths:
            if (
                existing.total_cost <= path.total_cost
                and J.ordering_satisfies(existing.ordering, path.ordering)
            ):
                return  # dominated: no cheaper and no better ordered
            if (
                path.total_cost <= existing.total_cost
                and J.ordering_satisfies(path.ordering, existing.ordering)
            ):
                continue  # existing is dominated, drop it
            kept.append(existing)
        kept.append(path)
        kept.sort(key=lambda p: p.total_cost)
        del kept[MAX_PATHS_PER_SET:]
        self._paths = kept

    def __iter__(self):
        return iter(self._paths)

    def __len__(self):
        return len(self._paths)

    def cheapest(self):
        if not self._paths:
            raise PlanningError("no path produced for a relation subset")
        return self._paths[0]


class _Planner:
    def __init__(self, bound_query, inputs, settings):
        self.q = bound_query
        self.settings = settings
        self.aliases = list(bound_query.tables)
        # One scan context (geometry + selectivities, memoized on the
        # bound query) and one list of the indexes that reach it per
        # alias, shared by the base paths and every parameterized join
        # probe.
        self._ctx = {}
        self._indexes = {}
        for alias, (ctx, indexes) in zip(self.aliases, inputs):
            self._ctx[alias] = ctx
            self._indexes[alias] = indexes

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

    def _base_paths(self):
        table_paths = {}
        for alias in self.aliases:
            pset = _PathSet()
            ctx = self._ctx[alias]
            for path in P.access_paths(
                ctx, self._indexes[alias], self.settings, ctx.interesting
            ):
                pset.add(path)
            if not len(pset):
                raise PlanningError("no access path for %r" % (alias,))
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
                pset = _PathSet()
                rows_out = self.subset_rows(subset)
                found_connected = False
                for left, right in self._splits(subset):
                    clauses = self._clauses_between(left, right)
                    if clauses:
                        found_connected = True
                    if left not in sets or right not in sets:
                        continue
                    self._join_pair(sets, left, right, clauses, rows_out, pset)
                if not found_connected:
                    # Disconnected join graph: cartesian product as last resort.
                    for left, right in self._splits(subset):
                        if left not in sets or right not in sets:
                            continue
                        self._join_pair(sets, left, right, (), rows_out, pset)
                if len(pset):
                    sets[subset] = pset
        full = frozenset(self.aliases)
        if full not in sets:
            raise PlanningError("join search failed to cover all relations")
        return sets[full]

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
        (inner) into *pset*.  Candidates are costed and tested against
        the set's dominance rule before a node is built
        (``admits``)."""
        settings = self.settings
        admits = pset.admits
        # Parameterized index nested loop: only when the inner side is a
        # single base relation probed on its join columns.
        probes = ()
        if clauses and len(right) == 1:
            (inner_alias,) = right
            probes = P.probe_paths(
                self._ctx[inner_alias],
                self._indexes[inner_alias],
                settings,
                tuple(
                    clause.side_for(inner_alias)[0]
                    for clause in clauses
                    if clause.involves(inner_alias)
                ),
            )
        inners = [
            (
                inner,
                J.materialize_path(inner, settings)
                if not inner.is_parameterized and settings.enable_material
                else None,
            )
            for inner in sets[right]
        ]
        keys_outer, keys_inner = self._merge_keys(clauses, left)
        for outer in sets[left]:
            for inner, materialized in inners:
                pset.add(J.nestloop_path(
                    outer, inner, clauses, rows_out, settings, admits
                ))
                if materialized is not None:
                    pset.add(J.nestloop_path(
                        outer, materialized, clauses, rows_out, settings,
                        admits,
                    ))
                if clauses:
                    pset.add(J.hashjoin_path(
                        outer, inner, clauses, rows_out, settings, admits
                    ))
                    pset.add(J.mergejoin_path(
                        outer, inner, clauses, keys_outer, keys_inner,
                        rows_out, settings, admits,
                    ))
            for probe in probes:
                pset.add(J.nestloop_path(
                    outer, probe, clauses, rows_out, settings, admits
                ))

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
