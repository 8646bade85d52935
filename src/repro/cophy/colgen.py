"""Column-generation CoPhy: lazy candidate activation with an exactness
certificate.

The classic pipeline (``build_bip`` + ``greedy_select``) materializes
one BIP option per (slot, candidate) pair up front and prices every
candidate every round — fine at ``max_candidates=60``, a scaling cliff
at thousands.  :func:`solve_colgen` keeps the *search* exact while
doing lazy work, in three parts:

* :class:`~repro.cophy.bip.CandidatePricer` (shared with ``build_bip``)
  — exact per-(slot, candidate) access costs without per-candidate path
  regeneration, **bit-identical** to pricing the single-index design
  view through the INUM slot memo (its docstring says why).

* a *restricted master*: a :class:`~repro.cophy.bip.BipProblem` over
  the **full** candidate vector whose slot options only mention the
  currently *active* candidates.  Because option lists for a chosen set
  ``C ⊆ active`` are identical to the full problem's (the default plus
  exactly the options of indexes in ``C``), restricted pricing of any
  such set equals full-problem pricing bit for bit — including the
  write-penalty accumulation, which iterates the very same global
  position sets.

* a sound *reduced-benefit bound*: for candidate *j* at chosen state
  ``C``, per query ``benefit_q(j | C) ≤ max_plan Σ_slot max(0,
  winner_C(slot) − cost_j(slot))`` (drop into the plan that currently
  wins nothing forfeits; the winner of every slot can only improve to
  ``cost_j``).  Slot winners are anti-monotone in ``C``, so the bound
  computed at the current state dominates the benefit at **every**
  future state — a candidate whose bound falls below greedy's
  ``1e-9`` benefit threshold is prunable forever, and the final round
  terminates with the certificate that no inactive candidate could
  have changed any decision.  The bound is evaluated for all inactive
  candidates each round as a handful of grouped numpy reductions.

The round loop replays :func:`~repro.cophy.greedy.greedy_select`
exactly — same feasibility filter, same benefit threshold, same
strict-max tie-breaking over ascending global positions — activating
(in descending bound-score order) every inactive candidate whose bound
could still beat the incumbent before committing a round.  Hence the
headline property, pinned by ``tests/test_colgen.py``:
``solve_colgen`` returns the identical design and objective as greedy
over the exhaustively-built full BIP, while activating a small
fraction of the candidate space.
"""

import time

import numpy as np

from repro import obs
from repro.cophy.bip import (
    BipProblem,
    CandidatePricer,
    PlanTerm,
    QueryTerm,
    SlotOptions,
)
from repro.cophy.solvers import SolveResult, observed_solve
from repro.optimizer import paths as P
from repro.optimizer.writecost import (
    affected_rows,
    heap_write_cost,
    index_maintenance_cost_per_row,
    locate_query,
    maintenance_cost,
)
from repro.sql.binder import BoundWrite
from repro.util import workload_pairs

# Inactive candidates activated per refinement wave, in descending
# bound-score order.  Small enough not to flood the active set when the
# first wave's incumbent already dominates, large enough that round one
# (no incumbent yet) converges in a few waves.
_WAVE_SIZE = 32

# Greedy's benefit threshold (a candidate must beat it to be chosen) —
# shared so the bound prunes against exactly the decision rule.
_BENEFIT_EPS = 1e-9


class _Master:
    """The priced skeleton of the full BIP plus restricted-problem
    construction and the vectorized reduced-benefit bound."""

    def __init__(self, inum_model, workload, candidates, budget_pages,
                 max_indexes):
        catalog = inum_model.catalog
        self.candidates = list(candidates)
        n = len(self.candidates)
        self.sizes = [
            float(ix.size_pages(catalog.table(ix.table_name)))
            for ix in self.candidates
        ]
        self.budget_pages = float(budget_pages)
        self.max_indexes = max_indexes
        self.pricer = CandidatePricer(inum_model)
        self.pricer.set_candidates(self.candidates)

        self.write_base_cost = 0.0
        self.index_penalties = [0.0] * n
        self.slot_entries = []  # sid -> (default cost or None, options)
        self.pos_slots = [[] for __ in range(n)]  # pos -> [(sid, cost)]
        self.query_specs = []  # (weight, sql, [(internal, [sid, ...])])
        slot_ids = {}
        priced = []  # bound queries whose slots the pricer priced

        def slot_entry(bq, slot):
            key = (bq.sql, slot)
            sid = slot_ids.get(key)
            if sid is None:
                entry = self.pricer.slot_options(bq, slot)
                sid = slot_ids[key] = len(self.slot_entries)
                self.slot_entries.append(entry)
                for pos, cost in entry[1]:
                    self.pos_slots[pos].append((sid, cost))
            return sid

        def add_query_spec(bq_or_sql, weight):
            cache = inum_model.cache_for(bq_or_sql)
            bq = cache.bound_query
            priced.append(bq)
            plans = [
                (
                    cached.internal_cost,
                    [slot_entry(bq, slot) for slot in cached.slots],
                )
                for cached in cache.plans
            ]
            self.query_specs.append((weight, bq.sql, plans))

        settings = inum_model.settings
        for sql, weight in workload_pairs(workload):
            bound = inum_model.bound(sql)
            if isinstance(bound, BoundWrite):
                # Same three-part fold as build_bip's _add_write_terms.
                base = heap_write_cost(bound, settings)
                base += maintenance_cost(
                    bound, catalog.indexes_on(bound.table.name), settings
                )
                self.write_base_cost += weight * base
                if bound.kind in ("update", "delete"):
                    add_query_spec(locate_query(bound), weight)
                rows = affected_rows(bound)
                for pos, index in enumerate(self.candidates):
                    if bound.touches_index(index):
                        per_row = index_maintenance_cost_per_row(
                            index, bound.table, settings
                        )
                        self.index_penalties[pos] += weight * rows * per_row
                continue
            add_query_spec(bound, weight)

        # Current per-slot winners under the chosen set (inf = slot
        # feasible only through a not-yet-chosen candidate's option).
        self.winner = np.asarray(
            [
                np.inf if default is None else default
                for default, __ in self.slot_entries
            ],
            dtype=np.float64,
        )
        self._build_bound_groups()
        # Every (slot, candidate) price is in slot_entries now: release
        # the candidate pool's path groups from the shared scan memo.
        pool = set(self.candidates)
        for bq in priced:
            P.forget_indexes(bq, pool)

    # -- restricted master ---------------------------------------------

    def build_restricted(self, active_set):
        """The BIP over the full candidate vector with slot options
        filtered to *active_set* — equal to ``build_bip`` over the full
        candidate list when every candidate is active (pinned)."""
        queries = []
        for weight, sql, plans in self.query_specs:
            term = QueryTerm(weight=weight, plans=[], sql=sql)
            for internal, sids in plans:
                plan_term = PlanTerm(internal_cost=internal, slots=[])
                feasible = True
                for sid in sids:
                    default, options = self.slot_entries[sid]
                    opts = []
                    if default is not None:
                        opts.append((-1, default))
                    for pos, cost in options:
                        if pos in active_set:
                            opts.append((pos, cost))
                    if not opts:
                        feasible = False
                        break
                    plan_term.slots.append(SlotOptions(options=opts))
                if feasible:
                    term.plans.append(plan_term)
            if not term.plans:
                raise RuntimeError("no feasible cached plan for %r" % (sql,))
            queries.append(term)
        return BipProblem(
            candidates=self.candidates,
            sizes=self.sizes,
            budget_pages=self.budget_pages,
            queries=queries,
            max_indexes=self.max_indexes,
            write_base_cost=self.write_base_cost,
            index_penalties=(
                list(self.index_penalties)
                if any(self.index_penalties) else []
            ),
        )

    # -- reduced-benefit bound -----------------------------------------

    def _build_bound_groups(self):
        """Flatten every (candidate, query, plan, option-slot) pair into
        arrays grouped candidate → query → plan, so each round's bound
        is three reduceat passes (Σ over plan slots, max over plans,
        weighted Σ over queries)."""
        ent_pos, ent_q, ent_p, ent_sid, ent_cost = [], [], [], [], []
        qweights = []
        pid = 0
        for qid, (weight, __, plans) in enumerate(self.query_specs):
            qweights.append(weight)
            for internal, sids in plans:
                for sid in sids:
                    __, options = self.slot_entries[sid]
                    for pos, cost in options:
                        ent_pos.append(pos)
                        ent_q.append(qid)
                        ent_p.append(pid)
                        ent_sid.append(sid)
                        ent_cost.append(cost)
                pid += 1
        self._qweights = np.asarray(qweights, dtype=np.float64)
        self._penalty = np.asarray(self.index_penalties, dtype=np.float64)
        self.n_entries = len(ent_cost)
        if not self.n_entries:
            self._ent_sid = np.empty(0, dtype=np.intp)
            return
        ent_pos = np.asarray(ent_pos, dtype=np.intp)
        ent_q = np.asarray(ent_q, dtype=np.intp)
        ent_p = np.asarray(ent_p, dtype=np.intp)
        order = np.lexsort((ent_p, ent_q, ent_pos))
        ent_pos, ent_q, ent_p = ent_pos[order], ent_q[order], ent_p[order]
        self._ent_sid = np.asarray(ent_sid, dtype=np.intp)[order]
        self._ent_cost = np.asarray(ent_cost, dtype=np.float64)[order]
        key_pq = (ent_pos, ent_q, ent_p)
        plan_first = np.r_[
            True,
            (ent_pos[1:] != ent_pos[:-1])
            | (ent_q[1:] != ent_q[:-1])
            | (ent_p[1:] != ent_p[:-1]),
        ]
        self._plan_starts = np.nonzero(plan_first)[0]
        grp_pos = ent_pos[self._plan_starts]
        grp_q = ent_q[self._plan_starts]
        q_first = np.r_[
            True,
            (grp_pos[1:] != grp_pos[:-1]) | (grp_q[1:] != grp_q[:-1]),
        ]
        self._q_starts = np.nonzero(q_first)[0]
        self._qgrp_q = grp_q[self._q_starts]
        qg_pos = grp_pos[self._q_starts]
        c_first = np.r_[True, qg_pos[1:] != qg_pos[:-1]]
        self._c_starts = np.nonzero(c_first)[0]
        self._cgrp_pos = qg_pos[self._c_starts]

    def upper_bounds(self):
        """A sound upper bound on every candidate's total benefit at the
        current winner state (and at every future one — winners are
        anti-monotone in the chosen set).  Includes a relative + absolute
        safety margin so float rounding can never undercut a true
        benefit."""
        n = len(self.candidates)
        if not self.n_entries:
            ub = np.zeros(n, dtype=np.float64)
        else:
            imp = np.maximum(
                self.winner[self._ent_sid] - self._ent_cost, 0.0
            )
            plan_sums = np.add.reduceat(imp, self._plan_starts)
            q_max = np.maximum.reduceat(plan_sums, self._q_starts)
            contrib = q_max * self._qweights[self._qgrp_q]
            cand = np.add.reduceat(contrib, self._c_starts)
            ub = np.zeros(n, dtype=np.float64)
            ub[self._cgrp_pos] = cand
        if self._penalty.size:
            ub = ub - self._penalty
        return ub * (1.0 + 1e-9) + 1e-12

    def commit(self, pos):
        """Fold candidate *pos* into the winner state (chosen grew)."""
        for sid, cost in self.pos_slots[pos]:
            if cost < self.winner[sid]:
                self.winner[sid] = cost


def solve_colgen(inum_model, workload, candidates, budget_pages,
                 max_indexes=None, by_ratio=True):
    """Greedy CoPhy selection by column generation: identical design
    and objective to ``greedy_select(build_bip(model, workload,
    candidates, budget, max_indexes), by_ratio=by_ratio)``, activating
    only the candidates whose reduced-benefit bound ever threatens a
    round's incumbent."""
    candidates = list(candidates)
    n = len(candidates)
    with obs.tracer().span("cophy.solve_colgen", candidates=n):
        started = time.perf_counter()
        master = _Master(
            inum_model, workload, candidates, budget_pages, max_indexes
        )
        sizes = master.sizes
        budget = master.budget_pages

        active = []  # activation order (restricted options grow with it)
        active_set = set()
        pruned = np.zeros(n, dtype=bool)
        chosen = []
        chosen_set = set()
        used = 0.0
        problem = master.build_restricted(active_set)
        current_cost = problem.config_cost(chosen)
        base_cost = current_cost
        evaluations = 1
        rounds = 0
        waves = 0

        def activate(wave):
            for pos in wave:
                active.append(pos)
                active_set.add(pos)

        while len(chosen) < n:
            if max_indexes is not None and len(chosen) >= max_indexes:
                break
            rounds += 1
            ub = master.upper_bounds()
            pruned |= ub <= _BENEFIT_EPS
            round_costs = {}  # global pos -> cost of chosen + [pos]

            def price(positions):
                nonlocal evaluations
                if positions:
                    costs = problem.config_costs_delta(chosen, positions)
                    evaluations += len(positions)
                    round_costs.update(zip(positions, costs))

            price([
                pos for pos in sorted(active_set - chosen_set)
                if used + sizes[pos] <= budget
            ])

            while True:
                # Greedy's exact selection over the active feasible set:
                # ascending global positions, benefit threshold, strict
                # max (first best wins ties).
                best_pos = None
                best_score = 0.0
                best_cost = current_cost
                for pos in sorted(round_costs):
                    benefit = current_cost - round_costs[pos]
                    if benefit <= _BENEFIT_EPS:
                        continue
                    score = benefit / sizes[pos] if by_ratio else benefit
                    if score > best_score:
                        best_pos, best_score = pos, score
                        best_cost = round_costs[pos]
                # Inactive candidates whose bound could still beat (or
                # tie — ties resolve by position, so they must compete
                # for real) the incumbent.
                need = []
                for pos in np.nonzero(~pruned)[0].tolist():
                    if pos in active_set:
                        continue
                    if used + sizes[pos] > budget:
                        continue  # stays infeasible: used only grows
                    score = ub[pos] / sizes[pos] if by_ratio else ub[pos]
                    if best_pos is None or score >= best_score:
                        need.append((score, pos))
                if not need:
                    break
                need.sort(key=lambda item: (-item[0], item[1]))
                wave = [pos for __, pos in need[:_WAVE_SIZE]]
                activate(wave)
                waves += 1
                problem = master.build_restricted(active_set)
                price([
                    pos for pos in sorted(wave)
                    if used + sizes[pos] <= budget
                ])

            if best_pos is None:
                break
            chosen.append(best_pos)
            chosen_set.add(best_pos)
            used += sizes[best_pos]
            current_cost = best_cost
            master.commit(best_pos)

        registry = obs.metrics()
        registry.counter(
            "repro_colgen_rounds_total",
            "Column-generation greedy rounds",
        ).inc(rounds)
        registry.counter(
            "repro_colgen_activated_total",
            "Candidates activated into the restricted master",
        ).inc(len(active))
        registry.counter(
            "repro_colgen_priced_total",
            "Slot-candidate pairs priced by the candidate pricer",
        ).inc(master.pricer.pricings)
        return observed_solve(SolveResult(
            chosen_positions=tuple(chosen),
            objective=current_cost,
            status="heuristic",
            solver="colgen",
            solve_seconds=time.perf_counter() - started,
            nodes_explored=evaluations,
            n_variables=n,
            extra={
                "base_cost": base_cost,
                "rounds": rounds,
                "waves": waves,
                "activated": len(active),
                "n_candidates": n,
                "priced": master.pricer.pricings,
                "certificate": "no-inactive-candidate-improves",
            },
        ))
