"""Column-generation CoPhy: lazy candidate activation with an exactness
certificate.

The classic pipeline (``build_bip`` + ``greedy_select``) materializes
one BIP option per (slot, candidate) pair up front and prices every
candidate every round — fine at ``max_candidates=60``, a scaling cliff
at thousands.  :func:`solve_colgen` keeps the *search* exact while
doing lazy work.  It states none of the program itself: the workload
is folded into terms by the one
:class:`~repro.cophy.bip.PricedWorkload` ``build_bip`` is the
``.problem()`` of — priced by its
:class:`~repro.cophy.bip.CandidatePricer`, exact per-(slot, candidate)
access costs without per-candidate path regeneration — and the round's
decision is greedy's own :func:`~repro.cophy.greedy.best_extension`.
Column generation adds two things:

* a *restricted master*: ``PricedWorkload.problem(active)``, the
  :class:`~repro.cophy.bip.BipProblem` over the **full** candidate
  vector whose slot options only mention the currently *active*
  candidates — the same program with a filter, so restricted pricing of
  any chosen set ``C ⊆ active`` equals full-problem pricing bit for bit
  (its docstring says why);

* a sound *reduced-benefit bound*: for candidate *j* at chosen state
  ``C``, per query ``benefit_q(j | C) ≤ max_plan Σ_slot max(0,
  winner_C(slot) − cost_j(slot))`` (drop into the plan that currently
  wins nothing forfeits; the winner of every slot can only improve to
  ``cost_j``).  Slot winners are anti-monotone in ``C``, so the bound
  computed at the current state dominates the benefit at **every**
  future state — a candidate whose bound falls below greedy's benefit
  threshold (:data:`~repro.cophy.greedy.BENEFIT_EPS`) is prunable
  forever, and the final round terminates with the certificate that
  no inactive candidate could have changed any decision.  The bound is
  evaluated for all inactive candidates each round as a handful of
  grouped numpy reductions.

The round loop replays :func:`~repro.cophy.greedy.greedy_select`
exactly — same feasibility filter, the same decision function over
ascending global positions — activating (in descending bound-score
order) every inactive candidate whose bound could still beat the
incumbent before committing a round.  Hence the
headline property, pinned by ``tests/test_colgen.py``:
``solve_colgen`` returns the identical design and objective as greedy
over the exhaustively-built full BIP, while activating a small
fraction of the candidate space.
"""

import time

import numpy as np

from repro import obs
from repro.obs.catalogue import (
    COLGEN_ACTIVATED, COLGEN_PRICED, COLGEN_ROUNDS, SPAN_COPHY_SOLVE_COLGEN)
from repro.cophy.bip import PricedWorkload
from repro.cophy.greedy import BENEFIT_EPS, best_extension
from repro.cophy.solvers import SolveResult, observed_solve

# Inactive candidates activated per refinement wave, in descending
# bound-score order.  Small enough not to flood the active set when the
# first wave's incumbent already dominates, large enough that round one
# (no incumbent yet) converges in a few waves.
_WAVE_SIZE = 32


class _Master:
    """What is column generation's own on top of the priced workload:
    the per-slot winner row under the chosen set and the vectorized
    reduced-benefit bound over it."""

    def __init__(self, priced):
        self.priced = priced
        self.pos_slots = [[] for __ in priced.candidates]  # pos -> [(sid, cost)]
        for sid, (__, options) in enumerate(priced.slot_entries):
            for pos, cost in options:
                self.pos_slots[pos].append((sid, cost))
        # Current per-slot winners under the chosen set (inf = slot
        # feasible only through a not-yet-chosen candidate's option).
        self.winner = np.asarray(
            [
                np.inf if default is None else default
                for default, __ in priced.slot_entries
            ],
            dtype=np.float64,
        )
        self._build_bound_groups()

    # -- reduced-benefit bound -----------------------------------------

    def _build_bound_groups(self):
        """Flatten every (candidate, query, plan, option-slot) pair into
        arrays grouped candidate → query → plan, so each round's bound
        is three reduceat passes (Σ over plan slots, max over plans,
        weighted Σ over queries)."""
        ent_pos, ent_q, ent_p, ent_sid, ent_cost = [], [], [], [], []
        qweights = []
        pid = 0
        for qid, (weight, __, plans) in enumerate(self.priced.queries):
            qweights.append(weight)
            for internal, sids in plans:
                for sid in sids:
                    __, options = self.priced.slot_entries[sid]
                    for pos, cost in options:
                        ent_pos.append(pos)
                        ent_q.append(qid)
                        ent_p.append(pid)
                        ent_sid.append(sid)
                        ent_cost.append(cost)
                pid += 1
        self._qweights = np.asarray(qweights, dtype=np.float64)
        self._penalty = np.asarray(
            self.priced.index_penalties, dtype=np.float64
        )
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
        n = len(self.priced.candidates)
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
                 max_indexes=None):
    """Greedy CoPhy selection by column generation: identical design
    and objective to ``greedy_select(build_bip(model, workload,
    candidates, budget, max_indexes))``, activating only the candidates
    whose reduced-benefit bound ever threatens a round's incumbent."""
    candidates = list(candidates)
    n = len(candidates)
    with obs.tracer().span(SPAN_COPHY_SOLVE_COLGEN, candidates=n):
        started = time.perf_counter()
        priced = PricedWorkload(
            inum_model, workload, candidates, budget_pages, max_indexes
        )
        master = _Master(priced)
        sizes = priced.sizes
        budget = priced.budget_pages

        active = set()  # the restricted master's options grow with it
        pruned = np.zeros(n, dtype=bool)
        chosen = []
        used = 0.0
        problem = priced.problem(active)
        current_cost = problem.config_cost(chosen)
        base_cost = current_cost
        evaluations = 1
        rounds = 0
        waves = 0

        while len(chosen) < n:
            if max_indexes is not None and len(chosen) >= max_indexes:
                break
            rounds += 1
            ub = master.upper_bounds()
            pruned |= ub <= BENEFIT_EPS
            round_costs = {}  # global pos -> cost of chosen + [pos]

            def price(positions):
                nonlocal evaluations
                if positions:
                    costs = problem.config_costs_delta(chosen, positions)
                    evaluations += len(positions)
                    round_costs.update(zip(positions, costs))

            price([
                pos for pos in sorted(active.difference(chosen))
                if used + sizes[pos] <= budget
            ])

            while True:
                # Greedy's exact selection over the active feasible set.
                best_pos, best_score, best_cost = best_extension(
                    current_cost, sorted(round_costs.items()), sizes
                )
                # Inactive candidates whose bound could still beat (or
                # tie — ties resolve by position, so they must compete
                # for real) the incumbent.
                need = []
                for pos in np.nonzero(~pruned)[0].tolist():
                    if pos in active:
                        continue
                    if used + sizes[pos] > budget:
                        continue  # stays infeasible: used only grows
                    score = ub[pos] / sizes[pos]
                    if best_pos is None or score >= best_score:
                        need.append((score, pos))
                if not need:
                    break
                need.sort(key=lambda item: (-item[0], item[1]))
                wave = [pos for __, pos in need[:_WAVE_SIZE]]
                active.update(wave)
                waves += 1
                problem = priced.problem(active)
                price([
                    pos for pos in sorted(wave)
                    if used + sizes[pos] <= budget
                ])

            if best_pos is None:
                break
            chosen.append(best_pos)
            used += sizes[best_pos]
            current_cost = best_cost
            master.commit(best_pos)

        registry = obs.metrics()
        registry.family(COLGEN_ROUNDS).inc(rounds)
        registry.family(COLGEN_ACTIVATED).inc(len(active))
        registry.family(COLGEN_PRICED).inc(priced.pricer.pricings)
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
                "priced": priced.pricer.pricings,
                "certificate": "no-inactive-candidate-improves",
            },
        ))
