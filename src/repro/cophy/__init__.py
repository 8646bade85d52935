"""CoPhy: automated index selection as combinatorial optimization
(paper §3.2.1, reference [4]).

CoPhy phrases index selection as a binary integer program built on top of
INUM's plan caches: per-query plan-choice variables, per-slot access-path
variables linked to global index variables, and a storage-budget
constraint.  A mature solver (HiGHS via scipy) finds solutions with
optimality guarantees; a greedy baseline represents the commercial tools
the paper's introduction criticizes for "pruning away large fractions of
the search space".
"""

from repro.cophy.candidates import candidate_indexes
from repro.cophy.bip import BipProblem, build_bip
from repro.cophy.solvers import solve_bip
from repro.cophy.greedy import greedy_select
from repro.cophy.colgen import solve_colgen
from repro.cophy.advisor import CoPhyAdvisor, Recommendation

__all__ = [
    "candidate_indexes",
    "BipProblem",
    "build_bip",
    "solve_bip",
    "greedy_select",
    "solve_colgen",
    "CoPhyAdvisor",
    "Recommendation",
]
