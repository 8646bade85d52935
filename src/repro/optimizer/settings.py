"""Planner cost constants and enable flags (PostgreSQL GUC equivalents).

The ``enable_*`` flags implement the paper's *what-if join component*: the
designer toggles join methods (and scan types) to steer the optimizer while
exploring hypothetical designs, exactly like setting ``enable_hashjoin``
and friends on a real PostgreSQL.

Disabled paths are not removed — they are penalized with
:data:`DISABLE_COST`, matching PostgreSQL's behaviour so a plan always
exists even when everything relevant is "disabled".
"""

import math
from dataclasses import dataclass, replace

from repro.util import DesignError

DISABLE_COST = 1.0e10

_COST_CONSTANTS = (
    "seq_page_cost", "random_page_cost", "cpu_tuple_cost",
    "cpu_index_tuple_cost", "cpu_operator_cost",
)


@dataclass(frozen=True)
class PlannerSettings:
    """Cost model constants and planner toggles.

    Defaults are PostgreSQL's shipped values.  ``work_mem`` is in bytes.

    Constants no cost model can mean are refused at construction
    (:class:`~repro.util.DesignError`): every plan cost must come out
    finite and non-negative — path sets are kept, and searched, in cost
    order — and ``work_mem`` divides.
    """

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    work_mem: int = 4 * 1024 * 1024

    enable_seqscan: bool = True
    enable_indexscan: bool = True
    enable_indexonlyscan: bool = True
    enable_bitmapscan: bool = True
    enable_nestloop: bool = True
    enable_hashjoin: bool = True
    enable_mergejoin: bool = True
    enable_sort: bool = True
    enable_material: bool = True

    # Reproduces the flaw the paper's §2 attributes to Monteiro et al.:
    # cost what-if indexes as if they had zero size (no descent, no leaf
    # IO).  Exists purely so the CL-ZSIZE experiment can measure how badly
    # this skews the advisor; never enable it for real tuning.
    assume_zero_size_indexes: bool = False

    def __post_init__(self):
        for name in _COST_CONSTANTS:
            if not 0 <= getattr(self, name) < math.inf:
                self._refuse(name, "finite and >= 0")
        if not self.work_mem >= 1:
            self._refuse("work_mem", ">= 1 (bytes)")

    def _refuse(self, name, rule):
        raise DesignError(
            "planner setting %s=%r must be %s" % (name, getattr(self, name), rule)
        )

    def with_changes(self, **kwargs):
        """Return a copy with the given GUCs overridden."""
        return replace(self, **kwargs)

    def scan_penalty(self, flag):
        """0 when *flag* is on, :data:`DISABLE_COST` otherwise."""
        return 0.0 if flag else DISABLE_COST


DEFAULT_SETTINGS = PlannerSettings()
