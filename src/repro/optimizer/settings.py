"""Planner cost constants and join control (PostgreSQL GUC equivalents).

The join ``enable_*`` flags implement the paper's *what-if join
component*: the designer toggles join methods to steer the optimizer
while exploring hypothetical designs, exactly like setting
``enable_hashjoin`` and friends on a real PostgreSQL (and the cost-model
ablation, ``enable_bitmapscan``).

Disabled paths are not removed — they are penalized with
:data:`DISABLE_COST`, matching PostgreSQL's behaviour so a plan always
exists even when everything relevant is "disabled".
"""

import math
from dataclasses import dataclass

from repro.util import DesignError

DISABLE_COST = 1.0e10

_COST_CONSTANTS = (
    "seq_page_cost", "random_page_cost", "cpu_tuple_cost",
    "cpu_index_tuple_cost", "cpu_operator_cost",
)


@dataclass(frozen=True)
class PlannerSettings:
    """Cost model constants, ``work_mem`` and join control.

    Defaults are PostgreSQL's shipped values.  ``work_mem`` is in bytes.
    A variant is ``dataclasses.replace(settings, ...)``.

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

    enable_bitmapscan: bool = True
    enable_nestloop: bool = True
    enable_hashjoin: bool = True
    enable_mergejoin: bool = True

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


DEFAULT_SETTINGS = PlannerSettings()
