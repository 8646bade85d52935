"""COLT: continuous on-line tuning (paper §3.2.2, reference [11]).

COLT watches the incoming query stream in epochs, estimates the benefit of
candidate **single-column** indexes with a budgeted number of what-if
optimizer probes, smooths those estimates across epochs, and proposes a
new configuration (a knapsack under the space budget) whenever the
expected speedup justifies the materialization cost.  Adoption is the
DBA's call — the tuner raises *alerts*; `auto_adopt` makes it autonomous.
"""

from repro.colt.baselines import OracleResult, static_oracle
from repro.colt.tuner import ColtSettings, ColtTuner, EpochRecord, OnlineReport

__all__ = [
    "ColtSettings",
    "ColtTuner",
    "EpochRecord",
    "OnlineReport",
    "OracleResult",
    "static_oracle",
]
