"""What-if component (paper §3.1): simulate physical designs without
building them.

Three sub-components, as in the paper:

* **what-if index** — hypothetical indexes injected into a catalog overlay
  (:class:`Configuration`),
* **what-if table** — hypothetical vertical/horizontal partitions in the
  same overlay,
* **what-if join** — GUC-style join-method control, the planner's
  ``enable_nestloop`` / ``enable_hashjoin`` / ``enable_mergejoin``
  (:meth:`WhatIfSession.with_join_methods`).

All other designer components attach to this one, mirroring Figure 1.
"""

from repro.whatif.config import Configuration
from repro.whatif.session import WhatIfSession, QueryBenefit, WhatIfReport

__all__ = ["Configuration", "WhatIfSession", "QueryBenefit", "WhatIfReport"]
