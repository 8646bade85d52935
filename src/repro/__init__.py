"""repro — an automated, yet interactive and portable DB designer.

Reproduction of Alagiannis et al., SIGMOD 2010 (demo).  See README.md for
the system inventory and the reproduced evaluation, ROADMAP.md for the
architecture notes.

Quickstart::

    from repro import Designer, sdss_catalog, sdss_workload

    catalog = sdss_catalog(scale=0.1)
    workload = sdss_workload(n_queries=20)
    designer = Designer(catalog)
    result = designer.recommend(workload, storage_budget_pages=5000)
    print(result.to_text())
"""

from repro.catalog import (
    Catalog,
    Column,
    DataType,
    Distribution,
    HorizontalPartitioning,
    Index,
    Table,
    VerticalFragment,
    VerticalLayout,
)
from repro.optimizer import CostService, PlannerSettings
from repro.whatif import Configuration, WhatIfSession
from repro.evaluation import (
    InumCachePool,
    ProcessPoolBackplane,
    ShardedInumCachePool,
    WorkloadEvaluator,
)
from repro.cophy import CoPhyAdvisor
from repro.autopart import AutoPartAdvisor
from repro.colt import ColtSettings, ColtTuner
from repro.interaction import InteractionAnalyzer
from repro.designer import Designer
from repro.runtime import ProcessStepExecutor, Scheduler, StepExecutor
from repro.service import TenantSession, TuningService
from repro.workloads import (
    Workload,
    drifting_stream,
    sdss_catalog,
    sdss_workload,
    tpch_catalog,
    tpch_workload,
)

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "Column",
    "DataType",
    "Distribution",
    "HorizontalPartitioning",
    "Index",
    "Table",
    "VerticalFragment",
    "VerticalLayout",
    "CostService",
    "PlannerSettings",
    "Configuration",
    "WhatIfSession",
    "InumCachePool",
    "ProcessPoolBackplane",
    "ShardedInumCachePool",
    "WorkloadEvaluator",
    "CoPhyAdvisor",
    "AutoPartAdvisor",
    "ColtSettings",
    "ColtTuner",
    "InteractionAnalyzer",
    "Designer",
    "ProcessStepExecutor",
    "Scheduler",
    "StepExecutor",
    "TenantSession",
    "TuningService",
    "Workload",
    "drifting_stream",
    "sdss_catalog",
    "sdss_workload",
    "tpch_catalog",
    "tpch_workload",
]
