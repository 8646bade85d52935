"""The cooperative tenant-scheduler runtime.

An explicit, pausable run-queue of tenant sessions:

* :mod:`repro.runtime.steps` — :class:`Step` (one resumable unit of
  session work, with prewarm metadata) and :class:`TenantTask` (one
  session as a state machine fed by pulling its stream, with
  event-boundary pause points);
* :mod:`repro.runtime.scheduler` — :class:`Scheduler`: equal-share
  dispatch (fewest steps run goes next) and pause-point snapshots;
* :mod:`repro.runtime.executor` — the executor seam:
  :class:`StepExecutor` (inline) and the one offload executor behind
  :class:`ProcessStepExecutor` (cache builds shipped to forked workers,
  a reusable :class:`~repro.evaluation.ProcessPoolBackplane` per
  backplane) and :class:`RemoteStepExecutor` (the same builds fanned
  across a :class:`~repro.net.RunnerNode` fleet).

Every step runs inline, so scheduler-driven ingest is bit-identical to
running each tenant's steps to exhaustion, one tenant after another;
executors only move *cache builds* in time and across processes, which
is results-neutral by construction (and pinned in the test suite).
"""

from repro.runtime.executor import (
    ProcessStepExecutor,
    RemoteStepExecutor,
    StepExecutor,
)
from repro.runtime.scheduler import Scheduler
from repro.runtime.steps import Step, TenantTask, event_sql

__all__ = [
    "ProcessStepExecutor",
    "RemoteStepExecutor",
    "Scheduler",
    "Step",
    "StepExecutor",
    "TenantTask",
    "event_sql",
]
