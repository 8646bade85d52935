"""The scheduler's executor seam: where heavy costing work happens.

Every step ultimately *runs* inline on the scheduler thread — sessions
are not reentrant, and inline execution is what keeps a scheduled run
bit-identical to draining each tenant's stream in turn.  What an
executor controls is the *preparation* of a step's optimizer-heavy
inputs: INUM cache builds for the statements a step will price.  Cache
builds are pure functions of (bound query, catalog, settings), so
building them early, elsewhere, or not at all never changes a result —
only wall-clock time.

* :class:`StepExecutor` — the inline default: no preparation; steps
  build caches on demand, in the step that prices them.
* :class:`ProcessStepExecutor` / :class:`RemoteStepExecutor` — one
  offload executor, two ways to reach its workers.  Cache builds go
  through one reusable :class:`~repro.net.FleetBackplane` per
  evaluator, so the pure-Python optimizer planning that dominates
  ingest leaves the scheduler thread (and the GIL) and overlaps it:
  ``refill`` only *submits* what the scheduler has just buffered,
  ``prepare`` blocks exactly when the step about to run prices an entry
  still being built, and installs whatever has come back — each wire
  entry with its columnar kernel rebuilt from the shipped plan terms —
  into the shared pool.  The constructor says which backplane to
  build: forked worker processes
  (:class:`~repro.evaluation.ProcessPoolBackplane`) or a fleet of
  :class:`~repro.net.RunnerNode` machines
  (:class:`~repro.net.RemoteBackplane`, each connection a cache of what
  it has built); dead workers degrade it to the survivors, then to
  inline execution; ``close`` abandons what is still in flight.
  Results are bit-identical either way.
"""

from repro import obs
from repro.obs.catalogue import SPAN_EXECUTOR_PREPARE, SPAN_EXECUTOR_REFILL
from repro.evaluation.process import ProcessPoolBackplane
from repro.net.client import RemoteBackplane

__all__ = ["StepExecutor", "ProcessStepExecutor", "RemoteStepExecutor"]


class StepExecutor:
    """Inline execution: every cache build happens on demand, in the
    scheduler thread, in the step that prices it."""

    def refill(self, evaluator, statements):
        """Hook called with each newly buffered batch of statements for
        *evaluator*'s backplane.  Inline: nothing to do."""

    def prepare(self, session, step):
        """Hook called immediately before a step runs.  Inline: nothing
        to do — the step builds what it needs."""

    def close(self):
        """Release executor resources (workers, connections);
        idempotent."""


class _OffloadStepExecutor(StepExecutor):
    """Offload INUM cache builds through a fan-out backplane.

    One backplane is kept per distinct evaluator (i.e. per service
    backplane) and reused across every refill and heavy step of the
    run.  ``make_backplane(evaluator)`` builds it on first use.  Close
    the executor (or let :meth:`TuningService.run_scheduled` close an
    executor it created) to release the workers gracefully.
    """

    def __init__(self, make_backplane):
        self._make_backplane = make_backplane
        self._backplanes = {}  # id(evaluator) -> FleetBackplane

    def _backplane(self, evaluator):
        backplane = self._backplanes.get(id(evaluator))
        if backplane is None:
            backplane = self._make_backplane(evaluator)
            self._backplanes[id(evaluator)] = backplane
        return backplane

    def refill(self, evaluator, statements):
        """Submit a freshly buffered batch of upcoming statements to
        the workers without waiting for the builds.  Statements already
        resident in the shared pool, or already being built, ship
        nothing, so a warm pool makes this a near no-op."""
        if statements:
            with obs.tracer().span(SPAN_EXECUTOR_REFILL,
                                   statements=len(statements)):
                self._backplane(evaluator).submit(statements)

    def prepare(self, session, step):
        """Heavy steps (every observe, drift/interval/final refreshes)
        wait here for the statements they will price — the one place
        the scheduler blocks on the fleet.  Usually the entry was
        submitted ``lookahead`` events ago and is resident or nearly
        so; a window is a residency check except after evictions."""
        if step.prewarm:
            with obs.tracer().span(SPAN_EXECUTOR_PREPARE,
                                   kind=step.kind,
                                   statements=len(step.prewarm)):
                self._backplane(session.evaluator).warm_up(
                    list(step.prewarm)
                )

    def close(self):
        for backplane in self._backplanes.values():
            backplane.close()
        self._backplanes.clear()


# Ledger rows ``repro.runtime.executor:{Process,Remote}StepExecutor.
# {refill,prepare,close}``: ``benchmarks/e2e/layers.py`` resolves each
# by ``vars(owner)[leaf]``, so both classes below bind the one shared
# function under their own name — a binding, not a wrapper: a row run
# inside another would count ``runtime.refill_wait_s`` twice.  ROADMAP
# item 1(c) retires the per-class rows.


class ProcessStepExecutor(_OffloadStepExecutor):
    """Offload to ``processes`` forked workers on this machine (default
    ``min(4, os.cpu_count())``; ``<= 1`` builds inline)."""

    def __init__(self, processes=None):
        super().__init__(
            lambda evaluator: ProcessPoolBackplane(
                evaluator, processes=processes
            )
        )

    refill = _OffloadStepExecutor.refill
    prepare = _OffloadStepExecutor.prepare
    close = _OffloadStepExecutor.close


class RemoteStepExecutor(_OffloadStepExecutor):
    """Offload to a fleet of runner nodes.

    ``runners`` is the fleet's ``host:port`` list; ``timeout`` /
    ``retries`` shape the per-request failure handling.
    A fleet that dies entirely degrades each backplane to local
    execution, so a scheduled run always completes with the single-node
    answer.
    """

    def __init__(self, runners, timeout=30.0, retries=3):
        runners = list(runners)
        super().__init__(
            lambda evaluator: RemoteBackplane(
                evaluator, runners, timeout=timeout, retries=retries,
            )
        )

    refill = _OffloadStepExecutor.refill
    prepare = _OffloadStepExecutor.prepare
    close = _OffloadStepExecutor.close
