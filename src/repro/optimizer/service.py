"""CostService: the portable optimizer facade the designer stack consumes.

The paper argues the tool ports to "any relational DBMS which offers a
query optimizer, a way to extract and create statistics, and control over
join operations".  This class is that contract: ``plan``/``cost`` with
GUC-style join control, plus call accounting so experiments can report how
many (expensive) optimizer invocations a designer component issued — the
quantity INUM's caching is meant to slash.
"""

from repro.optimizer.paths import plan_inputs
from repro.optimizer.planner import plan_query
from repro.optimizer.settings import DEFAULT_SETTINGS
from repro.optimizer.writecost import write_statement_cost
from repro.sql.binder import BoundQuery, BoundWrite, bind_statement
from repro.sql.lexer import Lexer
from repro.sql.template import template_key
from repro.util import PlanningError, workload_pairs


class CostService:
    """Plans queries against one catalog with one settings snapshot."""

    def __init__(self, catalog, settings=None, shared_counter=None):
        self.catalog = catalog
        self.settings = settings or DEFAULT_SETTINGS
        self.statements = {}  # text -> _Statement; with_catalog shares it
        self.templates = {}  # template key -> StatementTemplate; shared too
        self._plan_cache = {}
        self._counter = shared_counter if shared_counter is not None else _Counter()

    # ------------------------------------------------------------------

    @property
    def optimizer_calls(self):
        """Number of full planner invocations issued so far (a plan
        memo hit is not one)."""
        return self._counter.calls

    # ------------------------------------------------------------------

    def statement(self, sql):
        """*sql*'s statement record, created empty on first ask."""
        record = self.statements.get(sql)
        if record is None:
            record = self.statements.setdefault(sql, _Statement())
        return record

    def bound(self, query):
        """Accept SQL text or an already-bound statement."""
        if isinstance(query, str):
            record = self.statements.get(query)
            if record is None or record.bound is None:
                record = self.statement(query)
                record.bound = self._bind(query)
            return record.bound
        if isinstance(query, (BoundQuery, BoundWrite)):
            return query
        raise TypeError("expected SQL text or BoundQuery, got %r" % (type(query),))

    def _bind(self, sql):
        """*sql* bound through its template: the numbers pass when one
        is known for the text's key, else ``bind_statement``, whose
        template is kept (:mod:`repro.sql.template`)."""
        tokens = Lexer(sql).tokens()
        key = template_key(tokens)
        template = self.templates.get(key)
        if template is not None:
            return template.instance(tokens)
        bound = bind_statement(sql, self.catalog)
        self.templates[key] = bound.template.keyed(tokens)
        return bound

    def plan(self, query):
        """Plan *query*.

        Two caches, neither holding a copy: this service's
        ``_plan_cache`` (by SQL text — its catalog's design must not
        change under it) in front of the bound query's ``plan_memo``,
        where every service whose design offers this statement the same
        access choices gets the same immutable plan object; only a miss
        there is a planner invocation.  Both are rows of
        :mod:`repro.evaluation.memos`.
        """
        bq = self.bound(query)
        if isinstance(bq, BoundWrite):
            raise PlanningError(
                "write statements have no plan tree; use cost() instead"
            )
        plan = self._plan_cache.get(bq.sql)
        if plan is None:
            inputs = plan_inputs(bq, self.catalog)
            key = (self.settings, inputs)
            plan = bq.plan_memo.get(key)
            if plan is None:
                self._counter.calls += 1
                plan = bq.plan_memo[key] = plan_query(
                    bq, self.catalog, self.settings, inputs
                )
            self._plan_cache[bq.sql] = plan
        return plan

    def cost(self, query):
        bq = self.bound(query)
        if isinstance(bq, BoundWrite):
            return write_statement_cost(
                bq,
                self.catalog,
                self.settings,
                locate_cost_fn=lambda locate: self.plan(locate).total_cost,
            )
        return self.plan(bq).total_cost

    def explain(self, query):
        return self.plan(query).explain()

    def workload_cost(self, workload):
        """Weighted total cost of a workload (iterable of (query, weight)
        pairs or a :class:`~repro.workloads.workload.Workload`)."""
        total = 0.0
        for query, weight in workload_pairs(workload):
            total += weight * self.cost(query)
        return total

    # ------------------------------------------------------------------

    def with_catalog(self, catalog):
        """A service against a different (e.g. hypothetical) catalog.

        Shares the optimizer-call counter so experiments see the total
        spend across what-if explorations, and the statement records and
        templates (binding only reads the logical schema), but not the
        plan cache (plans depend on the physical design).
        """
        svc = CostService(catalog, self.settings, shared_counter=self._counter)
        svc.statements = self.statements
        svc.templates = self.templates
        return svc


class _Statement:
    """What one statement text is, once known: its binding (which points
    at its template) and the plan terms the optimizer answered."""

    __slots__ = ("bound", "terms")

    def __init__(self):
        self.bound = self.terms = None


class _Counter:
    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0
