"""Every memo reachable from a :class:`~repro.evaluation.WorkloadEvaluator`,
declared once: its owner, key, what an entry depends on, the hooks that
drop entries and its bound.

The hooks walk these rows: ``WorkloadEvaluator._forget`` (a pool entry
left), ``WorkloadEvaluator.clear_caches`` (memory reclaim, and the one
hook that re-reads statistics), ``paths.scan_context`` (drops what was
keyed on a context it replaced) and ``paths.forget_indexes`` (one-shot
indexes released).  The three evaluator LRUs insert through
:meth:`Memo.store`, which reads the bound from the row.  Lookups stay
plain dict probes on the owners.  ``tests/test_memo_inventory.py``
holds the code to the table.
"""

import functools
from dataclasses import dataclass

# What an entry depends on.
ENTRY, TEXT, STATS = "pool entry", "statement text", "statistics identity"
SHAPE = "text shape"  # a statement's tokens, literals masked to their kind
INDEXES, SETTINGS, WORKLOAD = "index set", "settings", "workload"

# The hooks that drop entries.
EVICT = "WorkloadEvaluator._forget"
CLEAR = "WorkloadEvaluator.clear_caches"
STALE = "paths.scan_context"  # what is keyed on a replaced context
RELEASE = "paths.forget_indexes"
VALIDATE = "every lookup"  # checked against the statistics it read
POOL = "InumCachePool.put/clear"  # past capacity, or cleared
OWNER = "its owner"  # dies with the owning object


@dataclass(frozen=True)
class Memo:
    """``owner.attr``: *key* -> a value derived from *depends*; an int
    *bound* is an LRU size.  ``reach``: the attribute path from the
    evaluator to the owner ("" itself, ``None`` none).  ``evict``: how
    ``_forget`` drops an entry's part (see :meth:`forget`)."""

    owner: str
    attr: str
    key: str
    depends: tuple
    hooks: tuple
    bound: object
    text: str
    reach: str = None
    evict: str = None

    def store(self, memo, key, value):
        """Insert, evicting least recently used entries past the bound
        (callers hold the owner's lock)."""
        memo[key] = value
        while len(memo) > self.bound:
            memo.popitem(last=False)

    def forget(self, memo, sql):
        """Drop *memo*'s part derived from the pool entry filed under
        *sql*: pop its text, empty all of a memo on its bound query, or
        drop the values compiled from it."""
        if self.evict == "all":
            memo.clear()
        elif self.evict == "text":
            memo.pop(sql, None)
        else:
            for key in [k for k, v in memo.items() if sql in v.reads]:
                del memo[key]

    def owner_in(self, evaluator):
        """The owner as reached from *evaluator* (``None``: no reach)."""
        if self.reach is None:
            return None
        return getattr(evaluator, self.reach) if self.reach else evaluator


STATEMENTS = Memo(
    "CostService", "statements", "statement text", (TEXT, STATS), (CLEAR,),
    "statements seen: a record with its terms 0.7-1.2 kB, its binding "
    "(scan contexts and plan memo included) 3.5-5.2 kB more, on "
    "online_ingest", "One record per text: the "
    "bound statement (every exact service binds through it, so both paths "
    "share its memos) and what build_cache answered, so a miss on a seen "
    "statement decodes instead of planning.  Its text is the statement's "
    "one key: the pool and its kernels file it under the same.",
    reach="_base_service")
TEMPLATES = Memo(
    "CostService", "templates", "token stream, each literal masked to its "
    "kind", (SHAPE, STATS), (CLEAR,), "as STATEMENTS: at most one per "
    "statement seen", "One StatementTemplate per text shape (repro.sql."
    "template): bind_statement runs once per template and a record's "
    "binding points at its template.  A template holds what reads no "
    "constant — the referenced columns, and as parts the scan shapes with "
    "their index-match structures and reach sets, the INUM build's order "
    "vectors and covering indexes, CoPhy's vote keys and COLT's harvest "
    "— all dropped with it; every instance's "
    "binding, filter selectivities and selectivity products are its own "
    "numbers pass, equal to binding its text afresh.", reach="_base_service")
SLOT_MEMO = Memo(
    "WorkloadEvaluator", "_slot_memo", "entry text -> (slot, indexes, "
    "cover, horizontal)", (ENTRY, INDEXES, STATS), (EVICT, CLEAR),
    "resident entries' slots", "(cost, winner indexes) or None; one bucket "
    "per entry (a pricer racing an eviction may refill one).  The key's "
    "index set and the winner tuple are SHARED's objects, so an entry "
    "owns its key tuple and its (cost, winner) pair only: about 190 B a "
    "key, 2.6-3.3 kB per resident statement on online_ingest (6.7-8.3 "
    "kB when every key held a set of its own).", reach="", evict="text")
SHARED = Memo(
    "WorkloadEvaluator", "_shared", "index set (frozenset) or winner tuple",
    (INDEXES,), (CLEAR,), "distinct index sets and winners seen",
    "Each value to itself: the one resident object equal to it, which "
    "the slot memo keeps as key projections and witnesses and the "
    "kernel's keys as design-signature sets.  Entries derive from "
    "indexes, not from one statement, so eviction leaves them; they "
    "level off at what the candidate indexes allow: 149 entries (27 kB) "
    "on online_ingest's busier backplane at 1x, 2x, 4x and 8x its "
    "--seconds 10 length.", reach="")
COMPILED = Memo(
    "WorkloadEvaluator", "_compiled", "((text, weight), ...)",
    (ENTRY, WORKLOAD), (EVICT, CLEAR), 16, "Fused workload kernels, kept "
    "while every entry they read is resident.", reach="", evict="reads")
RECOMMENDATIONS = Memo(
    "WorkloadEvaluator", "_recommendations", "Designer.recommend arguments",
    (WORKLOAD, SETTINGS), (CLEAR,), 32, "Reproduced bit for bit by the "
    "memos here, so eviction leaves it alone.", reach="")
EXACT_SERVICES = Memo("WorkloadEvaluator", "_exact_services", "design",
                      (INDEXES,), (CLEAR,), 128, "CostService.", reach="")
BASE_SERVICE = Memo(
    "WorkloadEvaluator", "_base_service", "-", (), (), "one, pinned",
    "The empty design's CostService; sessions hold it.", reach="")
PLAN_CACHE = Memo(
    "CostService", "_plan_cache", "statement text", (TEXT, INDEXES, STATS),
    (CLEAR, OWNER), "statements planned", "Plan memo references for one "
    "design; nothing re-validates it.", reach="_base_service")
ENTRIES = Memo(
    "InumCachePool", "_entries", "statement text",
    (TEXT, STATS, SETTINGS), (POOL,), "capacity (LRU)", "INUM entries; one "
    "that leaves calls the owner's _forget.", reach="pool")
KERNELS = Memo("InumCachePool", "_kernels", "statement text", (ENTRY,),
               (POOL,), "resident entries", "Statement kernels.",
               reach="pool")
SCAN_CONTEXTS = Memo(
    "BoundQuery", "scan_contexts", "(alias, layout cover, horizontal)",
    (ENTRY, STATS), (VALIDATE, EVICT, OWNER), "covers x partitionings",
    "ScanContext per reference; ScanContext.is_current.", evict="all")
PLAN_MEMO = Memo(
    "BoundQuery", "plan_memo", "(settings, paths.plan_inputs(...))",
    (ENTRY, STATS, INDEXES, SETTINGS), (STALE, EVICT, OWNER), "projected "
    "designs", "Keys hold contexts by identity.", evict="all")
PRICED = Memo(
    "ScanContext", "_priced", "settings -> index | None | (index, probes)",
    (SETTINGS, INDEXES), (RELEASE, OWNER), "indexes priced", "Paths; bulk "
    "pricers release one-shot indexes.")
CONTEXT_STATS = Memo("ScanContext", "_stats", "column", (STATS,), (OWNER,),
                     "columns read", "ColumnStats that prices read.")
DESIGN_COLUMNS = Memo(
    "WorkloadKernel", "_columns", "(table, design signature)",
    (INDEXES, STATS), (OWNER,), "kernel._MAX_DESIGN_COLUMNS, then reset",
    "Slot cost columns.")
DELTA_STATES = Memo(
    "WorkloadKernel", "_delta_states", "sorted table signatures",
    (INDEXES, STATS), (OWNER,), "kernel._MAX_DELTA_STATES, then reset",
    "Captured parent states.")
SUBSETS = Memo(
    "build_cache", "subsets", "((alias, plan input), ...), proper subsets",
    (INDEXES, STATS, SETTINGS), (OWNER,), "one build", "Path sets the "
    "order vectors of one INUM build share (plan_query(subsets=)).")
PROJECTION_PAGES = Memo(
    "Table", "_projection_pages", "projected columns", (STATS,),
    (VALIDATE, OWNER), "projections priced", "(row_count, pages).")
LAYOUT_COVERS = Memo(
    "VerticalLayout", "_covers", "referenced columns", (STATS,),
    (VALIDATE, OWNER), "column sets read", "(table, row_count, "
    "paths.layout_cover entry); a template's statements share one.")
INDEX_SHAPES = Memo(
    "Table", "_index_shapes", "index columns", (STATS,), (VALIDATE, OWNER),
    "column lists sized", "(row_count, Index.shape); no per-Index state.")

MEMOS = (
    STATEMENTS, TEMPLATES, SLOT_MEMO, SHARED, COMPILED, RECOMMENDATIONS,
    EXACT_SERVICES, BASE_SERVICE, PLAN_CACHE, ENTRIES, KERNELS,
    SCAN_CONTEXTS, PLAN_MEMO, PRICED, CONTEXT_STATS, DESIGN_COLUMNS,
    DELTA_STATES, SUBSETS, PROJECTION_PAGES, LAYOUT_COVERS, INDEX_SHAPES,
)
# Dicts on those owners holding what the object was built from.
INPUTS = (("BoundQuery", "tables"), ("BoundQuery", "filters"))


@functools.cache
def rows(hook):
    """The rows *hook* drops entries of, in table order."""
    return tuple(memo for memo in MEMOS if hook in memo.hooks)
