"""Every memo reachable from a :class:`~repro.evaluation.WorkloadEvaluator`,
declared once: its owner, key, what an entry depends on, the hooks that
drop entries and its bound.

The hooks walk these rows: ``WorkloadEvaluator._forget`` (a pool entry
left), ``InumCachePool.release`` (a statement left the working set: no
resident compiled workload reads it any more) and
``paths.forget_indexes`` (one-shot indexes released).
No row re-checks statistics or row counts: they are fixed once a table
is built (see :class:`~repro.catalog.table.Table`), so a row derived
from them lives as long as its owner.  The three
evaluator LRUs insert through :meth:`Memo.store`, which reads the bound
from the row.  Lookups stay plain dict probes on the owners.
``tests/test_memo_inventory.py`` holds the code to the table.

A row's "worth" is what its declared knock-out (``tests/knockouts.py``:
the lookup made always to miss, every answer unchanged) costs against
the unchanged tree: the medians of n alternating pairs of ``run.py
--seconds 10 --trace 0`` ledger runs (``tests/pairs.py --head``), with
the knock-out's wins out of n where given; or, where a time is named,
the seconds inside one function, and call counts, from one in-process
run of the workload with that function wrapped.  Every run correct with
no failed operation, on a shared 2-core box whose speed moves by up to
50 %.  A memo whose knock-out costs under 2 % on every ledger row is
deleted, and nothing replaces it.  ``SCAN_CONTEXTS``, ``ENTRIES`` and
``BASE_SERVICE`` have no knock-out: their rows say why.
"""

import functools
from dataclasses import dataclass

# What an entry depends on.
ENTRY, TEXT = "pool entry", "statement text"
SHAPE = "text shape"  # a statement's tokens, literals masked to their kind
INDEXES, SETTINGS, WORKLOAD = "index set", "settings", "workload"

# The hooks that drop entries.
EVICT = "WorkloadEvaluator._forget"
COLD = "InumCachePool.release"  # the evaluator's _release walks the rows
RELEASE = "paths.forget_indexes"
POOL = "InumCachePool.put"  # past capacity
OWNER = "its owner"  # dies with the owning object


@dataclass(frozen=True)
class Memo:
    """``owner.attr``: *key* -> a value derived from *depends*; an int
    *bound* is an LRU size.  ``reach``: the attribute path from the
    evaluator to the owner ("" itself, ``None`` none).  ``evict``: how
    a hook's walk drops a statement's part (see :meth:`forget`)."""

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
        (callers hold the owner's lock); returns the evicted values."""
        memo[key] = value
        evicted = []
        while len(memo) > self.bound:
            evicted.append(memo.pop(next(iter(memo))))
        return evicted

    def forget(self, memo, texts):
        """Drop *memo*'s part derived from the statements filed under
        *texts* (a set): pop their texts, empty all of a memo on their
        bound queries, or drop the values compiled from one of them."""
        if self.evict == "all":
            memo.clear()
        elif self.evict == "text":
            for sql in texts:
                memo.pop(sql, None)
        else:
            for key in [k for k, v in memo.items()
                        if not v.reads.isdisjoint(texts)]:
                del memo[key]

    def owner_in(self, evaluator):
        """The owner as reached from *evaluator* (``None``: no reach)."""
        if self.reach is None:
            return None
        return getattr(evaluator, self.reach) if self.reach else evaluator

    def owners(self, evaluator, bound):
        """Every object a walk drops this row's part for the statements
        bound as *bound* from: those bound queries, each live service
        for a service's row, else the one owner."""
        if self.reach is None:
            return bound
        if self.owner == "CostService":
            return (evaluator._base_service,
                    *evaluator._exact_services.values())
        return (self.owner_in(evaluator),)


STATEMENTS = Memo(
    "CostService", "statements", "statement text", (TEXT,), (OWNER,),
    "statements seen: a record with its binding and terms 1.8 kB on "
    "online_ingest once its scan contexts and plan memo are released",
    "One record per text: the "
    "bound statement (every exact service binds through it, so both paths "
    "share its memos) and what build_cache answered, so a miss on a seen "
    "statement decodes instead of planning.  Its text is the statement's "
    "one key: the pool files it under the same.  With its pool entry "
    "(0.4 kB) it is all a statement that left the working set keeps.  "
    "Worth, terms always missed (n = 3): online_evict ops_per_s 1 908 -> "
    "1 375, cpu_s +36 % (0/3).", reach="_base_service")
TEMPLATES = Memo(
    "CostService", "templates", "token stream, each literal masked to its "
    "kind", (SHAPE,), (OWNER,), "as STATEMENTS: at most one per "
    "statement seen", "One StatementTemplate per text shape (repro.sql."
    "template): bind_statement runs once per template and a record's "
    "binding points at its template.  A template holds what reads no "
    "constant — the referenced columns, and as parts the scan shapes with "
    "their index-match structures and reach sets, the INUM build's order "
    "vectors and covering indexes, CoPhy's vote keys and COLT's harvest "
    "— all dropped with it; every instance's "
    "binding, filter selectivities and selectivity products are its own "
    "numbers pass, equal to binding its text afresh.  Worth (n = 3): "
    "online_ingest ops_per_s -17.8 %, cpu_s +21.9 %, peak RSS 58.8 -> "
    "81.5 MB.", reach="_base_service")
SLOT_MEMO = Memo(
    "WorkloadEvaluator", "_slot_memo", "entry text -> (slot, indexes, "
    "cover, horizontal)", (ENTRY, INDEXES), (EVICT, COLD, OWNER),
    "statements read by a resident compiled workload, plus those priced "
    "since no compiled workload that left read them", "(cost, winner "
    "indexes) or None; one bucket per entry (a pricer racing an eviction "
    "or a release may refill one).  The key's "
    "index set and the winner tuple are SHARED's objects, so an entry "
    "owns its key tuple and its (cost, winner) pair only: about 190 B a "
    "key, 2.9-4.0 kB per statement holding a bucket on online_ingest "
    "(6.7-8.3 kB when every key held a set of its own); after its "
    "--seconds 10 run 414 of 2 031 entries hold one (all of them when "
    "nothing was released).  Worth (n = 3): recommend_offline ops_per_s "
    "18.75 -> 14.81, cpu_s +27 % (0/3); online_ingest ops_per_s -17 %, "
    "cpu_s +12 % (0/3).", reach="", evict="text")
SHARED = Memo(
    "WorkloadEvaluator", "_shared", "index set (frozenset) or winner tuple",
    (INDEXES,), (OWNER,), "distinct index sets and winners seen",
    "Each value to itself: the one resident object equal to it, which "
    "the slot memo keeps as key projections and witnesses and the "
    "kernel's keys as design-signature sets.  Entries derive from "
    "indexes, not from one statement, so eviction leaves them; they "
    "level off at what the candidate indexes allow: 149 entries (27 kB) "
    "on online_ingest's busier backplane at 1x, 2x, 4x and 8x its "
    "--seconds 10 length.  Worth (n = 3): online_ingest peak RSS "
    "+4.9 %.", reach="")
COMPILED = Memo(
    "WorkloadEvaluator", "_compiled", "((text, weight), ...)",
    (ENTRY, WORKLOAD), (EVICT, OWNER), 16, "Fused workload kernels, kept "
    "while every entry they read is resident.  Worth (n = 3): "
    "whatif_session ops_per_s 920 -> 450, cpu_s +116 % (0/3); "
    "online_ingest cpu_s +8 %.", reach="", evict="reads")
RECOMMENDATIONS = Memo(
    "WorkloadEvaluator", "_recommendations", "Designer.recommend arguments",
    (WORKLOAD, SETTINGS), (OWNER,), 32, "Reproduced bit for bit by the "
    "memos here, so eviction leaves it alone.  Worth: online_ingest "
    "cpu_s +14.9 %, ops_per_s -13.2 %.", reach="")
EXACT_SERVICES = Memo(
    "WorkloadEvaluator", "_exact_services", "design", (INDEXES,), (OWNER,),
    128, "CostService.  Worth: online_ingest cpu_s +4.2 %, op_p50_ms "
    "+26 %.", reach="")
BASE_SERVICE = Memo(
    "WorkloadEvaluator", "_base_service", "-", (), (), "one, pinned",
    "The empty design's CostService; sessions hold it.  No knock-out: "
    "one pinned object, not a lookup.", reach="")
PLAN_CACHE = Memo(
    "CostService", "_plan_cache", "statement text", (TEXT, INDEXES),
    (COLD, OWNER), "statements planned, less those released", "Plan memo "
    "references for one design, about 130 B a text; nothing re-validates "
    "it.  A release pops the text from every live service's.  Worth, 10 "
    "pairs: whatif_session ops_per_s 874 -> 809 (0/10 wins), op_p50_ms "
    "+15 %; online_ingest op_p50_ms +14 % (0/10).",
    reach="_base_service", evict="text")
ENTRIES = Memo(
    "InumCachePool", "_entries", "statement text",
    (TEXT, SETTINGS), (POOL,), "capacity (LRU)", "INUM entries; one "
    "that leaves calls the owner's _forget.  No knock-out: it is the "
    "pool.", reach="pool")
SCAN_CONTEXTS = Memo(
    "BoundQuery", "scan_contexts", "(alias, layout cover, horizontal)",
    (ENTRY,), (EVICT, COLD, OWNER),
    "covers x partitionings, on statements as SLOT_MEMO", "ScanContext "
    "per reference.  2.7-3.8 kB per statement holding any on "
    "online_ingest, mostly path groups of indexes outside the catalog.  "
    "No knock-out: PLAN_MEMO's keys hold contexts by identity, so a "
    "context made afresh empties that row too.", evict="all")
PLAN_MEMO = Memo(
    "BoundQuery", "plan_memo", "(settings, paths.plan_inputs(...))",
    (ENTRY, INDEXES, SETTINGS), (EVICT, COLD, OWNER),
    "projected designs, on statements as SLOT_MEMO", "Keys hold contexts "
    "by identity.  1.8-5.4 kB per statement holding any on online_ingest "
    "(COLT's what-if probe plans): 41 of 2 031 after its --seconds 10 "
    "run, 729 when nothing was released.  Worth: whatif_session exact "
    "planner runs 5 279 -> 29 830 per timed run.", evict="all")
PRICED = Memo(
    "ScanContext", "_priced", "settings -> index | None | (index, probes)",
    (SETTINGS, INDEXES), (RELEASE, OWNER), "indexes priced", "Paths; bulk "
    "pricers release one-shot indexes.  Worth (n = 3): whatif_session "
    "cpu_s +9.7 %, op_p95_ms +12.6 %; index_path_group on online_ingest "
    "0.42 -> 0.55 s.")
DESIGN_COLUMNS = Memo(
    "WorkloadKernel", "_columns", "(table, design signature)",
    (INDEXES,), (OWNER,), "kernel._MAX_DESIGN_COLUMNS, then reset",
    "Slot cost columns; a design of indexes alone copies the empty "
    "design's column and re-resolves only the slots its indexes reach.  "
    "Worth (n = 3): whatif_session op_p50_ms 0.51 -> 0.85, cpu_s +25 %; "
    "recommend_offline cpu_s +3.5 %.")
SUBSETS = Memo(
    "build_cache", "subsets", "((alias, plan input), ...), proper subsets",
    (INDEXES, SETTINGS), (OWNER,), "one build", "Path sets the "
    "order vectors of one INUM build share (plan_query(subsets=)).  "
    "Worth: fleet_offload, whose workers build three-alias cross_match, "
    "cpu_s 1.452 -> 1.565 (worse in 7 of 8 rounds); on two-alias "
    "statements base path sets only (access_paths 16 155 -> 20 394 on "
    "online_ingest).")
PROJECTION_PAGES = Memo(
    "Table", "_projection_pages", "projected columns", (), (OWNER,),
    "projections priced", "Heap pages: a hit 0.2 us, a recompute 3.3.  "
    "Worth: recommend_offline +44 ms in projection_pages and +34 ms in "
    "VerticalLayout.cover, 1.5-2.7 % of its CPU; kept, as the upper "
    "estimate clears the 2 % bar.")
LAYOUT_COVERS = Memo(
    "VerticalLayout", "_covers", "referenced columns", (), (OWNER,),
    "column sets read", "(table, paths.layout_cover entry); a "
    "template's statements share one.  Worth (n = 7): recommend_offline "
    "cpu_s +9.6 %, VerticalLayout.cover 0.10 -> 0.35 s.")
INDEX_SHAPES = Memo(
    "Table", "_index_shapes", "index columns", (), (OWNER,),
    "column lists sized", "Index.shape; no per-Index state.  A hit "
    "0.3 us, a recompute 5.5.  Worth (n = 7): online_ingest cpu_s "
    "+5.2 %; Table.index_shape's 45 594 calls 0.04 -> 0.39 s.")

MEMOS = (
    STATEMENTS, TEMPLATES, SLOT_MEMO, SHARED, COMPILED, RECOMMENDATIONS,
    EXACT_SERVICES, BASE_SERVICE, PLAN_CACHE, ENTRIES, SCAN_CONTEXTS,
    PLAN_MEMO, PRICED, DESIGN_COLUMNS, SUBSETS, PROJECTION_PAGES,
    LAYOUT_COVERS, INDEX_SHAPES,
)
# Dicts on those owners holding what the object was built from.
INPUTS = (("BoundQuery", "tables"), ("BoundQuery", "filters"))


@functools.cache
def rows(hook):
    """The rows *hook* drops entries of, in table order."""
    return tuple(memo for memo in MEMOS if hook in memo.hooks)
