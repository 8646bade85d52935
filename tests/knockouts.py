"""Declared knock-outs: for each row of ``repro.evaluation.memos.MEMOS``,
the edit that makes its lookup always miss, or the reason it has none.

A row's worth (its text in ``memos.py``) is what its knock-out costs
against the unchanged tree.  An edit has the form of a declared mutant
(``tests/mutants.py``): a file, an exact old text that occurs there
once, and its replacement.  Every answer must stay the same under a
knock-out: a memo that changes an answer is no memo.

    python tests/knockouts.py --apply ROW DIR

``--apply`` copies the working tree's files (those ``git ls-files``
lists, tracked and untracked, not ignored) into DIR, which must not
exist, and applies ROW's edit there; then time it against a revision
with ``python tests/pairs.py --base HEAD --head DIR --workload W``.
``tests/test_knockouts.py`` holds this table to ``memos.MEMOS`` and to
the files, so a new memo ships with its knock-out.
"""

import argparse
import os
import sys
from collections import namedtuple

from pairs import copy_working_tree

KnockOut = namedtuple("KnockOut", "path old new")

EVALUATOR = "src/repro/evaluation/evaluator.py"
SERVICE = "src/repro/optimizer/service.py"
TABLE = "src/repro/catalog/table.py"

# Row name (its name in memos.py) -> a KnockOut, or the reason (a str)
# why the row has none.
KNOCKOUTS = {
    # Of a record's two halves the plan terms are the one a lookup can
    # miss: the binding is what the bound-query rows hang off.
    "STATEMENTS": KnockOut(
        EVALUATOR,
        "plans = self._base_service.statement(bq.sql).terms",
        "plans = None"),
    "TEMPLATES": KnockOut(
        SERVICE,
        "template = self.templates.get(key)",
        "template = None"),
    "SLOT_MEMO": KnockOut(
        EVALUATOR,
        "choice = bucket.get(key, _UNPRICED)",
        "choice = _UNPRICED"),
    # Every reader interns through setdefault: one that never stores
    # hands each caller its own object back.
    "SHARED": KnockOut(
        EVALUATOR,
        "self._shared = {}",
        "self._shared = type('Unshared', (dict,), "
        "{'setdefault': lambda memo, key, value: value})()"),
    "COMPILED": KnockOut(
        EVALUATOR,
        "compiled = self._compiled.pop(key, None)",
        "compiled = None"),
    "RECOMMENDATIONS": KnockOut(
        EVALUATOR,
        "found = self._recommendations.pop(key, None)",
        "found = None"),
    "EXACT_SERVICES": KnockOut(
        EVALUATOR,
        "svc = self._exact_services.pop(config, None)",
        "svc = None"),
    "BASE_SERVICE": "one pinned object, not a lookup: sessions hold it "
                    "and every exact service shares its records",
    "PLAN_CACHE": KnockOut(
        SERVICE,
        "plan = self._plan_cache.get(bq.sql)",
        "plan = None"),
    "ENTRIES": "it is the pool: a pool that always misses is no cache "
               "to knock out but the seed's build-per-call model",
    "SCAN_CONTEXTS": "plan-memo keys hold contexts by identity, so a "
                     "context made afresh empties PLAN_MEMO as well",
    "PLAN_MEMO": KnockOut(
        SERVICE,
        "plan = bq.plan_memo.get(key)",
        "plan = None"),
    "PRICED": KnockOut(
        "src/repro/optimizer/paths.py",
        "memo = self._priced.get(settings)",
        "memo = {}"),
    "DESIGN_COLUMNS": KnockOut(
        "src/repro/evaluation/kernel.py",
        "column = self._columns.get((table, signature))",
        "column = None"),
    "SUBSETS": KnockOut(
        "src/repro/inum/cache.py",
        "plan = plan_query(bq, overlay, settings, subsets=subsets)",
        "plan = plan_query(bq, overlay, settings, subsets={})"),
    "PROJECTION_PAGES": KnockOut(
        TABLE,
        "pages = self._projection_pages.get(key)",
        "pages = None"),
    "LAYOUT_COVERS": KnockOut(
        "src/repro/catalog/partition.py",
        "cached = self._covers.get(needed)",
        "cached = None"),
    "INDEX_SHAPES": KnockOut(
        TABLE,
        "shape = self._index_shapes.get(key)",
        "shape = None"),
}


def apply(row, directory):
    """Copy the working tree into *directory* and knock *row* out there."""
    knock = KNOCKOUTS[row]
    if not isinstance(knock, KnockOut):
        raise SystemExit("%s has no knock-out: %s" % (row, knock))
    if os.path.exists(directory):
        raise SystemExit("%s exists" % directory)
    copy_working_tree(directory)
    path = os.path.join(directory, knock.path)
    with open(path) as handle:
        text = handle.read()
    if text.count(knock.old) != 1:
        raise SystemExit("%s: %r is not in %s once" % (row, knock.old,
                                                         knock.path))
    with open(path, "w") as handle:
        handle.write(text.replace(knock.old, knock.new))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--apply", nargs=2, metavar=("ROW", "DIR"),
                        required=True,
                        help="write a copy of the working tree with ROW "
                             "knocked out to DIR")
    row, directory = parser.parse_args(argv).apply
    if row not in KNOCKOUTS:
        parser.error("no row %r" % row)
    apply(row, os.path.abspath(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main())
