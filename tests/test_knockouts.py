"""The declared knock-outs still match the memo table and the code: every
row of ``memos.MEMOS`` has exactly one entry in ``tests/knockouts.py``,
and each knock-out's old text occurs exactly once in its file.  Applies
nothing; ``python tests/knockouts.py --apply ROW DIR`` does that."""

from pathlib import Path

import pytest

from knockouts import KNOCKOUTS, KnockOut
from pairs import ROOT
from repro.evaluation import memos


def row_names():
    """Each row of ``memos.MEMOS`` by its name in ``memos.py``."""
    names = {id(value): name for name, value in vars(memos).items()
             if isinstance(value, memos.Memo)}
    return [names[id(row)] for row in memos.MEMOS]


def test_every_row_has_exactly_one_entry():
    names = row_names()
    assert len(set(names)) == len(names) == len(memos.MEMOS)
    assert list(KNOCKOUTS) == names


def test_every_row_states_its_worth_or_why_it_has_none():
    """A row with a knock-out states what the knock-out cost ("Worth");
    a row without one says why not."""
    for name, row in zip(row_names(), memos.MEMOS):
        word = ("Worth" if isinstance(KNOCKOUTS[name], KnockOut)
                else "No knock-out")
        assert word in row.text, name


@pytest.mark.parametrize("row", sorted(KNOCKOUTS))
def test_a_knock_out_matches_its_file_once(row):
    knock = KNOCKOUTS[row]
    if not isinstance(knock, KnockOut):
        assert knock.strip(), row  # a reason instead
        return
    assert knock.old != knock.new
    assert (Path(ROOT) / knock.path).read_text().count(knock.old) == 1
