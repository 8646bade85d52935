"""The declared mutants still match the code they mutate: each old text
occurs exactly once in its file and each named test file exists.  Runs
no mutant; ``python tests/mutants.py`` does that."""

import pytest

from mutants import MUTANTS, drift


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_the_declaration_matches_the_code(mutant):
    assert drift([mutant]) == []
