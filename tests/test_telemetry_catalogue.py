"""README's telemetry table is rendered from the catalogue
(``repro.obs.catalogue``), and every name the catalogue declares is one
the shipped code records.

    PYTHONPATH=src python tests/test_telemetry_catalogue.py  # the table
"""

import os

from repro.obs import catalogue
from repro.obs.catalogue import FAMILIES, SPANS

import option_census

README = os.path.join(option_census.ROOT, "README.md")


def render():
    """README's telemetry table and span list, in declaration order."""
    lines = ["| family | kind | labels | help |", "|---|---|---|---|"]
    lines += ["| `%s` | %s | %s | %s |" % (
        family.name, family.kind,
        ", ".join("`%s`" % label for label in family.labelnames) or "—",
        family.help) for family in FAMILIES.values()]
    lines += ["", "Span names: %s." % ", ".join(
        "`%s`" % name for name in SPANS)]
    return "\n".join(lines) + "\n"


def test_readme_carries_the_rendered_catalogue():
    """Regenerate with ``python tests/test_telemetry_catalogue.py``."""
    with open(README) as handle:
        assert render() in handle.read()


def test_every_declared_name_is_recorded_by_the_shipped_code():
    """A declaration nothing records is a stale row of the table."""
    constants = {value: name for name, value in vars(catalogue).items()
                 if name.isupper() and value in list(FAMILIES.values())
                 + SPANS}
    named = set()
    for top in option_census.CALLER_DIRS:
        for path in option_census._python_files(option_census.ROOT, top):
            if not path.endswith(option_census.CATALOGUE):
                named.update(name for name, __ in option_census._names(
                    option_census._parse(path), reexports=True))
    assert sorted(name for name in constants.values()
                  if name not in named) == []
    assert len(constants) == len(FAMILIES) + len(SPANS)


if __name__ == "__main__":
    print(render(), end="")
