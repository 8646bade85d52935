"""``tests/pairs.py``'s summary on synthetic runs: a verdict is given
only past the floor, the larger of the base's quartile spread and the
metric's bound times the base's median."""

import statistics

import pytest

from pairs import summary


def runs_of(name, base, head):
    def side(values):
        return [{"attempted": 10, "failed": 0,
                 "metrics": {name: {"value": value}}} for value in values]

    return {"base": side(base), "head": side(head)}


def verdict_of(name, better, bound, base, head):
    header, columns, line = summary("w", runs_of(name, base, head),
                                    [(name, better, bound)])
    assert header == "w: attempted %d / %d, failed 0 / 0 (base / head)" % (
        10 * len(base), 10 * len(head))
    assert columns.split()[-1] == "verdict"
    assert line.split()[0] == name
    return line.split("  ")[-1]


def test_a_collapsed_base_is_judged_on_the_bound():
    """Nine of ten base runs read the same peak RSS, so its quartiles
    collapse to one value; a 0.02 MB shift lies outside them and inside
    the 10 % bound."""
    base = [54.9] + [55.0] * 9
    assert statistics.quantiles(base, n=4)[::2] == [55.0, 55.0]
    assert verdict_of("peak_rss_mb", "lower", 0.1, base,
                      [55.02] * 10) == "within floor"
    assert verdict_of("peak_rss_mb", "lower", 0.1, base,
                      [48.0] * 10) == "better"
    assert verdict_of("peak_rss_mb", "lower", 0.1, base,
                      [62.0] * 10) == "worse"


@pytest.mark.parametrize("better, head, expected", [
    ("higher", 130.0, "better"),
    ("higher", 70.0, "worse"),
    ("lower", 70.0, "better"),
    ("lower", 130.0, "worse"),
    ("higher", 110.0, "within floor"),
])
def test_the_declared_direction_reads_the_shift(better, head, expected):
    base = [98.0, 99.0, 100.0, 100.0, 101.0, 102.0]
    assert verdict_of("ops_per_s", better, 0.2, base,
                      [head] * 6) == expected


def test_a_wide_base_spread_outweighs_the_bound():
    """A base whose quartiles lie 50 apart cannot resolve a 30 shift,
    though the shift is three times the bound."""
    base = [50.0, 75.0, 100.0, 100.0, 125.0, 150.0]
    assert verdict_of("ops_per_s", "higher", 0.1, base,
                      [130.0] * 6) == "within floor"
    assert verdict_of("ops_per_s", "higher", 0.1, base,
                      [190.0] * 6) == "better"
