"""Unit tests for ColumnStats: synthetic construction, fractions, ANALYZE."""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.stats import ColumnStats, Distribution, _as_key
from repro.util import clamp

from datagen import analyze_values


class TestSyntheticUniform:
    def setup_method(self):
        dist = Distribution(kind="uniform", low=0.0, high=100.0)
        self.stats = ColumnStats.synthetic(10_000, dist, avg_width=8)

    def test_range_fraction_matches_uniform(self):
        assert self.stats.range_fraction(10, 20) == pytest.approx(0.1, abs=0.02)

    def test_fraction_below_endpoints(self):
        assert self.stats.fraction_below(0) == pytest.approx(0.0, abs=0.01)
        assert self.stats.fraction_below(100) == pytest.approx(1.0, abs=0.01)

    def test_out_of_range_value_has_zero_eq_fraction(self):
        assert self.stats.eq_fraction(500.0) == 0.0

    def test_eq_fraction_is_one_over_distinct(self):
        expected = 1.0 / self.stats.n_distinct
        assert self.stats.eq_fraction(50.0) == pytest.approx(expected, rel=0.01)


class TestSyntheticNormal:
    def setup_method(self):
        dist = Distribution(kind="normal", mu=20.0, sigma=2.0)
        self.stats = ColumnStats.synthetic(100_000, dist, avg_width=4)

    def test_median_splits_mass(self):
        assert self.stats.fraction_below(20.0) == pytest.approx(0.5, abs=0.02)

    def test_one_sigma_below(self):
        # P(X < mu - sigma) = 0.1587
        assert self.stats.fraction_below(18.0) == pytest.approx(0.1587, abs=0.02)


class TestSyntheticZipf:
    def setup_method(self):
        dist = Distribution(kind="zipf", n_values=100, s=1.2)
        self.stats = ColumnStats.synthetic(1_000_000, dist, avg_width=4)

    def test_top_value_dominates(self):
        assert self.stats.eq_fraction(1) > self.stats.eq_fraction(2) > self.stats.eq_fraction(3)

    def test_frequencies_sum_below_one(self):
        total = sum(self.stats.eq_fraction(v) for v in range(1, 101))
        assert total <= 1.0 + 1e-6

    def test_mcvs_populated(self):
        assert len(self.stats.mcv_values) == 10


class TestSyntheticSequence:
    def test_sequence_is_perfectly_correlated(self):
        stats = ColumnStats.synthetic(5000, Distribution(kind="sequence"), avg_width=8)
        assert stats.correlation == 1.0
        assert stats.n_distinct == 5000

    def test_sequence_range_fraction(self):
        stats = ColumnStats.synthetic(1000, Distribution(kind="sequence"), avg_width=8)
        assert stats.range_fraction(100, 200) == pytest.approx(0.1, abs=0.02)


class TestSyntheticCategorical:
    def test_categorical_mcvs(self):
        dist = Distribution(
            kind="categorical", values=("a", "b", "c"), probs=(0.7, 0.2, 0.1)
        )
        stats = ColumnStats.synthetic(1000, dist, avg_width=2)
        assert stats.eq_fraction("a") == pytest.approx(0.7)
        assert stats.eq_fraction("b") == pytest.approx(0.2)
        assert stats.n_distinct == 3


class TestAnalyzeValues:
    def test_basic_counts(self):
        stats = analyze_values([1, 2, 2, 3, 3, 3, None, None])
        assert stats.null_frac == pytest.approx(0.25)
        assert stats.n_distinct == 3
        assert stats.min_value == 1
        assert stats.max_value == 3

    def test_sorted_input_has_high_correlation(self):
        stats = analyze_values(list(range(1000)))
        assert stats.correlation == pytest.approx(1.0, abs=1e-6)

    def test_reversed_input_has_negative_correlation(self):
        stats = analyze_values(list(range(1000, 0, -1)))
        assert stats.correlation == pytest.approx(-1.0, abs=1e-6)

    def test_mcv_detection(self):
        values = [7] * 500 + list(range(1000))
        stats = analyze_values(values)
        assert 7 in stats.mcv_values
        assert stats.eq_fraction(7) == pytest.approx(500 / 1500, rel=0.05)

    def test_range_fraction_tracks_data(self):
        values = list(range(1000))
        stats = analyze_values(values)
        actual = sum(1 for v in values if 100 <= v <= 300) / len(values)
        assert stats.range_fraction(100, 300) == pytest.approx(actual, abs=0.03)

    def test_empty_and_all_null(self):
        assert analyze_values([]).n_distinct == 1.0
        stats = analyze_values([None, None])
        assert stats.null_frac == 1.0

    def test_string_values(self):
        stats = analyze_values(["apple", "banana", "cherry", "apple"])
        assert stats.min_value == "apple"
        assert stats.max_value == "cherry"


class TestStatsInvariants:
    @given(
        low=st.floats(-1e6, 1e6),
        span=st.floats(0.001, 1e6),
        a=st.floats(0, 1),
        b=st.floats(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fraction_below_is_monotone(self, low, span, a, b):
        stats = ColumnStats.synthetic(
            10_000, Distribution(kind="uniform", low=low, high=low + span), avg_width=8
        )
        va, vb = low + a * span, low + b * span
        if va > vb:
            va, vb = vb, va
        assert stats.fraction_below(va) <= stats.fraction_below(vb) + 1e-9

    @given(st.lists(st.one_of(st.integers(-50, 50), st.none()), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_analyze_never_produces_invalid_fractions(self, values):
        stats = analyze_values(values)
        assert 0.0 <= stats.null_frac <= 1.0
        assert -1.0 <= stats.correlation <= 1.0
        assert stats.n_distinct >= 1.0
        for probe in (-100, 0, 100):
            assert 0.0 <= stats.eq_fraction(probe) <= 1.0
            assert 0.0 <= stats.fraction_below(probe) <= 1.0

    @given(st.lists(st.integers(-1000, 1000), min_size=50, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_analyzed_range_fraction_close_to_truth(self, values):
        stats = analyze_values(values)
        lo, hi = -200, 200
        actual = sum(1 for v in values if lo <= v <= hi) / len(values)
        assert stats.range_fraction(lo, hi) == pytest.approx(actual, abs=0.25)


def reference_fraction_below(stats, value, inclusive=False):
    """``ColumnStats.fraction_below`` as it was before the key vector,
    MCV total and MCV set were derived once per stats object: every call
    re-keys the whole histogram and scans the MCV list."""
    frac = 0.0
    for mcv, freq in zip(stats.mcv_values, stats.mcv_freqs):
        try:
            below = mcv < value or (inclusive and mcv == value)
        except TypeError:
            below = False
        if below:
            frac += freq
    mcv_total = min(1.0, sum(stats.mcv_freqs))
    histogram_mass = max(0.0, stats.nonnull_frac - mcv_total)
    if len(stats.histogram) < 2:
        within_histogram = stats._linear_fraction_below(value)
    else:
        keys = [_as_key(b) for b in stats.histogram]
        key = _as_key(value)
        if key <= keys[0]:
            within_histogram = 0.0 if not inclusive or key < keys[0] else 0.0
        elif key >= keys[-1]:
            within_histogram = 1.0
        else:
            idx = min(bisect.bisect_right(keys, key) - 1, len(keys) - 2)
            lo, hi = keys[idx], keys[idx + 1]
            within = 0.5 if hi <= lo else clamp((key - lo) / (hi - lo), 0.0, 1.0)
            within_histogram = clamp((idx + within) / (len(keys) - 1), 0.0, 1.0)
    frac += within_histogram * histogram_mass
    if inclusive and histogram_mass > 0.0 and value not in stats.mcv_values:
        remaining_distinct = max(1.0, stats.n_distinct - len(stats.mcv_values))
        frac += histogram_mass / remaining_distinct
    return clamp(frac, 0.0, 1.0)


_NUMBERS = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_WORDS = st.text(alphabet="abcxyz é", max_size=10)


class TestPrecomputedKeysMatchOldFormula:
    """The derived key vector / MCV total / MCV set are pure caches:
    ``fraction_below`` equals the old per-call formula exactly (``==``)."""

    def _check(self, values, probes):
        for stats in (
            analyze_values(values, n_buckets=7, mcv_min_freq=0.1),
            analyze_values(values, n_buckets=100),
        ):
            for probe in list(probes) + list(stats.histogram) + stats.mcv_values:
                for inclusive in (False, True):
                    # Twice: the first call derives the keys, the second
                    # reads them back.
                    for __ in range(2):
                        assert stats.fraction_below(
                            probe, inclusive
                        ) == reference_fraction_below(stats, probe, inclusive)

    @given(st.lists(_NUMBERS, min_size=1, max_size=120), st.lists(_NUMBERS, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_numeric_histograms(self, values, probes):
        self._check(values, probes)

    @given(st.lists(_WORDS, min_size=1, max_size=80), st.lists(_WORDS, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_string_histograms(self, values, probes):
        self._check(values, probes)

    @given(
        st.sampled_from(["uniform", "uniform_int", "zipf", "sequence"]),
        st.lists(_NUMBERS, min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_synthetic_histograms(self, kind, probes):
        dist = Distribution(kind=kind, low=-50.0, high=750.0, n_values=300)
        stats = ColumnStats.synthetic(20_000, dist, avg_width=8, n_buckets=25)
        for probe in probes:
            for inclusive in (False, True):
                assert stats.fraction_below(
                    probe, inclusive
                ) == reference_fraction_below(stats, probe, inclusive)

    def test_a_new_snapshot_derives_its_own_keys(self):
        coarse = analyze_values(list(range(100)), n_buckets=2)
        fine = analyze_values(list(range(100)), n_buckets=50)
        coarse.fraction_below(31), fine.fraction_below(31)
        assert len(coarse._histogram_keys) == 3
        assert len(fine._histogram_keys) == 51
        assert coarse == analyze_values(list(range(100)), n_buckets=2)


class TestDistributionValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Distribution(kind="bogus")

    def test_null_frac_range_enforced(self):
        with pytest.raises(ValueError):
            Distribution(kind="uniform", null_frac=1.5)

    def test_mcv_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ColumnStats(mcv_values=[1], mcv_freqs=[])
