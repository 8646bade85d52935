"""Per-column statistics, mirroring PostgreSQL's ``pg_statistic`` rows.

A :class:`ColumnStats` carries everything the selectivity estimator needs:

* ``n_distinct`` — absolute number of distinct non-null values,
* ``null_frac`` — fraction of NULLs,
* most-common values with their frequencies (MCV list),
* an equi-depth histogram over the remaining values,
* ``correlation`` — physical-vs-logical order correlation in [-1, 1],
  which drives the index-scan cost interpolation,
* ``avg_width`` — average on-disk width in bytes.

The designer needs only "a way to extract and create statistics" (the
paper's portability requirement): :meth:`ColumnStats.synthetic` derives
them analytically from a :class:`Distribution` spec, so the large
SDSS-like catalogs are priced without materializing a row.  Measuring
them from actual rows (``ANALYZE``) is the tests' job, done in
``tests/datagen.py`` beside the row generator it measures.
"""

import bisect
from dataclasses import dataclass, field

from repro.util import clamp, ndtri


@dataclass(frozen=True)
class Distribution:
    """Generative spec for a column's value distribution.

    ``kind`` is one of:

    * ``"uniform"`` — continuous uniform over [low, high]
    * ``"uniform_int"`` — integer uniform over [low, high]
    * ``"zipf"`` — integers 1..n_values with Zipf(s) frequencies
    * ``"normal"`` — normal(mu, sigma) clipped to [low, high] when given
    * ``"sequence"`` — 0..rows-1 in physical order (a surrogate key)
    * ``"categorical"`` — explicit values + probabilities
    """

    kind: str = "uniform"
    low: float = 0.0
    high: float = 1.0
    n_values: int = 0
    s: float = 1.1
    mu: float = 0.0
    sigma: float = 1.0
    values: tuple[float | str, ...] = ()
    probs: tuple[float, ...] = ()
    correlation: float = 0.0
    null_frac: float = 0.0

    def __post_init__(self):
        if self.kind not in (
            "uniform",
            "uniform_int",
            "zipf",
            "normal",
            "sequence",
            "categorical",
        ):
            raise ValueError("unknown distribution kind %r" % (self.kind,))
        if not 0.0 <= self.null_frac < 1.0:
            raise ValueError("null_frac must be in [0, 1)")


def _as_key(value):
    """Map a value onto the real line for histogram arithmetic.

    Numbers map to themselves.  Strings map to a crude base-256 expansion of
    their first 8 bytes, which preserves lexicographic order well enough for
    equi-depth interpolation (PostgreSQL does essentially the same in
    ``convert_string_to_scalar``).
    """
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        acc = 0.0
        scale = 1.0
        for ch in value[:8].encode("utf-8", errors="replace")[:8]:
            scale /= 256.0
            acc += ch * scale
        return acc
    raise TypeError("unsupported value type %r" % (type(value),))


@dataclass
class ColumnStats:
    """Statistics snapshot for one column."""

    n_distinct: float = 1.0
    null_frac: float = 0.0
    min_value: object = None
    max_value: object = None
    mcv_values: list = field(default_factory=list)
    mcv_freqs: list = field(default_factory=list)
    histogram: list = field(default_factory=list)  # equi-depth bounds, len = buckets+1
    correlation: float = 0.0
    avg_width: int = 4

    # Derived once per stats object, never serialised: a snapshot is
    # replaced wholesale (``build_stats`` or an ``ANALYZE`` makes a new
    # object), so these cannot go stale.
    mcv_total_freq: float = field(init=False, repr=False, compare=False)
    _mcv_lookup: object = field(init=False, repr=False, compare=False)
    _histogram_keys: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.n_distinct = max(1.0, float(self.n_distinct))
        self.null_frac = clamp(float(self.null_frac), 0.0, 1.0)
        self.correlation = clamp(float(self.correlation), -1.0, 1.0)
        if len(self.mcv_values) != len(self.mcv_freqs):
            raise ValueError("MCV values and frequencies must align")
        self.mcv_total_freq = min(1.0, sum(self.mcv_freqs))
        try:
            self._mcv_lookup = frozenset(self.mcv_values)
        except TypeError:  # unhashable values: keep the list scan
            self._mcv_lookup = self.mcv_values
        self._histogram_keys = None  # float key vector, built on first use

    # ------------------------------------------------------------------
    # Fraction helpers consumed by the selectivity estimator.
    # ------------------------------------------------------------------

    @property
    def nonnull_frac(self):
        return 1.0 - self.null_frac

    def eq_fraction(self, value):
        """Fraction of rows equal to *value* (PostgreSQL's ``eqsel``)."""
        for mcv, freq in zip(self.mcv_values, self.mcv_freqs):
            if mcv == value:
                return clamp(freq, 0.0, 1.0)
        if self.min_value is not None and self.max_value is not None:
            try:
                if value < self.min_value or value > self.max_value:
                    return 0.0
            except TypeError:
                pass
        remaining = max(0.0, self.nonnull_frac - self.mcv_total_freq)
        remaining_distinct = max(1.0, self.n_distinct - len(self.mcv_values))
        return clamp(remaining / remaining_distinct, 0.0, 1.0)

    def fraction_below(self, value, inclusive=False):
        """Fraction of rows with column value < (or <=) *value*."""
        frac = 0.0
        for mcv, freq in zip(self.mcv_values, self.mcv_freqs):
            try:
                below = mcv < value or (inclusive and mcv == value)
            except TypeError:
                below = False
            if below:
                frac += freq
        histogram_mass = max(0.0, self.nonnull_frac - self.mcv_total_freq)
        frac += self._histogram_fraction_below(value) * histogram_mass
        if inclusive and histogram_mass > 0.0 and value not in self._mcv_lookup:
            # Closed bound: add the average per-value mass so that integer
            # domains (where P(X = v) is not negligible) estimate correctly.
            remaining_distinct = max(1.0, self.n_distinct - len(self.mcv_values))
            frac += histogram_mass / remaining_distinct
        return clamp(frac, 0.0, 1.0)

    def _histogram_fraction_below(self, value):
        if len(self.histogram) < 2:
            return self._linear_fraction_below(value)
        keys = self._histogram_keys
        if keys is None:
            keys = self._histogram_keys = [_as_key(b) for b in self.histogram]
        key = _as_key(value)
        if key <= keys[0]:
            return 0.0
        if key >= keys[-1]:
            return 1.0
        idx = bisect.bisect_right(keys, key) - 1
        idx = min(idx, len(keys) - 2)
        lo, hi = keys[idx], keys[idx + 1]
        within = 0.5 if hi <= lo else clamp((key - lo) / (hi - lo), 0.0, 1.0)
        buckets = len(keys) - 1
        return clamp((idx + within) / buckets, 0.0, 1.0)

    def _linear_fraction_below(self, value):
        """Fallback when no histogram exists: assume uniform [min, max]."""
        if self.min_value is None or self.max_value is None:
            return 0.5
        lo, hi = _as_key(self.min_value), _as_key(self.max_value)
        if hi <= lo:
            return 0.5
        return clamp((_as_key(value) - lo) / (hi - lo), 0.0, 1.0)

    def range_fraction(self, low=None, high=None, low_inclusive=True, high_inclusive=True):
        """Fraction of rows in the interval [low, high] (either side open)."""
        upper = self.fraction_below(high, inclusive=high_inclusive) if high is not None else self.nonnull_frac
        lower = self.fraction_below(low, inclusive=not low_inclusive) if low is not None else 0.0
        return clamp(upper - lower, 0.0, 1.0)

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------

    @classmethod
    def synthetic(cls, row_count, dist, avg_width, n_buckets=100, n_mcvs=10):
        """Derive statistics analytically from a :class:`Distribution`.

        This is exact for the distributions our workload generators use, so
        synthetic catalogs behave as if freshly ANALYZE'd.
        """
        row_count = max(1, int(row_count))
        if dist.kind == "sequence":
            bounds = [row_count * i / n_buckets for i in range(n_buckets + 1)]
            return cls(
                n_distinct=row_count,
                null_frac=0.0,
                min_value=0,
                max_value=row_count - 1,
                histogram=bounds,
                correlation=1.0,
                avg_width=avg_width,
            )
        if dist.kind in ("uniform", "uniform_int"):
            lo, hi = float(dist.low), float(dist.high)
            if dist.kind == "uniform_int":
                n_distinct = min(row_count, int(hi) - int(lo) + 1)
            else:
                n_distinct = row_count * (1.0 - dist.null_frac)
            bounds = [lo + (hi - lo) * i / n_buckets for i in range(n_buckets + 1)]
            return cls(
                n_distinct=max(1.0, n_distinct),
                null_frac=dist.null_frac,
                min_value=lo,
                max_value=hi,
                histogram=bounds,
                correlation=dist.correlation,
                avg_width=avg_width,
            )
        if dist.kind == "normal":
            # norm.ppf's arithmetic, on the in-repo Cephes ndtri.
            qs = [i / n_buckets for i in range(n_buckets + 1)]
            eps = 1.0 / (10.0 * n_buckets)
            bounds = [
                ndtri(clamp(q, eps, 1.0 - eps)) * dist.sigma + dist.mu
                for q in qs
            ]
            return cls(
                n_distinct=row_count * (1.0 - dist.null_frac),
                null_frac=dist.null_frac,
                min_value=bounds[0],
                max_value=bounds[-1],
                histogram=bounds,
                correlation=dist.correlation,
                avg_width=avg_width,
            )
        if dist.kind == "zipf":
            return cls._synthetic_zipf(row_count, dist, avg_width, n_buckets, n_mcvs)
        if dist.kind == "categorical":
            values = list(dist.values)
            probs = list(dist.probs)
            order = sorted(range(len(values)), key=lambda i: -probs[i])
            mcv_idx = order[:n_mcvs]
            return cls(
                n_distinct=len(values),
                null_frac=dist.null_frac,
                min_value=min(values),
                max_value=max(values),
                mcv_values=[values[i] for i in mcv_idx],
                mcv_freqs=[probs[i] * (1.0 - dist.null_frac) for i in mcv_idx],
                correlation=dist.correlation,
                avg_width=avg_width,
            )
        raise ValueError("unsupported distribution %r" % (dist.kind,))

    @classmethod
    def _synthetic_zipf(cls, row_count, dist, avg_width, n_buckets, n_mcvs):
        n_values = max(1, dist.n_values or 1000)
        weights = [1.0 / (rank ** dist.s) for rank in range(1, n_values + 1)]
        total = sum(weights)
        freqs = [w / total * (1.0 - dist.null_frac) for w in weights]
        mcv_values = list(range(1, min(n_mcvs, n_values) + 1))
        mcv_freqs = freqs[: len(mcv_values)]
        # Equi-depth histogram over the tail (values after the MCVs).
        tail = freqs[len(mcv_values):]
        bounds = [len(mcv_values) + 1]
        if tail:
            tail_total = sum(tail)
            target = tail_total / n_buckets
            acc = 0.0
            for offset, f in enumerate(tail):
                acc += f
                while acc >= target and len(bounds) <= n_buckets:
                    bounds.append(len(mcv_values) + 1 + offset)
                    acc -= target
        while len(bounds) <= n_buckets:
            bounds.append(n_values)
        return cls(
            n_distinct=min(row_count, n_values),
            null_frac=dist.null_frac,
            min_value=1,
            max_value=n_values,
            mcv_values=mcv_values,
            mcv_freqs=mcv_freqs,
            histogram=[float(b) for b in bounds],
            correlation=dist.correlation,
            avg_width=avg_width,
        )
