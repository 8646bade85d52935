"""Per-column statistics, mirroring PostgreSQL's ``pg_statistic`` rows.

A :class:`ColumnStats` carries everything the selectivity estimator needs:

* ``n_distinct`` — absolute number of distinct non-null values,
* ``null_frac`` — fraction of NULLs,
* most-common values with their frequencies (MCV list),
* an equi-depth histogram over the remaining values,
* ``correlation`` — physical-vs-logical order correlation in [-1, 1],
  which drives the index-scan cost interpolation,
* ``avg_width`` — average on-disk width in bytes.

Statistics come from two sources, matching the paper's requirement that a
portable designer only needs "a way to extract and create statistics":

* :func:`analyze_values` computes them from actual rows (our ``ANALYZE``),
  used by the executor-backed tests;
* :meth:`ColumnStats.synthetic` derives them analytically from a
  :class:`Distribution` spec, used for the large SDSS-like catalogs where
  materializing rows would be pointless.
"""

import bisect
import math
from dataclasses import dataclass, field

from repro.util import clamp


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
    values: tuple = ()
    probs: tuple = ()
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
    # replaced wholesale (``build_stats``/``analyze_values`` make a new
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
            # norm.ppf's arithmetic without scipy.stats' 0.35 s import.
            from scipy.special import ndtri

            qs = [i / n_buckets for i in range(n_buckets + 1)]
            eps = 1.0 / (10.0 * n_buckets)
            bounds = [
                float(ndtri(clamp(q, eps, 1.0 - eps)) * dist.sigma + dist.mu)
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


def analyze_values(values, avg_width=None, n_buckets=100, n_mcvs=10, mcv_min_freq=0.02):
    """Compute :class:`ColumnStats` from actual column values (``ANALYZE``).

    ``values`` may contain ``None`` for NULLs.  Physical correlation is the
    Spearman-style correlation between storage position and value rank, the
    same quantity PostgreSQL stores.
    """
    values = list(values)
    total = len(values)
    if total == 0:
        return ColumnStats(avg_width=avg_width or 4)
    nonnull = [v for v in values if v is not None]
    null_frac = 1.0 - len(nonnull) / total
    if not nonnull:
        return ColumnStats(null_frac=1.0, avg_width=avg_width or 4)

    counts = {}
    for v in nonnull:
        counts[v] = counts.get(v, 0) + 1
    n_distinct = len(counts)

    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], _as_key(kv[0])))
    mcvs = [(v, c / total) for v, c in ranked[:n_mcvs] if c / total >= mcv_min_freq and c > 1]
    mcv_values = [v for v, __ in mcvs]
    mcv_freqs = [f for __, f in mcvs]
    mcv_set = set(mcv_values)

    tail = sorted((v for v in nonnull if v not in mcv_set), key=_as_key)
    histogram = []
    if len(tail) >= 2:
        buckets = min(n_buckets, max(1, len(tail) - 1))
        histogram = [tail[round(i * (len(tail) - 1) / buckets)] for i in range(buckets + 1)]

    correlation = _physical_correlation(values)
    if avg_width is None:
        avg_width = max(1, round(sum(_value_width(v) for v in nonnull) / len(nonnull)))
    return ColumnStats(
        n_distinct=n_distinct,
        null_frac=null_frac,
        min_value=min(nonnull, key=_as_key),
        max_value=max(nonnull, key=_as_key),
        mcv_values=mcv_values,
        mcv_freqs=mcv_freqs,
        histogram=histogram,
        correlation=correlation,
        avg_width=avg_width,
    )


def _value_width(value):
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 4 if -2**31 <= value < 2**31 else 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value) + 1
    return 8


def _physical_correlation(values):
    """Correlation between physical position and value order, ignoring NULLs."""
    pairs = [(pos, _as_key(v)) for pos, v in enumerate(values) if v is not None]
    if len(pairs) < 2:
        return 0.0
    n = len(pairs)
    mean_pos = sum(p for p, __ in pairs) / n
    # Rank the values (average ranks for ties) and correlate with position.
    order = sorted(range(n), key=lambda i: pairs[i][1])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pairs[order[j + 1]][1] == pairs[order[i]][1]:
            j += 1
        avg_rank = (i + j) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg_rank
        i = j + 1
    mean_rank = sum(ranks) / n
    cov = sum((pairs[i][0] - mean_pos) * (ranks[i] - mean_rank) for i in range(n))
    var_pos = sum((pairs[i][0] - mean_pos) ** 2 for i in range(n))
    var_rank = sum((r - mean_rank) ** 2 for r in ranks)
    if var_pos <= 0.0 or var_rank <= 0.0:
        return 0.0
    return clamp(cov / math.sqrt(var_pos * var_rank), -1.0, 1.0)
