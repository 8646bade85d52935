"""Row generation and ``ANALYZE``: the data the executor oracle runs on.

Tests materialize tables that honor the catalog's distributions to check
that (a) plans are semantically correct — every plan shape returns the
same rows (``tests/executor.py``) — and (b) the synthetic statistics
track reality closely enough for the cost model to be trusted.

The generators are seeded and match
:class:`~repro.catalog.stats.Distribution`.  The ``correlation`` knob is
honored by rank blending: row *i*'s value rank is a convex combination
of the storage position and an independent uniform draw, which yields a
Spearman correlation close to the requested value — the same quantity
:func:`analyze_values` (our ``ANALYZE``) measures and the index cost
model consumes.
"""

import math
import random
from dataclasses import dataclass, field

from repro.catalog.stats import ColumnStats, _as_key
from repro.util import DesignError, clamp


@dataclass
class TableData:
    """Materialized rows of one table, column-major."""

    name: str
    columns: dict  # column name -> list of values
    row_count: int

    def row(self, i):
        return {col: values[i] for col, values in self.columns.items()}

    def analyze_into(self, table):
        """Replace *table*'s statistics with ones measured from this data."""
        for col in table.columns:
            col.stats = analyze_values(
                self.columns[col.name], avg_width=col.width
            )
        return table


@dataclass
class Database:
    """A set of materialized tables plus ready-to-probe btree indexes."""

    tables: dict = field(default_factory=dict)  # name -> TableData
    _btrees: dict = field(default_factory=dict)

    def table(self, name):
        try:
            return self.tables[name]
        except KeyError:
            raise DesignError("no data for table %r" % (name,)) from None

    def btree(self, table_name, key_columns):
        """A sorted ``(encoded_keys, row_id, raw_keys)`` list for index
        probes (cached).  NULL key values are indexed — btrees store NULLs
        — using an encoding that sorts them after every non-NULL value
        (PostgreSQL's NULLS LAST default)."""
        key = (table_name, tuple(key_columns))
        cached = self._btrees.get(key)
        if cached is None:
            data = self.table(table_name)
            entries = []
            for i in range(data.row_count):
                raw = tuple(data.columns[c][i] for c in key_columns)
                entries.append((encode_key(raw), i, raw))
            entries.sort(key=lambda e: e[0])
            cached = entries
            self._btrees[key] = cached
        return cached


def encode_key(values):
    """Encode a key tuple so mixed None/values compare totally:
    non-NULL v -> (0, v), NULL -> (1,)."""
    return tuple((1,) if v is None else (0, v) for v in values)


def generate_table(table, seed=0):
    """Generate rows for *table* from its column distributions."""
    columns = {}
    for position, col in enumerate(table.columns):
        rng = random.Random("%s/%s/%s/%d" % (seed, table.name, col.name, position))
        columns[col.name] = _generate_column(
            col.distribution, table.row_count, rng
        )
    return TableData(name=table.name, columns=columns, row_count=table.row_count)


def generate_database(catalog, seed=0):
    db = Database()
    for table in catalog.tables:
        db.tables[table.name] = generate_table(table, seed=seed)
    return db


# ----------------------------------------------------------------------


def _generate_column(dist, n, rng):
    if dist is None:
        return [rng.randint(0, max(1, n // 10)) for __ in range(n)]
    if dist.kind == "sequence":
        return list(range(n))
    raw = _draw_iid(dist, n, rng)
    values = _apply_correlation(raw, dist.correlation, rng)
    if dist.null_frac > 0:
        values = [
            None if rng.random() < dist.null_frac else v for v in values
        ]
    return values


def _draw_iid(dist, n, rng):
    if dist.kind == "uniform":
        return [rng.uniform(dist.low, dist.high) for __ in range(n)]
    if dist.kind == "uniform_int":
        lo, hi = int(dist.low), int(dist.high)
        return [rng.randint(lo, hi) for __ in range(n)]
    if dist.kind == "normal":
        return [rng.gauss(dist.mu, dist.sigma) for __ in range(n)]
    if dist.kind == "zipf":
        return [_zipf_draw(dist, rng) for __ in range(n)]
    if dist.kind == "categorical":
        return rng.choices(list(dist.values), weights=list(dist.probs), k=n)
    raise DesignError("cannot generate %r" % (dist.kind,))


def _zipf_draw(dist, rng):
    n_values = max(1, dist.n_values or 1000)
    # Inverse-CDF sampling over the (small) discrete support.
    weights = [1.0 / (rank ** dist.s) for rank in range(1, n_values + 1)]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for rank, w in enumerate(weights, start=1):
        acc += w
        if u <= acc:
            return rank
    return n_values


def _apply_correlation(values, correlation, rng):
    """Rearrange iid *values* to target a physical-order correlation."""
    if abs(correlation) < 1e-9 or len(values) < 2:
        return values
    n = len(values)
    ordered = sorted(values, key=_sort_key)
    if correlation < 0:
        ordered.reverse()
    strength = min(0.999, abs(correlation))
    # Target a Spearman correlation of `strength`: position has standard
    # deviation n/sqrt(12); adding rank noise of std sigma yields a
    # correlation of 1/sqrt(1 + (sigma/sigma_pos)^2), so invert for sigma.
    sigma_pos = n / math.sqrt(12.0)
    noise_scale = sigma_pos * math.sqrt(1.0 / (strength * strength) - 1.0)
    keyed = sorted(
        range(n), key=lambda i: i + rng.gauss(0.0, noise_scale)
    )
    out = [None] * n
    for target_pos, source_rank in enumerate(keyed):
        out[target_pos] = ordered[source_rank]
    return out


def _sort_key(v):
    return (v is None, v)


# ----------------------------------------------------------------------


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
