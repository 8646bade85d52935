"""Column definitions.

A :class:`Column` couples a logical definition (name, type) with an optional
generative :class:`~repro.catalog.stats.Distribution` used both to derive
synthetic statistics and to drive the row generator in tests.
"""

from dataclasses import dataclass, field

from repro.catalog.stats import ColumnStats, Distribution
from repro.catalog.types import DataType
from repro.util import CatalogError


@dataclass
class Column:
    """One column of a table.

    Parameters
    ----------
    name:
        Column name (lower-case identifiers throughout the library).
    dtype:
        A :class:`~repro.catalog.types.DataType`.
    distribution:
        Optional generative spec.  :meth:`build_stats` derives the
        column's ``stats`` from it, or guesses them without one.

    ``width``, the average on-disk width, is the type's width.
    """

    name: str
    dtype: DataType
    distribution: Distribution | None = None
    width: int = field(init=False)
    stats: ColumnStats = field(default=None, repr=False, init=False)

    def __post_init__(self):
        if not self.name or not self.name.islower():
            raise CatalogError("column names must be non-empty lower-case: %r" % (self.name,))
        self.width = self.dtype.default_width

    def build_stats(self, row_count, n_buckets=100):
        """Materialize synthetic statistics from the distribution spec."""
        if self.distribution is None:
            self.stats = ColumnStats(
                n_distinct=max(1.0, row_count / 10.0),
                avg_width=self.width,
            )
        else:
            self.stats = ColumnStats.synthetic(
                row_count, self.distribution, self.width, n_buckets=n_buckets
            )
        return self.stats
