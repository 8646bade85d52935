"""Catalog substrate: schema objects, statistics, and the physical size model.

This mirrors what the paper's designer reads from PostgreSQL's system
catalogs: table/column definitions, per-column statistics (``pg_statistic``),
and page-level size accounting for heap tables, btree indexes, and
partitions.
"""

from repro.catalog.types import DataType
from repro.catalog.stats import ColumnStats, Distribution
from repro.catalog.column import Column
from repro.catalog.table import Table
from repro.catalog.index import Index
from repro.catalog.partition import VerticalFragment, VerticalLayout, HorizontalPartitioning
from repro.catalog.schema import Catalog

__all__ = [
    "DataType",
    "ColumnStats",
    "Distribution",
    "Column",
    "Table",
    "Index",
    "VerticalFragment",
    "VerticalLayout",
    "HorizontalPartitioning",
    "Catalog",
]
