"""Column data types and their physical widths.

Widths follow PostgreSQL's on-disk sizes; variable-length types carry an
average width, which every :class:`~repro.catalog.column.Column` of the
type has.
"""

import enum


class DataType(enum.Enum):
    """Supported column types (a practical subset of PostgreSQL's)."""

    SMALLINT = "smallint"
    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    DOUBLE = "double"
    BOOL = "bool"
    DATE = "date"
    TIMESTAMP = "timestamp"
    TEXT = "text"

    @property
    def default_width(self):
        """Average on-disk width in bytes."""
        return _WIDTHS[self]


_WIDTHS = {
    DataType.SMALLINT: 2,
    DataType.INT: 4,
    DataType.BIGINT: 8,
    DataType.FLOAT: 4,
    DataType.DOUBLE: 8,
    DataType.BOOL: 1,
    DataType.DATE: 4,
    DataType.TIMESTAMP: 8,
    DataType.TEXT: 32,  # average
}
