"""Physical page-layout constants and heap/btree size arithmetic.

The numbers follow PostgreSQL's on-disk format: 8 KiB pages with a 24-byte
header, 4-byte line pointers, 23-byte heap tuple headers MAXALIGN'd to 24,
and btree leaf/internal pages at ~90% fill with an 8-byte index tuple
header.  Getting sizes right matters because every designer component
reasons about storage budgets in these units.
"""

from repro.util import align8, ceil_div

PAGE_SIZE = 8192
PAGE_HEADER = 24
LINE_POINTER = 4
HEAP_TUPLE_HEADER = 24  # 23 bytes, MAXALIGN'd
INDEX_TUPLE_HEADER = 8
BTREE_FILL = 0.90
BTREE_META_PAGES = 1

USABLE_PAGE = PAGE_SIZE - PAGE_HEADER


def heap_tuple_bytes(row_width):
    """On-page footprint of one heap tuple of the given data width."""
    return align8(HEAP_TUPLE_HEADER + max(1, int(row_width))) + LINE_POINTER


def heap_tuples_per_page(row_width):
    return max(1, USABLE_PAGE // heap_tuple_bytes(row_width))


def heap_pages(row_count, row_width):
    """Number of heap pages for *row_count* rows of average width *row_width*."""
    if row_count <= 0:
        return 1
    return max(1, ceil_div(row_count, heap_tuples_per_page(row_width)))


def index_tuple_bytes(key_width):
    return align8(INDEX_TUPLE_HEADER + max(1, int(key_width))) + LINE_POINTER


def btree_leaf_pages(row_count, key_width):
    per_page = max(1, int(USABLE_PAGE * BTREE_FILL) // index_tuple_bytes(key_width))
    return max(1, ceil_div(max(1, row_count), per_page))


def btree_shape(row_count, key_width):
    """Return ``(total_pages, height, leaf_pages)`` of a btree.

    Height counts internal levels above the leaves (a one-leaf-page index
    has height 0).  ``Table.index_shape`` memoizes it per table.
    """
    leaves = btree_leaf_pages(row_count, key_width)
    fanout = max(2, int(USABLE_PAGE * BTREE_FILL) // index_tuple_bytes(key_width))
    total = leaves
    level = leaves
    height = 0
    while level > 1:
        level = ceil_div(level, fanout)
        total += level
        height += 1
    return total + BTREE_META_PAGES, height, leaves
