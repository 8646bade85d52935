"""TPC-H-lite: a decision-support schema + workload.

Used to show the designer is portable across workload shapes (the paper's
tool is not SDSS-specific).  The schema is a faithful subset of TPC-H with
numeric date encoding (days since 1992-01-01) to stay within the SQL
dialect.
"""

import random

from repro.catalog import Catalog, Column, DataType, Distribution, Table
from repro.workloads.workload import Workload

DATE_LO = 0  # 1992-01-01
DATE_HI = 2557  # ~1998-12-31


def tpch_catalog(scale=0.1):
    """TPC-H-lite at the given scale factor (1.0 = 6M lineitems)."""
    lineitems = max(1000, int(6_000_000 * scale))
    orders = max(250, lineitems // 4)
    customers = max(50, orders // 10)
    parts = max(40, int(200_000 * scale))
    suppliers = max(10, parts // 20)

    catalog = Catalog()
    catalog.add_table(
        Table(
            "lineitem",
            [
                Column("l_orderkey", DataType.BIGINT,
                       Distribution(kind="uniform_int", low=0, high=orders - 1, correlation=1.0)),
                Column("l_partkey", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=parts - 1)),
                Column("l_suppkey", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=suppliers - 1)),
                Column("l_linenumber", DataType.INT,
                       Distribution(kind="uniform_int", low=1, high=7)),
                Column("l_quantity", DataType.FLOAT,
                       Distribution(kind="uniform", low=1.0, high=50.0)),
                Column("l_extendedprice", DataType.FLOAT,
                       Distribution(kind="uniform", low=900.0, high=105000.0)),
                Column("l_discount", DataType.FLOAT,
                       Distribution(kind="uniform", low=0.0, high=0.1)),
                Column("l_tax", DataType.FLOAT,
                       Distribution(kind="uniform", low=0.0, high=0.08)),
                Column("l_returnflag", DataType.INT,
                       Distribution(kind="zipf", n_values=3, s=0.6)),
                Column("l_linestatus", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=1)),
                Column("l_shipdate", DataType.INT,
                       Distribution(kind="uniform_int", low=DATE_LO, high=DATE_HI, correlation=0.3)),
                Column("l_commitdate", DataType.INT,
                       Distribution(kind="uniform_int", low=DATE_LO, high=DATE_HI)),
                Column("l_receiptdate", DataType.INT,
                       Distribution(kind="uniform_int", low=DATE_LO, high=DATE_HI)),
            ],
            row_count=lineitems,
        ).build_stats()
    )
    catalog.add_table(
        Table(
            "orders",
            [
                Column("o_orderkey", DataType.BIGINT, Distribution(kind="sequence")),
                Column("o_custkey", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=customers - 1)),
                Column("o_orderstatus", DataType.INT,
                       Distribution(kind="zipf", n_values=3, s=0.8)),
                Column("o_totalprice", DataType.FLOAT,
                       Distribution(kind="uniform", low=850.0, high=560000.0)),
                Column("o_orderdate", DataType.INT,
                       Distribution(kind="uniform_int", low=DATE_LO, high=DATE_HI, correlation=0.95)),
                Column("o_orderpriority", DataType.INT,
                       Distribution(kind="uniform_int", low=1, high=5)),
                Column("o_shippriority", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=1)),
            ],
            row_count=orders,
        ).build_stats()
    )
    catalog.add_table(
        Table(
            "customer",
            [
                Column("c_custkey", DataType.INT, Distribution(kind="sequence")),
                Column("c_nationkey", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=24)),
                Column("c_acctbal", DataType.FLOAT,
                       Distribution(kind="uniform", low=-1000.0, high=10000.0)),
                Column("c_mktsegment", DataType.INT,
                       Distribution(kind="uniform_int", low=1, high=5)),
            ],
            row_count=customers,
        ).build_stats()
    )
    catalog.add_table(
        Table(
            "part",
            [
                Column("p_partkey", DataType.INT, Distribution(kind="sequence")),
                Column("p_brand", DataType.INT,
                       Distribution(kind="uniform_int", low=1, high=25)),
                Column("p_size", DataType.INT,
                       Distribution(kind="uniform_int", low=1, high=50)),
                Column("p_retailprice", DataType.FLOAT,
                       Distribution(kind="uniform", low=900.0, high=2100.0)),
                Column("p_container", DataType.INT,
                       Distribution(kind="uniform_int", low=1, high=40)),
            ],
            row_count=parts,
        ).build_stats()
    )
    catalog.add_table(
        Table(
            "supplier",
            [
                Column("s_suppkey", DataType.INT, Distribution(kind="sequence")),
                Column("s_nationkey", DataType.INT,
                       Distribution(kind="uniform_int", low=0, high=24)),
                Column("s_acctbal", DataType.FLOAT,
                       Distribution(kind="uniform", low=-1000.0, high=10000.0)),
            ],
            row_count=suppliers,
        ).build_stats()
    )
    return catalog


def _pricing_summary(rng):
    ship = rng.randint(DATE_HI - 120, DATE_HI - 1)
    return (
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), "
        "COUNT(*) FROM lineitem WHERE l_shipdate <= %d "
        "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag" % ship
    )


def _shipping_window(rng):
    lo = rng.randint(DATE_LO, DATE_HI - 40)
    return (
        "SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem "
        "WHERE l_shipdate BETWEEN %d AND %d AND l_discount BETWEEN 0.05 AND 0.07 "
        "AND l_quantity < 24" % (lo, lo + 30)
    )


def _order_lineitem_join(rng):
    lo = rng.randint(DATE_LO, DATE_HI - 95)
    return (
        "SELECT o.o_orderkey, o.o_orderdate, SUM(l.l_extendedprice) "
        "FROM orders o, lineitem l WHERE l.l_orderkey = o.o_orderkey "
        "AND o.o_orderdate BETWEEN %d AND %d "
        "GROUP BY o.o_orderkey, o.o_orderdate LIMIT 10" % (lo, lo + 90)
    )


def _customer_orders(rng):
    segment = rng.randint(1, 5)
    date = rng.randint(DATE_LO + 700, DATE_HI - 700)
    return (
        "SELECT o.o_orderkey, o.o_totalprice FROM customer c, orders o "
        "WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = %d "
        "AND o.o_orderdate < %d" % (segment, date)
    )


def _part_supplier(rng):
    brand = rng.randint(1, 25)
    size = rng.randint(1, 15)
    return (
        "SELECT p.p_partkey, l.l_quantity FROM part p, lineitem l "
        "WHERE p.p_partkey = l.l_partkey AND p.p_brand = %d AND p.p_size < %d"
        % (brand, size)
    )


def _big_spenders(rng):
    qty = rng.uniform(45.0, 49.0)
    return (
        "SELECT l_orderkey, SUM(l_quantity) FROM lineitem "
        "WHERE l_quantity > %.1f GROUP BY l_orderkey LIMIT 100" % qty
    )


TEMPLATES = (
    (_pricing_summary, 0.15),
    (_shipping_window, 0.25),
    (_order_lineitem_join, 0.20),
    (_customer_orders, 0.15),
    (_part_supplier, 0.15),
    (_big_spenders, 0.10),
)

# Public registry mirroring the SDSS one: consumers (drift streams,
# tenant mixes) address makers by name, never by the private functions.
TEMPLATE_REGISTRY = {
    "pricing_summary": _pricing_summary,
    "shipping_window": _shipping_window,
    "order_lineitem_join": _order_lineitem_join,
    "customer_orders": _customer_orders,
    "part_supplier": _part_supplier,
    "big_spenders": _big_spenders,
}


def template(name):
    """The query maker registered under *name* (see TEMPLATE_REGISTRY)."""
    try:
        return TEMPLATE_REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown TPC-H template %r (known: %s)"
            % (name, ", ".join(sorted(TEMPLATE_REGISTRY)))
        ) from None


def tpch_workload(n_queries=15, seed=7):
    """A seeded TPC-H-style decision-support mix."""
    rng = random.Random(seed)
    makers = [t for t, __ in TEMPLATES]
    weights = [w for __, w in TEMPLATES]
    workload = Workload()
    for __ in range(n_queries):
        maker = rng.choices(makers, weights=weights, k=1)[0]
        workload.add(maker(rng))
    return workload
