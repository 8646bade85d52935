"""PostgreSQL as an oracle that shares no code with the cost model.

A throwaway cluster in a temporary directory (``initdb -A trust``, a
unix socket only, ``fsync=off``), driven by ``psql -At`` — no Python
client library.  The tables of a repro catalog are created with PostgreSQL
types of the same widths, loaded from ``datagen.generate_database``
rows (``tests/datagen.py``) with ``COPY`` and ``VACUUM ANALYZE``d (the
vacuum sets the visibility map, without which PostgreSQL costs an
index-only scan as heap fetches); the same rows are mirrored into the
catalog's statistics with ``datagen.TableData.analyze_into``, our
``ANALYZE``, so both sides estimate from the same data.

Used by ``tests/test_pg_oracle.py``; :func:`find_bindir` is ``None``
where no PostgreSQL is installed, and the tests skip.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import tempfile

PG_TYPES = {
    "smallint": "smallint", "int": "integer", "bigint": "bigint",
    "float": "real", "double": "double precision", "bool": "boolean",
    "date": "integer", "timestamp": "bigint", "text": "text",
}
_ROWS = re.compile(r"rows=(\d+)")


def find_bindir():
    """The newest PostgreSQL server binaries, or ``None``."""
    found = sorted(glob.glob("/usr/lib/postgresql/*/bin/pg_ctl"))
    if not found and shutil.which("pg_ctl"):
        found = [shutil.which("pg_ctl")]
    return os.path.dirname(found[-1]) if found else None


class Cluster:
    """One throwaway cluster; :meth:`stop` in a ``finally``."""

    def __init__(self, bindir):
        self.bindir = bindir
        self.dir = tempfile.mkdtemp(prefix="pg-oracle-")
        # The server refuses to run as root: hand the directory to the
        # postgres user and run the server tools as it.
        self.user = "postgres" if os.geteuid() == 0 else None
        if self.user:
            shutil.chown(self.dir, self.user)
        self.data = os.path.join(self.dir, "data")

    def _tool(self, name, *args):
        cmd = [os.path.join(self.bindir, name), *args]
        if self.user:
            cmd = ["runuser", "-u", self.user, "--", *cmd]
        subprocess.run(cmd, cwd=self.dir, check=True, capture_output=True,
                       timeout=60)

    def start(self):
        self._tool("initdb", "-A", "trust", "-U", "postgres", "--no-sync",
                   "-D", self.data)
        options = ("-k %s -c listen_addresses='' -c fsync=off "
                   "-c full_page_writes=off -c synchronous_commit=off"
                   % self.dir)
        self._tool("pg_ctl", "-D", self.data, "-o", options, "-w",
                   "-l", os.path.join(self.dir, "log"), "start")

    def stop(self):
        try:
            self._tool("pg_ctl", "-D", self.data, "-m", "immediate", "stop")
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    def psql(self, script):
        """Run *script*; its output lines (``-At``: bare values)."""
        out = subprocess.run(
            [os.path.join(self.bindir, "psql"), "-h", self.dir, "-U",
             "postgres", "-d", "postgres", "-At", "-q", "-v",
             "ON_ERROR_STOP=1", "-f", "-"],
            input=script, check=True, capture_output=True, text=True,
            timeout=60,
        )
        return out.stdout.splitlines()

    def load(self, catalog, database):
        """Create, ``COPY`` and ``VACUUM ANALYZE`` every table of *catalog* from
        *database*, and mirror the rows into the catalog's statistics."""
        script = []
        for table in catalog.tables:
            data = database.table(table.name)
            columns = ", ".join(
                "%s %s" % (c.name, PG_TYPES[c.dtype.value])
                for c in table.columns
            )
            script.append("CREATE TABLE %s (%s);" % (table.name, columns))
            script.append("COPY %s FROM STDIN;" % table.name)
            values = [data.columns[c.name] for c in table.columns]
            for row in zip(*values):
                script.append("\t".join(
                    r"\N" if v is None else repr(v) for v in row
                ))
            script.append(r"\.")
            data.analyze_into(table)
        script.append("VACUUM ANALYZE;")
        self.psql("\n".join(script) + "\n")

    def estimates(self, queries):
        """``(PostgreSQL's Plan Rows, count(*))`` per ``(table,
        predicate)`` pair, in one round trip."""
        script = []
        for table, predicate in queries:
            script.append(r"\echo @@")
            script.append("EXPLAIN SELECT * FROM %s WHERE %s;"
                          % (table, predicate))
            script.append("SELECT count(*) FROM %s WHERE %s;"
                          % (table, predicate))
        blocks = "\n".join(self.psql("\n".join(script) + "\n")).split("@@")
        out = []
        for block in blocks[1:]:
            lines = block.strip().splitlines()
            out.append((int(_ROWS.search(lines[0]).group(1)), int(lines[-1])))
        return out

    def index_pages(self, indexes):
        """``pg_relation_size / 8192`` of each ``(table, column)`` index;
        each is dropped once measured, so no later query sees it."""
        script = []
        for n, (table, column) in enumerate(indexes):
            script.append("CREATE INDEX ix%d ON %s (%s);" % (n, table, column))
            script.append("SELECT pg_relation_size('ix%d') / 8192;" % n)
            script.append("DROP INDEX ix%d;" % n)
        return [int(line) for line in self.psql("\n".join(script) + "\n")]

    def scan_choices(self, settings, cases):
        """Per ``(table, predicate, column)``: ``(scan class, total cost
        without the index, total cost with it)`` of ``SELECT *`` under
        PostgreSQL's planner, its cost GUCs set to *settings*' constants
        and parallel plans off.  The single-column btree on *column*
        exists only inside a rolled-back transaction, so it is the one
        index the planner sees."""
        script = guc_script(settings)
        for table, pred, column in cases:
            query = "EXPLAIN (FORMAT JSON) SELECT * FROM %s WHERE %s;" % (
                table, pred)
            script += [r"\echo @@", query, "BEGIN;",
                       "CREATE INDEX oracle_scan ON %s (%s);" % (table, column),
                       r"\echo ##", query, "ROLLBACK;"]
        blocks = "\n".join(self.psql("\n".join(script) + "\n")).split("@@")
        out = []
        for block in blocks[1:]:
            without, with_index = (json.loads(part)[0]["Plan"]
                                   for part in block.split("##"))
            out.append((SCAN_CLASSES[with_index["Node Type"]],
                        without["Total Cost"], with_index["Total Cost"]))
        return out

    def design_costs(self, settings, cases):
        """Per ``(sql, indexes)``: PostgreSQL's total cost of *sql* with
        no index, then with each ``(table, columns, include)`` of
        *indexes* alone, its cost GUCs set as in :meth:`scan_choices`.
        Each index exists only inside a rolled-back transaction."""
        script = guc_script(settings)
        for sql, indexes in cases:
            query = "EXPLAIN (FORMAT JSON) %s;" % sql
            script += [r"\echo @@", query]
            for table, columns, include in indexes:
                ddl = "CREATE INDEX oracle_rank ON %s (%s)%s;" % (
                    table, ", ".join(columns),
                    " INCLUDE (%s)" % ", ".join(include) if include else "")
                script += ["BEGIN;", ddl, r"\echo ##", query, "ROLLBACK;"]
        blocks = "\n".join(self.psql("\n".join(script) + "\n")).split("@@")
        return [[json.loads(part)[0]["Plan"]["Total Cost"]
                 for part in block.split("##")] for block in blocks[1:]]


# PostgreSQL node type -> the scan class both planners are compared on.
SCAN_CLASSES = {
    "Seq Scan": "seq", "Index Scan": "index", "Index Only Scan": "index",
    "Bitmap Heap Scan": "bitmap",
}


def guc_script(settings):
    """``SET`` lines giving PostgreSQL *settings*' cost constants and
    ``enable_*`` flags; the scan, sort and materialize flags this
    planner does not have keep PostgreSQL's default, on.
    ``effective_cache_size`` keeps its default
    (4GB): above every table here, PostgreSQL's ``index_pages_fetched``
    is the plain Mackert–Lohman estimate ``paths.mackert_lohman_pages``
    states.  This planner has no parallel plans, so neither may
    PostgreSQL."""
    lines = ["SET %s = %r;" % (name, getattr(settings, name)) for name in (
        "seq_page_cost", "random_page_cost", "cpu_tuple_cost",
        "cpu_index_tuple_cost", "cpu_operator_cost")]
    lines += ["SET %s = %s;" % (name, "on" if getattr(settings, name)
                                else "off") for name in (
        "enable_bitmapscan", "enable_nestloop", "enable_hashjoin",
        "enable_mergejoin")]
    lines += ["SET work_mem = '%dkB';" % (settings.work_mem // 1024),
              "SET max_parallel_workers_per_gather = 0;"]
    return lines


def predicate(filters):
    """SQL text of a conjunction of bound filters on one table."""
    terms = []
    for f in filters:
        col = f.column
        if f.kind == "eq":
            terms.append("%s = %r" % (col, f.value))
        elif f.kind == "ne":
            terms.append("%s <> %r" % (col, f.value))
        elif f.kind == "in":
            terms.append("%s IN (%s)" % (col, ", ".join(map(repr, f.values))))
        elif f.kind == "isnull":
            terms.append("%s IS NULL" % col)
        elif f.kind == "notnull":
            terms.append("%s IS NOT NULL" % col)
        else:
            if f.low is not None:
                terms.append("%s %s %r" % (
                    col, ">=" if f.low_inclusive else ">", f.low))
            if f.high is not None:
                terms.append("%s %s %r" % (
                    col, "<=" if f.high_inclusive else "<", f.high))
    return " AND ".join(terms) or "true"
