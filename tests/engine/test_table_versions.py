"""A table version is one immutable object: scans pin it, writers publish.

(a) deterministic interleavings — a write lands *between two conjuncts of
one scan* (or inside a primary-key look-up) and the in-flight statement still
answers from the version it pinned, the next statement from the new one;
(b) a seeded stress of concurrent writers and readers with an invariant that
holds in every version; (c) what a :class:`~repro.engine.storage.TableData`
caches and for how long.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.engine import Database, VectorConfig
from repro.engine.storage import TableData

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import stress_writers  # noqa: E402

MODES = {
    "typed": VectorConfig(typed=True),
    "generic": VectorConfig(typed=False),
}

#: which accessor conjunct 2 (``a``, column 1) is the first to call, per mode
SEAMS = {"typed": "typed_column", "generic": "column_array"}

LOOKUP = "SELECT id, a FROM t WHERE id = 13 AND a > 10"

#: name -> (two-conjunct scan, the write injected between its conjuncts, the
#: scan's answer on the old version, its answer on the version the write
#: leaves).  On late-bound accessors the DELETE makes conjunct 2 index a
#: shorter payload (``IndexError``), the INSERT lets (40, 99, -1) through on
#: conjunct 2 alone (conjunct 1 kept every old row, so the batch was dense),
#: and the UPDATE fails row 23 on a value conjunct 1 never saw next to it.
WRITES = {
    "delete": (
        "SELECT id FROM t WHERE b = 3 AND a > 10",
        "DELETE FROM t WHERE id < 20",
        [13, 23, 33],
        [23, 33],
    ),
    "insert": (
        "SELECT id FROM t WHERE b >= 0 AND a > 32",
        "INSERT INTO t VALUES (40, 99, -1), (41, 99, 3)",
        [33, 34, 35],
        [33, 34, 35, 41],
    ),
    "update": (
        "SELECT id FROM t WHERE b = 3 AND a > 10",
        "UPDATE t SET a = 0 WHERE id = 23",
        [13, 23, 33],
        [13, 33],
    ),
}


def _database(mode: str) -> Database:
    database = Database(vector=MODES[mode])
    database.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, a INTEGER NOT NULL, b INTEGER NOT NULL,"
        " CONSTRAINT pk_t PRIMARY KEY (id))"
    )
    database.insert_rows("t", [(i, i, i % 10) for i in range(36)])
    return database


def _inject(monkeypatch, database: Database, seam: str, column: int, sql: str) -> list:
    """Run ``sql`` once, the first time ``TableData.<seam>(column)`` is
    called — i.e. after the scan pinned its version and judged the conjuncts
    before the one reading ``column``.  Returns the list it logs into."""
    original = getattr(TableData, seam)
    fired: list = []

    def accessor(data: TableData, index: int):
        if index == column and not fired:
            fired.append(sql)
            database.execute(sql)
        return original(data, index)

    monkeypatch.setattr(TableData, seam, accessor)
    return fired


def _ids(database: Database, sql: str) -> list:
    return sorted(row[0] for row in database.query(sql).rows)


class TestInterleavedWrites:
    """(a) a write between two conjuncts of one scan."""

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("mode", SEAMS)
    def test_scan_answers_from_the_version_it_pinned(self, monkeypatch, mode, write):
        database = _database(mode)
        scan, sql, in_flight, afterwards = WRITES[write]
        fired = _inject(monkeypatch, database, SEAMS[mode], 1, sql)
        # conjunct 1 (on b) ran on the old version; the write lands; conjunct
        # 2 (on a, column 1) must run on the old version too
        assert _ids(database, scan) == in_flight
        assert fired == [sql]
        assert _ids(database, scan) == afterwards

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("mode", MODES)
    def test_a_udf_writing_mid_scan_sees_the_pinned_version(self, mode, write):
        """The seam is a UDF in conjunct 2 that writes on its first call."""
        database = _database(mode)
        scan, sql, in_flight, afterwards = WRITES[write]
        fired: list = []

        def poke(value):
            if not fired:
                fired.append(sql)
                database.execute(sql)
            return value

        database.register_python_function("poke", poke)
        assert _ids(database, scan.replace("a >", "poke(a) >")) == in_flight
        assert fired == [sql]
        assert _ids(database, scan) == afterwards

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("mode", MODES)
    def test_key_lookup_answers_from_the_version_it_pinned(self, monkeypatch, mode, write):
        database = _database(mode)
        sql = WRITES[write][1]
        database.execute("UPDATE t SET a = 50 WHERE id = 13")
        # the index is asked for after the look-up pinned its version
        fired = _inject(monkeypatch, database, "hash_index", 0, sql)
        assert database.query(LOOKUP).rows == [(13, 50)]
        assert fired == [sql]
        assert database.query(LOOKUP).rows == ([] if write == "delete" else [(13, 50)])

    @pytest.mark.parametrize("mode", SEAMS)
    def test_update_where_and_set_read_one_version(self, monkeypatch, mode):
        """WHERE reads ``a``; the write lands when SET first reads ``b``
        (column 2).  SET still reads the version WHERE judged, and that
        version, rewritten, is what the UPDATE publishes."""
        database = _database(mode)
        write = "UPDATE t SET b = 100 + b"
        fired = _inject(monkeypatch, database, "column_array", 2, write)
        assert database.execute("UPDATE t SET a = b WHERE a > 30").rowcount == 5
        assert fired == [write]
        rows = sorted(database.query("SELECT id, a, b FROM t").rows)
        assert rows == [(i, i % 10 if i > 30 else i, i % 10) for i in range(36)]

    def test_a_udf_body_plan_cached_across_statements_sees_each_new_version(self):
        """Pinning is per scan, not per plan: a SQL-UDF body plan outlives
        the statement that compiled it and must not keep its first version."""
        database = _database("typed")
        database.register_sql_function("a_of", "SELECT a FROM t WHERE id = $1 AND b = 3")
        assert database.query("SELECT a_of(13)").rows == [(13,)]
        database.execute("UPDATE t SET a = 7 WHERE id = 13")
        assert database.query("SELECT a_of(13)").rows == [(7,)]
        database.execute("DELETE FROM t WHERE id = 13")
        assert database.query("SELECT a_of(13)").rows == [(None,)]


class TestStress:
    """(b) writers that keep an invariant in every version vs. lock-free
    readers: zero exceptions, zero torn answers (see ``tools/stress_writers.py``)."""

    def test_two_writers_two_readers(self):
        totals = stress_writers.run(seconds=1.5, writers=2, readers=2, rows=2000, seed=21)
        assert totals["reads"] > 0 and totals["writes"] > 0
        assert (totals["errors"], totals["torn"]) == (0, 0), totals

    def test_the_tool_reports_and_exits_zero(self, capsys):
        assert stress_writers.main(["--seconds", "0.5", "--rows", "500"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("reads ") and out.rstrip().endswith("errors 0  torn answers 0")

    def test_the_invariant_check_catches_a_torn_answer(self):
        assert not stress_writers.torn((0, None, None, None))
        assert not stress_writers.torn((8, 0, 10, 90))
        for answer in [(7, 0, 10, 90), (8, 3, 10, 90), (8, 0, 11, 90), (0, 0, None, None)]:
            assert stress_writers.torn(answer), answer


class TestTableData:
    """(c) caches belong to one version and are never invalidated."""

    @staticmethod
    def _table(database: Database):
        database.execute("CREATE TABLE c (a INTEGER, s VARCHAR(10))")
        database.insert_rows("c", [(1, "x"), (2, "y")])
        return database.catalog.table("c")

    def test_caches_are_built_once_per_version(self):
        data = self._table(Database()).data
        first = data.typed_column(0)
        assert first is not None and list(first.values) == [1, 2]
        assert data.typed_column(0) is first
        assert data.column_array(1) is data.column_array(1) == ["x", "y"]
        assert data.hash_index(0) is data.hash_index(0) == ({1: (1, "x"), 2: (2, "y")}, True, 2)

    def test_a_refusal_is_cached(self, monkeypatch):
        database = Database()
        table = self._table(database)
        database.insert_rows("c", [(True, "w")])  # destabilize column 0
        data = table.data
        assert data.typed_column(0) is None
        monkeypatch.setattr(
            "repro.engine.storage.build_typed_column",
            lambda *args: pytest.fail("the refusal was not cached"),
        )
        assert data.typed_column(0) is None

    def test_publish_yields_a_new_data_and_the_old_one_keeps_answering(self):
        database = Database()
        table = self._table(database)
        old = table.data
        before = old.typed_column(0)
        database.insert_rows("c", [(3, "z")])
        new = table.data
        assert new is not old and new.rows == old.rows + ((3, "z"),)
        assert (new._columns, new._typed, new._indexes) == ({}, {}, {})
        assert list(new.typed_column(0).values) == [1, 2, 3]
        # the old version is untouched: same rows, same cached payload
        assert old.rows == ((1, "x"), (2, "y"))
        assert old.typed_column(0) is before and list(before.values) == [1, 2]
        assert old.hash_index(0) == ({1: (1, "x"), 2: (2, "y")}, True, 2)

    def test_a_table_exposes_no_late_bound_accessor(self):
        table = self._table(Database())
        for name in ("version", "column_array", "typed_column", "hash_index"):
            assert not hasattr(table, name), name
        with pytest.raises(AttributeError):
            table.rows = ()
        assert type(table.rows) is tuple
