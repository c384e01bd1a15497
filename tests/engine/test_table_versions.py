"""A table version is one immutable object: scans pin it, writers publish.

(a) deterministic interleavings — a write lands *between two conjuncts of
one scan* (or inside a primary-key look-up) and the in-flight statement still
answers from the version it pinned, the next statement from the new one;
(b) a seeded stress of concurrent writers and readers with an invariant that
holds in every version; (c) what a :class:`~repro.engine.storage.TableData`
caches and for how long, and that a write derives the next version's caches
from the version it read: every derived entry equals a fresh build of the
new rows, and the version read keeps its own.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.storage import TableData
from repro.errors import ConstraintViolation
from repro.sql.types import Date
from tests.conftest import KERNEL_LEGS, kernel_leg

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import stress_writers  # noqa: E402

#: which accessor conjunct 2 (``a``, column 1) is the first to call, per leg
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


def _database() -> Database:
    database = Database()
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


def _stale_entries(data: TableData) -> list:
    """The cached column lists, typed payloads and hash indexes of ``data``
    (only those it holds; nothing is built) that differ from a fresh build
    of its rows."""
    fresh = TableData(data.schema, data.rows)
    stale = [
        ("column", index)
        for index, column in data._columns.copy().items()
        if stress_writers.cells(column) != stress_writers.cells(fresh.column_array(index))
    ]
    stale += [
        ("typed", index)
        for index, typed in data._typed.copy().items()
        if stress_writers.payload(typed) != stress_writers.payload(fresh.typed_column(index))
    ]
    stale += [
        ("index", columns)
        for columns, index in data.indexes.copy().items()
        if index != fresh.hash_index(*columns)
    ]
    return stale


def _warm(data: TableData) -> None:
    """Fill the caches a write can derive from: columns 0 and 1, lists
    and typed payloads (column 2, ``b``, stays cold for the seams)."""
    for index in (0, 1):
        data.column_array(index)
        data.typed_column(index)


class TestInterleavedWrites:
    """(a) a write between two conjuncts of one scan."""

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("mode", SEAMS)
    def test_scan_answers_from_the_version_it_pinned(self, monkeypatch, mode, write):
        database = _database()
        scan, sql, in_flight, afterwards = WRITES[write]
        fired = _inject(monkeypatch, database, SEAMS[mode], 1, sql)
        # conjunct 1 (on b) ran on the old version; the write lands; conjunct
        # 2 (on a, column 1) must run on the old version too
        with kernel_leg(mode):
            assert _ids(database, scan) == in_flight
        assert fired == [sql]
        assert _ids(database, scan) == afterwards

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("mode", KERNEL_LEGS)
    def test_a_udf_writing_mid_scan_sees_the_pinned_version(self, mode, write):
        """The seam is a UDF in conjunct 2 that writes on its first call."""
        database = _database()
        scan, sql, in_flight, afterwards = WRITES[write]
        fired: list = []

        def poke(value):
            if not fired:
                fired.append(sql)
                database.execute(sql)
            return value

        database.register_python_function("poke", poke)
        with kernel_leg(mode):
            assert _ids(database, scan.replace("a >", "poke(a) >")) == in_flight
        assert fired == [sql]
        assert _ids(database, scan) == afterwards

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("mode", KERNEL_LEGS)
    def test_key_lookup_answers_from_the_version_it_pinned(self, monkeypatch, mode, write):
        database = _database()
        sql = WRITES[write][1]
        database.execute("UPDATE t SET a = 50 WHERE id = 13")
        # the index is asked for after the look-up pinned its version
        fired = _inject(monkeypatch, database, "hash_index", 0, sql)
        with kernel_leg(mode):
            assert database.query(LOOKUP).rows == [(13, 50)]
        assert fired == [sql]
        assert database.query(LOOKUP).rows == ([] if write == "delete" else [(13, 50)])

    @pytest.mark.parametrize("mode", SEAMS)
    def test_update_where_and_set_read_one_version(self, monkeypatch, mode):
        """WHERE reads ``a``; the write lands when SET first reads ``b``
        (column 2).  SET still reads the version WHERE judged, and that
        version, rewritten, is what the UPDATE publishes."""
        database = _database()
        write = "UPDATE t SET b = 100 + b"
        fired = _inject(monkeypatch, database, "column_array", 2, write)
        with kernel_leg(mode):
            assert database.execute("UPDATE t SET a = b WHERE a > 30").rowcount == 5
        assert fired == [write]
        rows = sorted(database.query("SELECT id, a, b FROM t").rows)
        assert rows == [(i, i % 10 if i > 30 else i, i % 10) for i in range(36)]
        assert _stale_entries(database.catalog.table("t").data) == []

    @pytest.mark.parametrize(
        "statement, seams, count, expected",
        [
            (
                "DELETE FROM t WHERE a > 30 AND b < 5",
                SEAMS,
                4,
                [(i, i, i % 10) for i in range(36) if not 30 < i < 35],
            ),
            (
                "INSERT INTO t SELECT id + 100, b, a FROM t WHERE a > 30",
                dict.fromkeys(SEAMS, "column_array"),
                5,
                [(i, i, i % 10) for i in range(36)] + [(i + 100, i % 10, i) for i in range(31, 36)],
            ),
        ],
        ids=["delete", "insert-select"],
    )
    @pytest.mark.parametrize("mode", SEAMS)
    def test_delete_and_insert_select_read_one_version(
        self, monkeypatch, mode, statement, seams, count, expected
    ):
        """The write lands when the statement first reads ``b`` (the DELETE
        through a conjunct, the INSERT's SELECT through its projection):
        what it publishes derives from the version it read, not from the
        nested write's, and its derived caches equal a fresh build of its
        rows."""
        database = _database()
        _warm(database.catalog.table("t").data)
        write = "UPDATE t SET b = 100 + b"
        fired = _inject(monkeypatch, database, seams[mode], 2, write)
        with kernel_leg(mode):
            assert database.execute(statement).rowcount == count
        assert fired == [write]
        data = database.catalog.table("t").data
        assert sorted(data.rows) == expected
        assert data._columns and _stale_entries(data) == []

    @pytest.mark.parametrize("mode", KERNEL_LEGS)
    def test_dml_applies_where_conjuncts_in_order_like_select(self, mode):
        """``boom`` raises on the rows ``b <> 0`` drops; the SELECT never
        calls it on them, and neither do UPDATE and DELETE."""
        database = _database()

        def boom(a):
            if a % 10 == 0:
                raise ValueError(f"boom({a}) evaluated on a row the first conjunct dropped")
            return a

        database.register_python_function("boom", boom)
        where = "WHERE b <> 0 AND boom(a) > 0"
        with kernel_leg(mode):
            assert len(database.query(f"SELECT id FROM t {where}").rows) == 32
            assert database.execute(f"UPDATE t SET a = a + 100 {where}").rowcount == 32
            assert database.execute(f"DELETE FROM t {where}").rowcount == 32
            with pytest.raises(ValueError, match="boom"):
                database.execute("DELETE FROM t WHERE boom(a) > 0")
        assert sorted(database.query("SELECT id, a FROM t").rows) == [
            (i, i) for i in range(0, 36, 10)
        ]

    def test_a_udf_body_plan_cached_across_statements_sees_each_new_version(self):
        """Pinning is per scan, not per plan: a SQL-UDF body plan outlives
        the statement that compiled it and must not keep its first version."""
        database = _database()
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
        assert (totals["errors"], totals["torn"], totals["stale"]) == (0, 0, 0), totals

    def test_a_streamed_read_is_judged_on_the_rows_it_pulled(self):
        group = [(7, 10), (-7, 90), (3, 50), (-3, 50)]
        assert not stress_writers.torn_rows([]) and not stress_writers.torn_rows(group)
        assert stress_writers.torn_rows(group[1:])  # a row short: count
        assert stress_writers.torn_rows([(7, 10), (7, 90), (3, 50), (-3, 50)])  # sum
        assert stress_writers.torn_rows([(7, 10), (-7, 91), (3, 50), (-3, 50)])  # b range

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
        assert _stale_entries(new) == [] and new._indexes == {}
        assert list(new.typed_column(0).values) == [1, 2, 3]
        # the old version is untouched: same rows, same cached payload
        assert old.rows == ((1, "x"), (2, "y"))
        assert old.typed_column(0) is before and list(before.values) == [1, 2]
        assert old.hash_index(0) == ({1: (1, "x"), 2: (2, "y")}, True, 2)

    def test_a_derivation_leaves_unbuilt_what_it_cannot_derive(self):
        """A refusal a replace or remove may lift, and a ``parsed`` DATE
        payload, are left to the lazy build; append keeps a refusal."""
        database = Database()
        database.execute("CREATE TABLE v (id INTEGER NOT NULL, dt DATE NOT NULL, n INTEGER)")
        database.insert_rows(
            "v", [(0, "1996-03-04", True), (1, Date(1996, 1, 1), 1), (2, Date(1997, 1, 1), 2)]
        )
        table = database.catalog.table("v")
        parsed, integer = ("date", True), ("int", False)
        for statement, derived in [
            ("UPDATE v SET dt = DATE '1996-02-02', n = 0 WHERE id = 0", {0: integer}),
            ("INSERT INTO v VALUES (3, '1998-01-01', NULL)", {0: integer, 1: parsed, 2: None}),
            ("DELETE FROM v WHERE id = 0", {0: integer}),
        ]:
            data = table.data
            warmed = [data.typed_column(index) for index in range(3)]
            assert warmed[0] is not None and warmed[1].kind == "date"
            database.execute(statement)
            typed = table.data._typed
            assert {i: t and (t.kind, t.parsed) for i, t in typed.items()} == derived, statement
            assert _stale_entries(table.data) == []
        lazy = table.data.typed_column(1)  # built over (date, date, ISO string)
        assert (lazy.kind, lazy.parsed) == parsed

    def test_a_table_exposes_no_late_bound_accessor(self):
        table = self._table(Database())
        for name in ("version", "column_array", "typed_column", "hash_index"):
            assert not hasattr(table, name), name
        with pytest.raises(AttributeError):
            table.rows = ()
        assert type(table.rows) is tuple


#: one column per (type, nullability) pair; ``id`` keys the WHERE clauses
DERIVED_DDL = (
    "CREATE TABLE p (id INTEGER NOT NULL, n INTEGER, d DECIMAL NOT NULL, x DECIMAL,"
    " dt DATE NOT NULL, dn DATE, s VARCHAR(10) NOT NULL, sn VARCHAR(10))"
)
DERIVED_COLUMNS = ("id", "n", "d", "x", "dt", "dn", "s", "sn")
NOT_NULL = {"id", "d", "dt", "s"}

#: per SQL type, values every payload takes
CLEAN = {
    "INTEGER": (0, 7, -3, 12, 40),
    "DECIMAL": (0.5, -2.25, 1024.0, 7.75),
    "DATE": (Date(1996, 1, 1), Date(1998, 12, 1), Date(1994, 6, 30)),
    "VARCHAR": ("a", "b", ""),
}
#: and values a typed payload must take or refuse exactly as a fresh build
#: would: ``True`` and ``2**63`` in an INTEGER column, an ``int`` in a
#: DECIMAL one, ISO strings (one that does not parse) in a DATE one
HOSTILE = {
    "INTEGER": (True, 2**63),
    "DECIMAL": (3,),
    "DATE": ("1996-03-04", "1997-07-07", "not a date"),
    "VARCHAR": ("it's",),
}
TYPES = ("INTEGER", "INTEGER", "DECIMAL", "DECIMAL", "DATE", "DATE", "VARCHAR", "VARCHAR")

CONJUNCTS = st.one_of(
    st.builds("id >= {}".format, st.integers(0, 12)),
    st.builds("id <= {}".format, st.integers(0, 12)),
    st.builds("id <> {}".format, st.integers(0, 12)),
    st.sampled_from(["n IS NULL", "sn IS NOT NULL", "s = 'a'", "d > 0.0"]),
)


def _hostile(column: int, nulls: bool):
    """A hostile value for ``column``: NULL too where the column allows
    it, or (``nulls``) in a NOT NULL column, for a refused write."""
    values = HOSTILE[TYPES[column]]
    if nulls or DERIVED_COLUMNS[column] not in NOT_NULL:
        values += (None,)
    return st.sampled_from(values)


@st.composite
def _value(draw, column: int):
    """Mostly a clean value for ``column``, one time in four a hostile one."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_hostile(column, True))
    return draw(st.sampled_from(CLEAN[TYPES[column]]))


@st.composite
def _row(draw, nulls: bool = True):
    """A clean row, one time in four with one hostile value."""
    row = [draw(st.sampled_from(CLEAN[kind])) for kind in TYPES]
    if draw(st.integers(0, 3)) == 0:
        column = draw(st.integers(0, len(TYPES) - 1))
        row[column] = draw(_hostile(column, nulls))
    return tuple(row)


OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), st.lists(_row(), min_size=1, max_size=5)),
    st.tuples(st.just("load"), st.lists(_row(nulls=False), min_size=1, max_size=5)),
    st.tuples(
        st.just("update"),
        st.lists(
            st.integers(0, len(TYPES) - 1).flatmap(
                lambda column: st.tuples(st.just(column), _value(column))
            ),
            min_size=1,
            max_size=2,
        ),
        st.lists(CONJUNCTS, min_size=1, max_size=3),
    ),
    st.tuples(st.just("delete"), st.lists(CONJUNCTS, min_size=1, max_size=3)),
    st.tuples(
        st.just("warm"),
        st.lists(st.tuples(st.integers(0, len(TYPES) - 1), st.booleans()), min_size=1, max_size=8),
    ),
)


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, Date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _statement(operation: tuple) -> str:
    kind = operation[0]
    if kind == "insert":
        rows = ", ".join("(" + ", ".join(map(_literal, row)) + ")" for row in operation[1])
        return f"INSERT INTO p VALUES {rows}"
    where = " AND ".join(operation[-1])
    if kind == "update":
        sets = ", ".join(f"{DERIVED_COLUMNS[c]} = {_literal(v)}" for c, v in operation[1])
        return f"UPDATE p SET {sets} WHERE {where}"
    return f"DELETE FROM p WHERE {where}"


def _snapshot(data: TableData) -> tuple:
    """What ``data`` holds, in a form a later write must leave equal."""
    return (
        data.rows,
        {index: stress_writers.cells(column) for index, column in data._columns.copy().items()},
        {index: stress_writers.payload(typed) for index, typed in data._typed.copy().items()},
    )


class TestDerivedCaches:
    """(c) a write's new version derives its caches from the one it read."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed_rows=st.lists(_row(nulls=False), min_size=0, max_size=8),
        operations=st.lists(OPERATIONS, min_size=1, max_size=12),
    )
    def test_every_derived_cache_equals_a_fresh_build(self, seed_rows, operations):
        database = Database()
        database.execute(DERIVED_DDL)
        table = database.catalog.table("p")
        database.insert_rows("p", seed_rows)
        for operation in operations:
            base = table.data
            if operation[0] == "warm":
                for column, typed in operation[1]:
                    base.typed_column(column) if typed else base.column_array(column)
                database.query("SELECT COUNT(*) FROM p WHERE id >= 3 AND d > 0.0")
                continue
            before = _snapshot(base)
            try:
                if operation[0] == "load":
                    database.insert_rows("p", operation[1])
                else:
                    database.execute(_statement(operation))
            except ConstraintViolation:
                assert table.data is base  # a refused write publishes nothing
            else:
                assert table.data is not base
                assert _stale_entries(table.data) == [], _statement(operation)
            # the version read keeps its rows and the entries it had; the
            # write's own scan may have added some, built from those rows
            rows, columns, typed = _snapshot(base)
            assert rows is before[0]
            assert {i: columns[i] for i in before[1]} == before[1]
            assert {i: typed[i] for i in before[2]} == before[2]
            assert _stale_entries(base) == []
