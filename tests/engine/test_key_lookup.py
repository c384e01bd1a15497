"""Point statements through the primary-key index.

(i) conjuncts that fix every key column — ``=`` either way round, a one-item
``IN`` — make a SELECT, UPDATE or DELETE probe the table version's index and
read no column of it; (ii) a probe value the scan would refuse or coerce
leaves the statement to the scan, so the outcome (rows or error) is the
scan's; (iii) a property: over a random history of statements, a keyed
table answers and publishes exactly what a key-less twin (always scanned)
does, and every index a write derived equals a fresh build; (iv) on MT-H
``orders``, keyed on ``(o_ttid, o_orderkey)``, the served point read and
keyed writes read no column list or typed payload, and every write publishes
a version that already holds the key's index.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.storage import TableData
from repro.errors import TypeMismatchError
from repro.mth import load_mth
from repro.sql.types import Date

from test_table_versions import _stale_entries

KEYED = {
    "single": "CREATE TABLE {} (a INTEGER NOT NULL, b INTEGER, v INTEGER NOT NULL,"
    " w VARCHAR(4), PRIMARY KEY (a))",
    "composite": "CREATE TABLE {} (a INTEGER NOT NULL, b INTEGER, v INTEGER NOT NULL,"
    " w VARCHAR(4), PRIMARY KEY (a, b))",
}
TWIN = "CREATE TABLE {} (a INTEGER NOT NULL, b INTEGER, v INTEGER NOT NULL, w VARCHAR(4))"


def _keyed_database(shape: str, rows) -> Database:
    database = Database()
    database.execute(KEYED[shape].format("t"))
    database.insert_rows("t", rows)
    return database


def _no_column_reads(monkeypatch, data: TableData) -> None:
    """Fail on any column list or typed payload asked of ``data``."""
    for name in ("column_array", "typed_column"):
        original = getattr(TableData, name)

        def accessor(self, index, original=original, name=name):
            assert self is not data, f"{name}({index}) read the version a look-up pinned"
            return original(self, index)

        monkeypatch.setattr(TableData, name, accessor)


class TestLookups:
    """(i) which statements probe the index."""

    ROWS = [(i, i % 3, i * 10, "x" if i % 2 else None) for i in range(30)]

    @pytest.mark.parametrize(
        "shape, where, expected",
        [
            ("single", "a = 7", [(7, 1, 70, "x")]),
            ("single", "7 = a AND v > 0", [(7, 1, 70, "x")]),
            ("single", "a IN (7) AND w IS NULL", []),
            ("composite", "b = 1 AND a = 7", [(7, 1, 70, "x")]),
            ("composite", "a IN (7) AND b IN (1) AND v = 70", [(7, 1, 70, "x")]),
            ("composite", "a = 7 AND b = 2", []),
            ("composite", "a = 7 AND b = NULL", []),
            ("composite", "a = 7.0 AND b = TRUE", [(7, 1, 70, "x")]),
        ],
    )
    def test_a_fixed_key_probes_the_index(self, monkeypatch, shape, where, expected):
        database = _keyed_database(shape, self.ROWS)
        data = database.catalog.table("t").data
        _no_column_reads(monkeypatch, data)
        assert database.query(f"SELECT * FROM t WHERE {where}").rows == expected

    @pytest.mark.parametrize("shape", KEYED)
    def test_keyed_dml_finds_its_row_through_the_index(self, monkeypatch, shape):
        database = _keyed_database(shape, self.ROWS)
        table = database.catalog.table("t")
        key = "a = 7" if shape == "single" else "a = 7 AND b = 1"
        database.query(f"SELECT * FROM t WHERE {key}")  # build the index
        _no_column_reads(monkeypatch, table.data)
        assert database.execute(f"UPDATE t SET v = v + 1 WHERE {key}").rowcount == 1
        assert database.execute(f"UPDATE t SET v = 0 WHERE {key} AND v > 100").rowcount == 0
        _no_column_reads(monkeypatch, table.data)
        assert database.execute(f"DELETE FROM t WHERE {key} AND w = 'x'").rowcount == 1
        assert table.data.rows == tuple(row for row in self.ROWS if row[0] != 7)
        assert _stale_entries(table.data) == []

    def test_keyed_dml_over_a_repeated_key_scans_and_builds_no_index(self):
        rows = [*self.ROWS, (7, 1, 71, "y")]  # the key (7, 1) loaded twice
        database = _keyed_database("composite", rows)
        table = database.catalog.table("t")
        base = table.data
        assert database.execute("UPDATE t SET v = v + 1 WHERE a = 7 AND b = 1").rowcount == 2
        assert base.indexes == {} and table.data.indexes == {}
        database.query("SELECT * FROM t WHERE a = 7 AND b = 1")  # the non-unique index
        assert not table.data.hash_index(0, 1).unique
        assert database.execute("DELETE FROM t WHERE a = 7 AND b = 1").rowcount == 2
        assert table.data.indexes == {}
        assert table.data.rows == tuple(row for row in self.ROWS if row[0] != 7)

    @pytest.mark.parametrize(
        "where",
        [
            "a = v",  # the value reads the table
            "a > 7",  # not an equality
            "a IN (7, 8)",  # more than one item
            "b = 1",  # not the whole composite key
        ],
    )
    def test_conjuncts_that_do_not_fix_the_key_scan(self, where):
        database = _keyed_database("composite", self.ROWS)
        database.query(f"SELECT * FROM t WHERE {where}")
        assert database.catalog.table("t").data.indexes == {}

    def test_an_outer_column_of_the_same_name_is_not_the_key(self):
        database = _keyed_database("single", self.ROWS)
        database.execute(TWIN.format("s"))
        database.insert_rows("s", [(7, 0, 0, None), (8, 0, 0, None)])
        rows = database.query(
            "SELECT s.a FROM s WHERE EXISTS (SELECT 1 FROM t WHERE s.a = 7 AND t.v = 10)"
        ).rows
        assert rows == [(7,)]


class TestProbeTypes:
    """(ii) a look-up never changes a statement's outcome."""

    @pytest.mark.parametrize("shape", KEYED)
    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT a FROM t WHERE {key}",
            "UPDATE t SET v = 0 WHERE {key}",
            "DELETE FROM t WHERE {key}",
        ],
    )
    @pytest.mark.parametrize("fixed", ["a = '5'", "a IN ('5')"])
    def test_a_value_the_scan_refuses_raises_as_on_a_non_key_column(
        self, shape, statement, fixed
    ):
        database = _keyed_database(shape, TestLookups.ROWS)
        key = fixed if shape == "single" else f"b = 2 AND {fixed}"
        with pytest.raises(TypeMismatchError, match="cannot compare int with str"):
            database.execute(statement.format(key=key))
        with pytest.raises(TypeMismatchError, match="cannot compare int with str"):
            database.execute(statement.format(key=key.replace("a ", "v ")))
        assert database.catalog.table("t").data.rows == tuple(TestLookups.ROWS)

    def test_a_string_against_a_date_key_is_parsed_as_the_scan_does(self):
        database = Database()
        database.execute("CREATE TABLE d (day DATE NOT NULL, n INTEGER, PRIMARY KEY (day))")
        database.insert_rows("d", [(Date(1996, 1, 2), 1), (Date(1996, 1, 3), 2)])
        for where in ("day = '1996-01-03'", "day = DATE '1996-01-03'"):
            assert database.query(f"SELECT n FROM d WHERE {where}").rows == [(2,)]

    def test_a_key_with_a_date_column_makes_no_look_up(self):
        database = Database()
        database.execute("CREATE TABLE d (day DATE NOT NULL, n INTEGER, PRIMARY KEY (day))")
        database.execute("INSERT INTO d VALUES ('1996-01-03', 2)")
        database.query("SELECT n FROM d WHERE day = DATE '1996-01-03'")
        assert database.catalog.table("d").data.indexes == {}


# -- (iii) look-up == scan --------------------------------------------------------

#: stored key values: ``TRUE`` and ``2.0`` are the keys 1 and 2 to a scan
#: and to the index alike, so they repeat those keys
A_VALUES = (0, 1, 2, 3, True, 2.0)
B_VALUES = (0, 1, None)
#: probe values against the INTEGER key columns: NULL, TRUE, floats (one
#: that no key equals) and a string the scan refuses
PROBES = ("0", "1", "2", "3", "NULL", "TRUE", "2.0", "2.5", "'1'")
RESIDUALS = ("v > 20", "v <= 20", "w = 'x'", "w IS NULL", "v <> 10")


@st.composite
def _fixed(draw, column: str) -> str:
    value = draw(st.sampled_from(PROBES))
    form = draw(st.integers(0, 2))
    if form == 0:
        return f"{column} = {value}"
    if form == 1:
        return f"{value} = {column}"
    return f"{column} IN ({value})"


@st.composite
def _where(draw, shape: str) -> str:
    """Conjuncts fixing the key (usually), residual ones, in any order."""
    conjuncts = [draw(_fixed("a"))]
    if shape == "composite" and draw(st.integers(0, 5)) > 0:
        conjuncts.append(draw(_fixed("b")))
    conjuncts += draw(st.lists(st.sampled_from(RESIDUALS), max_size=2))
    return " AND ".join(draw(st.permutations(conjuncts)))


_ROW = st.tuples(
    st.sampled_from(A_VALUES),
    st.sampled_from(B_VALUES),
    st.sampled_from((10, 20, 30)),
    st.sampled_from(("x", "y", None)),
)


def _literal(value) -> str:
    return "NULL" if value is None else repr(value).replace("True", "TRUE")


@st.composite
def _statement(draw, shape: str):
    kind = draw(st.sampled_from(("select", "select", "update", "delete", "insert", "load")))
    if kind == "load":
        return ("load", draw(st.lists(_ROW, min_size=1, max_size=3)))
    if kind == "insert":
        rows = draw(st.lists(_ROW, min_size=1, max_size=2))
        values = ", ".join("(" + ", ".join(map(_literal, row)) + ")" for row in rows)
        return ("sql", f"INSERT INTO {{}} VALUES {values}")
    where = draw(_where(shape))
    if kind == "select":
        return ("sql", f"SELECT a, b, v, w FROM {{}} WHERE {where}")
    if kind == "delete":
        return ("sql", f"DELETE FROM {{}} WHERE {where}")
    assignment = draw(st.sampled_from(("v = v + 1", "w = 'z'", "a = 3", "b = NULL")))
    return ("sql", f"UPDATE {{}} SET {assignment} WHERE {where}")


def _outcome(database: Database, operation: tuple, table: str):
    """What ``operation`` does to ``table``: its rows or row count, or the
    error it raised (type and message)."""
    try:
        if operation[0] == "load":
            return database.insert_rows(table, operation[1])
        result = database.execute(operation[1].format(table))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return (type(exc), str(exc))
    return _answer(result)


def _answer(result):
    """A SELECT's rows, or another statement's row count."""
    rows = getattr(result, "rows", None)
    return result.rowcount if rows is None else rows


class TestLookupEqualsScan:
    """(iii) a keyed table and its key-less twin agree on every statement."""

    @pytest.mark.parametrize("shape", KEYED)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_every_statement_answers_and_publishes_as_the_scan(self, shape, data):
        database = Database()
        database.execute(KEYED[shape].format("t"))
        database.execute(TWIN.format("s"))
        seed = data.draw(st.lists(_ROW, max_size=8), label="seed")
        database.insert_rows("t", seed)
        database.insert_rows("s", seed)
        keyed = database.catalog.table("t")
        scanned = database.catalog.table("s")
        for _ in range(data.draw(st.integers(1, 12), label="statements")):
            operation = data.draw(_statement(shape), label="operation")
            base = keyed.data
            assert _outcome(database, operation, "t") == _outcome(database, operation, "s")
            assert keyed.data.rows == scanned.data.rows, operation
            assert _stale_entries(keyed.data) == [], operation
            assert _stale_entries(base) == []


    #: DATE keys (one column, or a part of two) whose cells are the ISO
    #: strings an INSERT stores, probed by a ``Date``, by a string and by NULL
    DATE_KEYS = {"single": ("day", (0,)), "composite": ("n, day", (1, 0))}

    @pytest.mark.parametrize("shape", DATE_KEYS)
    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT day, n FROM {} WHERE {}",
            "UPDATE {} SET n = n + 10 WHERE {}",
            "DELETE FROM {} WHERE {}",
        ],
    )
    @pytest.mark.parametrize(
        "day", ["DATE '1996-01-03'", "'1996-01-03'", "DATE '1996-01-04'", "NULL"]
    )
    def test_a_date_key_of_iso_strings_answers_as_the_scan(self, shape, statement, day):
        key, columns = self.DATE_KEYS[shape]
        database = Database()
        database.execute(
            f"CREATE TABLE t (day DATE NOT NULL, n INTEGER NOT NULL, PRIMARY KEY ({key}))"
        )
        database.execute("CREATE TABLE s (day DATE NOT NULL, n INTEGER NOT NULL)")
        for name in "ts":
            database.execute(f"INSERT INTO {name} VALUES ('1996-01-02', 1), ('1996-01-03', 2)")
        keyed = database.catalog.table("t")
        keyed.data.hash_index(*columns)  # an index a join could have built
        where = f"day = {day}" if shape == "single" else f"n = 2 AND day = {day}"
        answers = [_answer(database.execute(statement.format(name, where))) for name in "ts"]
        assert answers[0] == answers[1]
        assert keyed.data.rows == database.catalog.table("s").data.rows


# -- (iv) MT-H orders --------------------------------------------------------------


@pytest.fixture
def mth(tiny_tpch_data):
    """A private MT-H instance (its orders are written) and tenant 2's session."""
    instance = load_mth(data=tiny_tpch_data, tenants=4, distribution="uniform")
    session = instance.middleware.gateway(cache_size=64).session(
        2, optimization="o4", scope="IN (2)"
    )
    return instance.database.catalog.table("orders"), session


class TestMTHOrders:
    """(iv) the ``(o_ttid, o_orderkey)`` key serves point statements."""

    KEY = (0, 1)  # (o_ttid, o_orderkey)
    NEW = 10_000_000

    def _holds_a_fresh_index(self, table) -> bool:
        data = table.data
        derived = data.indexes.get(self.KEY)
        return derived is not None and derived == TableData(data.schema, data.rows).hash_index(
            *self.KEY
        )

    def test_point_statements_read_no_column_of_the_version(self, monkeypatch, mth):
        orders, session = mth
        assert orders.schema.primary_key == ("o_ttid", "o_orderkey")
        key = orders.data.rows[[row[0] for row in orders.data.rows].index(2)][1]
        read = f"SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = {key}"
        assert len(session.execute(read).rows) == 1  # warm: the index, the plan
        statements = [
            (read, 1),
            (f"UPDATE orders SET o_totalprice = 1234.5 WHERE o_orderkey = {key}", 1),
            (f"DELETE FROM orders WHERE o_orderkey = {key}", 1),
            (read, 0),
        ]
        for sql, count in statements:
            with monkeypatch.context() as patch:
                _no_column_reads(patch, orders.data)
                result = session.execute(sql)
            answer = _answer(result)
            assert (answer if isinstance(answer, int) else len(answer)) == count
            assert self._holds_a_fresh_index(orders), sql

    def test_every_write_publishes_the_key_index(self, mth):
        orders, session = mth
        session.execute(f"SELECT o_orderkey FROM orders WHERE o_orderkey = {self.NEW}")
        for sql in (
            f"INSERT INTO orders VALUES ({self.NEW}, 1, 'O', 100.0, DATE '1996-01-02',"
            " '1-URGENT', 'Clerk#000000001', 0, 'new')",
            f"UPDATE orders SET o_totalprice = 1.5 WHERE o_orderkey = {self.NEW}",
            f"UPDATE orders SET o_comment = 'scan' WHERE o_totalprice > 0 AND o_custkey = 1",
            f"DELETE FROM orders WHERE o_orderkey = {self.NEW}",
        ):
            before = orders.data
            session.execute(sql)
            assert orders.data is not before and self._holds_a_fresh_index(orders), sql
