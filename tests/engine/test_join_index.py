"""Join build sides: a table version's own index, or a semi-join-reduced hash.

(i) every join shape on both kernel legs and on
:class:`~repro.backends.SQLiteBackend` — the engine probes an index of the
pinned :class:`~repro.engine.storage.TableData` where the build keys are bare
columns of an unfiltered base table and hashes a (reduced) build per
statement everywhere else; (ii) a property: whatever the probe and build key
multisets, reduced or not, the rows are a plain nested loop's rows in its
order; (iii) a join pins one table version like a scan does; (iv) what
``TableData.hash_index`` holds.  ``join_rows_hashed``
repeats exactly, so the tests pin *which* path ran by counting, not by timing.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import EngineBackend, SQLiteBackend
from repro.engine import Database, planner
from repro.engine.storage import HashIndex, Table, TableData, hash_rows
from repro.mth import load_mth, query_text
from repro.sql.parser import parse_query

from tests.conftest import KERNEL_LEGS, kernel_leg
from test_table_versions import WRITES, _database, _inject

DDL = (
    "CREATE TABLE p (k1 INTEGER, k2 INTEGER, k3 INTEGER, r FLOAT, y INTEGER)",
    "CREATE TABLE u (id INTEGER NOT NULL, k1 INTEGER, k2 INTEGER, k3 INTEGER, v INTEGER,"
    " PRIMARY KEY (id))",
    "CREATE TABLE d (k1 INTEGER, k2 INTEGER, k3 INTEGER, v INTEGER)",
)

#: ``p`` probes (5 rows: small enough that 2 * 5 <= every build, so each
#: per-statement build is reduced); ``u`` is unique on k1 (hence on every key
#: prefix), ``d`` repeats keys at every width; NULLs sit on both sides
ROWS = {
    "p": [(1, 1, 1, 1.0, 0), (2, 2, None, 2.0, 1), (None, 3, 3, 3.5, 2), (4, 4, 4, 4.0, 3),
          (9, 9, 9, 9.0, 4)],
    "u": [(i, i, i, i % 5, i * 10) for i in range(1, 9)]
    + [(20, None, 3, 3, 200), (21, 11, None, 1, 210), (22, 12, 12, None, 220), (23, 13, 1, 1, 230)],
    "d": [(i % 4 + 1, i % 4 + 1, (i % 2) * 3 + 1, i) for i in range(16)]
    + [(None, 3, 3, 100), (2, None, 4, 101), (2, 2, None, 102), (4, 4, 4, 103)],
}  # fmt: skip

#: name -> (sql, build rows a repeated execution hashes: 0 = it probes the
#: table version's index; p's 5 keys reduce every build of 10 rows or more)
QUERIES = {
    "comma-1-unique": ("SELECT p.y, u.v FROM p, u WHERE p.k1 = u.k1", 0),
    "comma-2-unique": ("SELECT p.y, u.v FROM p, u WHERE p.k1 = u.k1 AND p.k2 = u.k2", 0),
    "comma-3-unique": (
        "SELECT p.y, u.v FROM p, u WHERE p.k1 = u.k1 AND p.k2 = u.k2 AND p.k3 = u.k3", 0,
    ),
    "comma-1-dup": ("SELECT p.y, d.v FROM p, d WHERE p.k1 = d.k1", 0),
    "comma-2-dup": ("SELECT p.y, d.v FROM p, d WHERE p.k1 = d.k1 AND p.k2 = d.k2", 0),
    "comma-3-dup": (
        "SELECT p.y, d.v FROM p, d WHERE p.k1 = d.k1 AND p.k2 = d.k2 AND p.k3 = d.k3", 0,
    ),
    "on-unique": ("SELECT p.y, u.v FROM p JOIN u ON p.k1 = u.k1 AND p.k2 = u.k2", 0),
    "on-dup": ("SELECT p.y, d.v FROM p JOIN d ON p.k1 = d.k1", 0),
    "left-unique": ("SELECT p.y, u.v FROM p LEFT JOIN u ON p.k1 = u.k1", 0),
    "left-residual": ("SELECT p.y, d.v FROM p LEFT JOIN d ON p.k1 = d.k1 AND d.v > p.y + 3", 0),
    "left-residual-unique": (
        "SELECT p.y, u.v FROM p LEFT JOIN u ON p.k1 = u.k1 AND u.v <> 20", 0,
    ),
    "no-miss-unique": ("SELECT p.y, u.v FROM p, u WHERE p.y + 1 = u.k1", 0),
    "float-probe": ("SELECT p.y, u.v FROM p, u WHERE p.r = u.k1", 0),
    "three-way": ("SELECT p.y, u.v, d.v FROM p, u, d WHERE p.k1 = u.k1 AND u.k2 = d.k2", 0),
    "expression-key": ("SELECT p.y, u.v FROM p, u WHERE p.k1 = u.k1 + 0", 3),  # of 12
    "filtered-build": ("SELECT p.y, d.v FROM p, d WHERE p.k1 = d.k1 AND d.v > 5", 10),  # of 14
    # a WHERE over an explicit join filters the joined rows, not u's scan
    "filtered-after-on": ("SELECT p.y, u.v FROM p JOIN u ON p.k1 = u.k1 WHERE u.v < 60", 0),
    # two look-ups tie on the estimate, so FROM order makes b the build
    "looked-up-build": (
        "SELECT a.v, b.v FROM u a, u b WHERE a.k2 = b.k2 AND a.id = 1 AND b.id = 23", 1,
    ),
    "derived-build": (
        "SELECT p.y, g.n FROM p, (SELECT k1, COUNT(*) AS n FROM d GROUP BY k1) g"
        " WHERE p.k1 = g.k1", 4,  # 5 groups, one of them NULL: too few to reduce
    ),
}  # fmt: skip


def _load(target) -> None:
    for statement in DDL:
        target.execute(statement)
    for table, rows in ROWS.items():
        target.insert_rows(table, rows)


@pytest.fixture(scope="module")
def engines() -> dict[str, Database]:
    databases = {leg: Database() for leg in KERNEL_LEGS}
    for database in databases.values():
        _load(database)
    return databases


@pytest.fixture(scope="module")
def sqlite():
    with SQLiteBackend() as backend:
        connection = backend.connect()
        _load(connection)
        yield connection


def _query(engines, leg: str, sql: str) -> list[tuple]:
    with kernel_leg(leg):
        return engines[leg].query(sql).rows


def _hashed(database: Database, sql: str) -> tuple[list, int]:
    before = database.stats.join_rows_hashed
    rows = database.query(sql).rows
    return rows, database.stats.join_rows_hashed - before


class TestDifferential:
    """(i) same rows in every mode and on SQLite; the index only where allowed."""

    @pytest.mark.parametrize("name", QUERIES)
    def test_modes_and_sqlite_agree(self, engines, sqlite, name):
        sql, _ = QUERIES[name]
        results = {leg: _query(engines, leg, sql) for leg in KERNEL_LEGS}
        assert results["typed"] == results["generic"], name
        expected = [tuple(row) for row in sqlite.query(sql).rows]
        assert sorted(results["typed"], key=repr) == sorted(expected, key=repr), name

    @pytest.mark.parametrize("name", QUERIES)
    @pytest.mark.parametrize("mode", KERNEL_LEGS)
    def test_only_bare_columns_of_a_whole_table_take_the_index(self, engines, mode, name):
        sql, expected = QUERIES[name]
        database = engines[mode]
        with kernel_leg(mode):
            database.query(sql)  # whatever index the statement wants exists now
            assert _hashed(database, sql)[1] == expected, name

    def test_int_and_float_keys_meet(self, engines):
        rows = engines["typed"].query(QUERIES["float-probe"][0]).rows
        assert rows == [(0, 10), (1, 20), (3, 40)]  # 1.0 = 1, 2.0 = 2, 3.5 misses

    def test_a_unique_join_without_a_miss_shares_the_left_parts(self, engines):
        """Every probe row finds its one row: the joined batch reuses the
        probe side's row sequence instead of gathering a copy."""
        database = engines["typed"]
        prepared = database.executor.prepare(parse_query(QUERIES["no-miss-unique"][0]), None)
        batch = prepared._pipeline.execute_batch(())
        assert batch._parts[0] is database.catalog.table("p").rows
        assert [row[4] for row in batch._parts[0]] == [0, 1, 2, 3, 4]

    def test_the_scan_join_profile_reports_the_rows_hashed(self):
        database = Database()
        database.execute("CREATE TABLE g (k INTEGER NOT NULL, v INTEGER NOT NULL)")
        database.execute("CREATE TABLE h (k INTEGER NOT NULL, w INTEGER NOT NULL)")
        database.insert_rows("g", [(i, i) for i in range(4)])
        database.insert_rows("h", [(i % 8, i) for i in range(40)])

        def scan_join(sql: str):
            database.stats.reset()
            database.query(sql)
            return {p.operator: p for p in database.stats.operator_snapshot()}["scan+join"]

        # 36 rows pass the filter, 16 of them carry a key g asks for
        filtered = scan_join("SELECT g.v, h.w FROM g, h WHERE g.k = h.k AND h.w > 3")
        assert filtered.join_rows_hashed == 16
        assert "join rows hashed=16" in filtered.describe()
        whole = "SELECT g.v, h.w FROM g, h WHERE g.k = h.k"
        assert scan_join(whole).join_rows_hashed == 40  # the version's index, built
        again = scan_join(whole)
        assert again.join_rows_hashed == 0 and "hashed" not in again.describe()


KEYS = st.one_of(st.none(), st.integers(0, 5))


def _nested_loop(left, right, on, outer=False) -> list[tuple]:
    """The reference join: ``(l.i, r.j)`` for every left row (major) and
    right row (minor) ``on`` accepts, a NULL-padded row for an unmatched
    left row of an outer join."""
    joined = []
    for l_row in left:
        matches = [(l_row[2], r_row[2]) for r_row in right if on(l_row, r_row)]
        joined += matches or ([(l_row[2], None)] if outer else [])
    return joined


def _eq(a, b) -> bool:
    return a is not None and b is not None and a == b


@settings(max_examples=60, deadline=None)
@given(
    probe=st.lists(st.tuples(KEYS, KEYS), max_size=8),
    build=st.lists(st.tuples(KEYS, KEYS), max_size=24),
)
def test_reduced_or_not_a_join_returns_the_nested_loops_rows_in_its_order(probe, build):
    """(ii) around ``2 * probe <= build``: the join — index, whole hash or
    reduced hash — is the nested loop's join, row for row."""
    database = Database()
    database.execute("CREATE TABLE l (a INTEGER, b INTEGER, i INTEGER)")
    database.execute("CREATE TABLE r (a INTEGER, b INTEGER, j INTEGER)")
    left = [(a, b, i) for i, (a, b) in enumerate(probe)]
    right = [(a, b, j) for j, (a, b) in enumerate(build)]
    database.insert_rows("l", left)
    database.insert_rows("r", right)
    on_a = lambda l, r: _eq(l[0], r[0])  # noqa: E731
    on_ab = lambda l, r: on_a(l, r) and _eq(l[1], r[1])  # noqa: E731
    queries = {
        "SELECT l.i, r.j FROM l JOIN r ON l.a = r.a": on_a,  # the version's index
        "SELECT l.i, r.j FROM l JOIN r ON l.a = r.a + 0": on_a,  # hashed per statement
        "SELECT l.i, r.j FROM l JOIN r ON l.a = r.a + 0 AND l.b = r.b": on_ab,
        "SELECT l.i, r.j FROM l, r WHERE l.a = r.a AND l.b = r.b AND r.j <> 3": (
            lambda l, r: on_ab(l, r) and r[2] != 3  # filtered
        ),
    }
    for sql, on in queries.items():
        rows, expected = database.query(sql).rows, _nested_loop(left, right, on)
        if " JOIN " not in sql:  # the join order decides a comma join's order
            rows, expected = sorted(rows, key=repr), sorted(expected, key=repr)
        assert rows == expected, sql
    outer = "SELECT l.i, r.j FROM l LEFT JOIN r ON l.a = r.a + 0 AND l.b = r.b AND r.j > l.i"
    expected = _nested_loop(left, right, lambda l, r: on_ab(l, r) and r[2] > l[2], outer=True)
    assert database.query(outer).rows == expected
    # the one-key expression build: every non-NULL key is hashed, unless the
    # probe is at most half the build — then only keys the probe asks for
    _, hashed = _hashed(database, "SELECT l.i, r.j FROM l JOIN r ON l.a = r.a + 0")
    keyed = [a for a, _ in build if a is not None]
    if 2 * len(probe) <= len(build):
        wanted = {a for a, _ in probe}
        assert hashed == sum(a in wanted for a in keyed)
    else:
        assert hashed == len(keyed)


JOIN = "SELECT t.id, t.a FROM s, t WHERE s.k = t.id"
ON_JOIN = "SELECT t.id, t.a FROM s JOIN t ON s.k = t.id"
#: WRITES name -> JOIN's answer on the version the write leaves
AFTERWARDS = {
    "delete": [(23, 23)],
    "insert": [(13, 13), (23, 23), (40, 99)],
    "update": [(13, 13), (23, 0)],
}


def _join_database() -> Database:
    database = _database()
    database.execute("CREATE TABLE s (k INTEGER)")
    database.insert_rows("s", [(13,), (23,), (40,)])
    return database


class TestVersionPinning:
    """(iii) a join build side pins its table version like a scan does."""

    @pytest.mark.parametrize("sql", [JOIN, ON_JOIN], ids=["comma", "on"])
    @pytest.mark.parametrize("write", WRITES)
    def test_join_answers_from_the_version_it_pinned(self, monkeypatch, leg, write, sql):
        database = _join_database()
        # the index is asked for after the join pinned its version of t
        fired = _inject(monkeypatch, database, "hash_index", 0, WRITES[write][1])
        assert sorted(database.query(sql).rows) == [(13, 13), (23, 23)]
        assert fired == [WRITES[write][1]]
        assert sorted(database.query(sql).rows) == AFTERWARDS[write]

    def test_the_index_path_reads_the_current_version_once(self, monkeypatch, leg):
        database = _join_database()
        database.query(JOIN), database.query(ON_JOIN)
        table = database.catalog.table("t")
        reads: list = []

        class Counting(Table):
            @property
            def data(self):
                reads.append(1)
                return self.__dict__["data"]

            @data.setter
            def data(self, value):
                self.__dict__["data"] = value

        monkeypatch.setattr(table, "__class__", Counting)
        for sql in (JOIN, ON_JOIN):
            prepared = database.executor.prepare(parse_query(sql), None)  # estimates read too
            del reads[:]
            assert sorted(prepared.run(())) == [(13, 13), (23, 23)]
            assert len(reads) == 1, sql

    def test_an_open_stream_over_a_join_keeps_its_version(self, leg):
        database = _join_database()
        database.insert_rows("s", [(k,) for k in range(12)])
        stream = database.execute_stream(JOIN)
        first = stream.fetchmany(1)
        database.execute("DELETE FROM t")
        assert sorted(first + list(stream)) == [(k, k) for k in (*range(12), 13, 23)]
        assert database.query(JOIN).rows == []

    def test_a_write_derives_the_unique_index_and_a_repeated_key_costs_one_build(self, leg):
        """An INSERT of a new key enters it into the version's unique index
        (nothing hashed); one repeating a key leaves the next version's index
        to one lazy build, which the following join pays."""
        database = _join_database()
        assert _hashed(database, JOIN)[1] == 36
        assert _hashed(database, JOIN)[1] == 0
        database.execute("INSERT INTO t VALUES (40, 99, -1)")
        assert _hashed(database, ON_JOIN) == ([(13, 13), (23, 23), (40, 99)], 0)
        database.execute("INSERT INTO t VALUES (13, 7, -1)")  # the key is not enforced
        assert _hashed(database, ON_JOIN) == ([(13, 13), (13, 7), (23, 23), (40, 99)], 38)
        assert _hashed(database, JOIN)[1] == 0


class TestHashIndex:
    """(iv) ``TableData.hash_index``: one implementation for look-ups and joins."""

    @staticmethod
    def _data(rows) -> TableData:
        database = Database()
        database.execute("CREATE TABLE c (a INTEGER, b INTEGER, s VARCHAR(4))")
        database.insert_rows("c", rows)
        return database.catalog.table("c").data

    def test_built_once_per_column_tuple_and_version(self):
        data = self._data([(1, 1, "x"), (2, 1, "y")])
        assert data.indexes == {}
        assert data.hash_index(0) is data.hash_index(0)
        assert data.hash_index(0, 1) is data.hash_index(0, 1) is not data.hash_index(1, 0)
        assert set(data.indexes) == {(0,), (0, 1), (1, 0)}

    def test_a_unique_key_maps_to_its_row(self):
        data = self._data([(1, 1, "x"), (2, 1, "y")])
        assert data.hash_index(0) == HashIndex({1: (1, 1, "x"), 2: (2, 1, "y")}, True, 2)
        assert data.hash_index(0, 1).table == {(1, 1): (1, 1, "x"), (2, 1): (2, 1, "y")}
        assert data.hash_index(0).rows(2) == ((2, 1, "y"),)
        assert data.hash_index(0).rows(3) == () == data.hash_index(0).rows(None)

    def test_a_repeated_key_maps_to_a_tuple_of_rows_in_heap_order(self):
        data = self._data([(1, 1, "x"), (2, 1, "y"), (1, 2, "z")])
        index = data.hash_index(1)
        assert index == ({1: ((1, 1, "x"), (2, 1, "y")), 2: ((1, 2, "z"),)}, False, 3)
        assert index.rows(1) == ((1, 1, "x"), (2, 1, "y")) and index.rows(7) == ()

    def test_null_key_components_are_left_out(self):
        data = self._data([(1, None, "x"), (None, 1, "y"), (2, 2, "z"), (None, None, "w")])
        assert data.hash_index(0) == ({1: (1, None, "x"), 2: (2, 2, "z")}, True, 2)
        assert data.hash_index(0, 1) == ({(2, 2): (2, 2, "z")}, True, 1)
        assert data.hash_index(1, 1).size == 2

    def test_publish_drops_the_indexes_with_the_version(self):
        database = Database()
        database.execute("CREATE TABLE c (a INTEGER, s VARCHAR(4))")
        database.insert_rows("c", [(1, "x")])
        table = database.catalog.table("c")
        old = table.data
        assert old.hash_index(0).table == {1: (1, "x")}
        database.execute("INSERT INTO c VALUES (1, 'y')")
        assert table.data.indexes == {} and old.indexes == {(0,): old.hash_index(0)}
        assert table.data.hash_index(0) == ({1: ((1, "x"), (1, "y"))}, False, 2)

    def test_point_look_ups_answer_from_either_shape(self):
        database = Database()
        database.execute("CREATE TABLE c (id INTEGER, s VARCHAR(4), PRIMARY KEY (id))")
        database.insert_rows("c", [(1, "x"), (2, "y"), (None, "n")])
        lookup = "SELECT s FROM c WHERE id = {}"
        assert database.query(lookup.format(2)).rows == [("y",)]
        assert database.query(lookup.format(3)).rows == []
        assert database.query(lookup.format("NULL")).rows == []
        database.insert_rows("c", [(2, "again")])  # the key is declared, not enforced
        assert database.query(lookup.format(2)).rows == [("y",), ("again",)]

    def test_an_index_adds_no_tracked_object_per_key(self):
        rows = [(i // 3, i) for i in range(3000)]
        index = hash_rows([row[0] for row in rows], rows)
        assert not index.unique and len(index.table) == 1000
        gc.collect(), gc.collect()
        assert not any(map(gc.is_tracked, index.table.values()))


class TestMTHBuildSides:
    """What the MT-H queries hash at o4, D = all: composite ``(ttid, key)``
    joins probe the table versions' indexes from the second execution on."""

    @pytest.fixture(scope="class")
    def mth(self, tiny_tpch_data):
        database = Database()
        instance = load_mth(data=tiny_tpch_data, tenants=4, backend=EngineBackend(database=database))
        connection = instance.middleware.connect(1, optimization="o4")
        connection.set_scope("IN ()")
        return database, connection

    @staticmethod
    def _hashed(mth, query_id: int) -> int:
        database, connection = mth
        before = database.stats.join_rows_hashed
        assert connection.query(query_text(query_id)).columns
        return database.stats.join_rows_hashed - before

    @staticmethod
    def _builds(mth, monkeypatch, query_id: int) -> list:
        """The row sequences the per-statement builds of one execution hash
        (a table version's own index is built in ``storage``, not here)."""
        built: list = []

        def recording(keys, rows):
            built.append(rows)
            return hash_rows(keys, rows)

        with monkeypatch.context() as patch:
            patch.setattr(planner, "hash_rows", recording)
            TestMTHBuildSides._hashed(mth, query_id)
        return built

    @pytest.mark.parametrize("query_id", [12, 18])
    def test_a_repeated_join_hashes_no_whole_base_table(self, mth, monkeypatch, query_id):
        """Whichever side the join order makes the build, a whole base table
        is probed through its version's index, never hashed per statement."""
        database, _ = mth
        self._hashed(mth, query_id)
        tables = [table.rows for table in database.catalog.tables()]
        for rows in self._builds(mth, monkeypatch, query_id):
            assert not any(len(rows) == len(whole) and list(rows) == list(whole) for whole in tables)

    @pytest.mark.parametrize("query_id", [5, 8, 9, 17])
    def test_no_lineitem_row_is_hashed_per_statement(self, mth, monkeypatch, query_id):
        database, _ = mth
        width = len(database.catalog.table("lineitem").schema.columns)
        self._hashed(mth, query_id)
        before = database.stats.join_rows_hashed
        built = self._builds(mth, monkeypatch, query_id)
        hashed = database.stats.join_rows_hashed - before
        assert hashed == sum(map(len, built)) < len(database.catalog.table("lineitem"))
        assert not any(len(row) == width for rows in built for row in rows)

    def test_a_write_makes_the_next_join_build_the_index_once(self, mth):
        """Q18 probes ``orders``' index on ``(o_custkey, o_ttid)`` under
        either join order: its keys repeat, so a write to ``orders`` costs
        one build of the new version, then steady state.  Q12 probes the
        unique ``(o_orderkey, o_ttid)``, which the write carries over."""
        database, _ = mth
        self._hashed(mth, 12), self._hashed(mth, 18)
        steady = {query_id: self._hashed(mth, query_id) for query_id in (12, 18)}
        orders = database.catalog.table("orders")
        row = list(orders.rows[0])
        row[orders.schema.column_index("o_orderkey")] = 10**9
        orders.insert_row(row)
        assert self._hashed(mth, 12) == steady[12]
        assert self._hashed(mth, 18) == steady[18] + len(orders)
        assert self._hashed(mth, 18) == steady[18]

    def test_filtered_builds_are_reduced(self, mth):
        """Q3 builds on a date-filtered ``orders`` and ``lineitem``; probed by
        the BUILDING customers (then their orders), far fewer rows are hashed
        than pass the filters — which is what every execution used to hash."""
        database, _ = mth
        passing = sum(
            database.query(f"SELECT COUNT(*) FROM {table} WHERE {column} {op} DATE '1995-03-15'").scalar()
            for table, column, op in (("orders", "o_orderdate", "<"), ("lineitem", "l_shipdate", ">"))
        )
        assert 0 < self._hashed(mth, 3) < passing / 2

    def test_explain_analyze_shows_the_rows_hashed(self, mth):
        _, connection = mth
        report = connection.explain(query_text(3), analyze=True)
        hashed = sum(profile.join_rows_hashed for profile in report.operators)
        assert hashed > 0 and f"join rows hashed={hashed}" in report.render()
