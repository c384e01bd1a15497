"""Join keys never match on NULL: engine (typed + generic kernels) against SQLite.

``a.x = b.x`` is not true when either side is NULL, so a build or probe row
whose key has a NULL component matches nothing — an inner join drops it, a
LEFT join null-pads it.  The hash joins used to key their tables on ``None``
(and on tuples holding ``None``) and returned the NULL pair.  Every case runs
the same SQL on both kernel legs and on
:class:`~repro.backends.SQLiteBackend`, the independent oracle; the two
legs must also agree on row *order*, and the order of the
duplicate-build-key cases is pinned as literal rows.
"""

from __future__ import annotations

import pytest

from repro.backends import SQLiteBackend
from repro.engine import Database
from repro.sql.parser import parse_query
from tests.conftest import KERNEL_LEGS, kernel_leg

DDL = (
    "CREATE TABLE a (x INTEGER, w INTEGER, y INTEGER)",
    "CREATE TABLE b (x INTEGER, w INTEGER, z INTEGER)",
    "CREATE TABLE k (id INTEGER, v INTEGER, PRIMARY KEY (id))",
)

#: NULL keys on one side only (x: a has the NULL where b has 3) and on both
#: sides (x in rows 11/21, w in rows 12/22); key 1 is duplicated in b
ROWS = {
    "a": [(1, 1, 10), (None, 1, 11), (2, None, 12), (2, 2, 13), (3, 3, 14), (None, None, 15)],
    "b": [(1, 1, 20), (None, 1, 21), (2, None, 22), (2, 2, 23), (1, 1, 24), (4, 4, 25)],
    "k": [(None, 5), (1, 6), (2, 7)],
}

QUERIES = {
    "comma": "SELECT a.y, b.z FROM a, b WHERE a.x = b.x",
    "comma-two-keys": "SELECT a.y, b.z FROM a, b WHERE a.x = b.x AND a.w = b.w",
    "explicit": "SELECT a.y, b.z FROM a JOIN b ON a.x = b.x",
    "explicit-two-keys": "SELECT a.y, b.z FROM a JOIN b ON a.x = b.x AND a.w = b.w",
    "left": "SELECT a.y, b.z FROM a LEFT JOIN b ON a.x = b.x",
    "left-two-keys": "SELECT a.y, b.z FROM a LEFT JOIN b ON a.x = b.x AND a.w = b.w",
    "left-null-build-only": "SELECT b.z, k.v FROM b LEFT JOIN k ON b.w = k.id",
    "three-way": "SELECT a.y, b.z, k.v FROM a, b, k WHERE a.x = b.x AND b.w = k.id",
    "key-lookup": "SELECT a.y, (SELECT v FROM k WHERE id = a.x) FROM a",
    "key-lookup-null-literal": "SELECT v FROM k WHERE id = NULL",
}


def _load(target) -> None:
    for statement in DDL:
        target.execute(statement)
    for table, rows in ROWS.items():
        target.insert_rows(table, rows)


@pytest.fixture(scope="module")
def engines() -> dict[str, Database]:
    databases = {leg: Database(batch_size=4) for leg in KERNEL_LEGS}
    for database in databases.values():
        _load(database)
    return databases


@pytest.fixture(scope="module")
def sqlite():
    with SQLiteBackend() as backend:
        connection = backend.connect()
        _load(connection)
        yield connection


@pytest.mark.parametrize("name", QUERIES)
def test_null_keys_match_nothing(engines, sqlite, name):
    sql = QUERIES[name]
    results = {}
    for leg, database in engines.items():
        with kernel_leg(leg):
            results[leg] = database.query(sql).rows
    assert results["typed"] == results["generic"], name
    expected = [tuple(row) for row in sqlite.query(sql).rows]
    assert sorted(results["typed"], key=repr) == sorted(expected, key=repr), name
    # no pair was made of two NULL keys: y 11/15 and z 21 only ever appear
    # null-padded (on the left side of a LEFT join)
    for row in results["typed"]:
        if name in ("comma", "explicit", "left"):
            assert not (row[0] in (11, 15) and row[1] is not None), row
            assert row[1] != 21, row


def test_duplicate_build_keys_keep_nested_loop_order(engines):
    """Left row major, build rows in source order, unmatched rows padded in
    place — with a unique build side (``k``) and a duplicated one (``b``)."""
    rows = engines["typed"].query(QUERIES["left"]).rows
    assert rows == [
        (10, 20), (10, 24), (11, None), (12, 22), (12, 23), (13, 22), (13, 23),
        (14, None), (15, None),
    ]  # fmt: skip
    rows = engines["typed"].query("SELECT a.y, k.v FROM a LEFT JOIN k ON a.x = k.id").rows
    assert rows == [(10, 6), (11, None), (12, 7), (13, 7), (14, None), (15, None)]
    rows = engines["typed"].query(QUERIES["three-way"]).rows
    assert rows == [(10, 20, 6), (10, 24, 6), (12, 23, 7), (13, 23, 7)]


def test_proven_not_null_build_keys_skip_the_null_test(leg):
    """A build key its table declares NOT NULL is not searched for NULLs;
    an expression, or a nullable column, is."""
    database = Database(batch_size=4)
    database.execute("CREATE TABLE small (x INTEGER)")
    database.execute("CREATE TABLE big (id INTEGER NOT NULL, v INTEGER)")
    database.insert_rows("small", [(1,), (None,)])
    database.insert_rows("big", [(1, 5), (2, None), (3, 7), (4, 8)])  # the build side
    for sql, nullable in (
        ("SELECT x, v FROM small, big WHERE x = id", False),
        ("SELECT x, v FROM small, big WHERE x = id + 0", True),
        ("SELECT x, id FROM small, big WHERE x = v", True),
    ):
        select = parse_query(sql)
        prepared = database.executor.prepare(select, None)
        assert [step.nullable for step in prepared._pipeline._steps] == [nullable], sql
        assert prepared.run(()) == database.query(sql).rows, sql
