"""The PEP 249 surface: connect targets, Connection, Cursor semantics.

One cursor API fronts every entry point — bare backends, direct
:class:`MTConnection` clients and gateway sessions.  These tests pin the
DB-API contract: module globals, the exception aliases, ``description`` /
``rowcount``, fetch semantics, iteration, ``executemany`` accumulation,
commit/rollback autocommit semantics and lifecycle errors.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.backends import EngineBackend
from repro.errors import (
    BackendError,
    NotSupportedError,
    ParameterError,
    ReproError,
    SQLError,
)

from tests.conftest import build_paper_example


@pytest.fixture
def backend_conn():
    with api.connect("engine") as connection:
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(10))")
        cursor.executemany(
            "INSERT INTO t (a, b) VALUES (?, ?)",
            [(index, f"row{index}") for index in range(10)],
        )
        yield connection


# ---------------------------------------------------------------------------
# module globals (PEP 249 §module interface)
# ---------------------------------------------------------------------------


def test_module_globals():
    assert api.apilevel == "2.0"
    assert api.threadsafety in (0, 1, 2, 3)
    assert api.paramstyle == "qmark"


def test_exception_hierarchy_aliases_repro_errors():
    assert issubclass(api.Error, ReproError) or api.Error is ReproError
    assert issubclass(api.DatabaseError, api.Error)
    assert issubclass(api.OperationalError, api.DatabaseError)
    assert issubclass(api.IntegrityError, api.DatabaseError)
    assert issubclass(api.ProgrammingError, api.Error)
    # native raises stay catchable under both spellings
    assert issubclass(ParameterError, api.ProgrammingError)
    assert issubclass(SQLError, api.DatabaseError)


def test_type_constructors():
    date = api.Date(1998, 9, 2)
    assert str(date) == "1998-09-02"
    assert api.Binary(b"abc") == b"abc"
    assert api.DateFromTicks(0).year in (1969, 1970)  # timezone-dependent day


# ---------------------------------------------------------------------------
# cursor basics on a bare backend
# ---------------------------------------------------------------------------


def test_executemany_accumulates_rowcount(backend_conn):
    cursor = backend_conn.cursor()
    cursor.executemany(
        "INSERT INTO t (a, b) VALUES (?, ?)", [(100, "x"), (101, "y")]
    )
    assert cursor.rowcount == 2
    assert cursor.description is None


def test_description_and_fetch_semantics(backend_conn):
    cursor = backend_conn.cursor()
    cursor.execute("SELECT a, b FROM t WHERE a < ? ORDER BY a", (4,))
    assert [entry[0] for entry in cursor.description] == ["a", "b"]
    assert all(len(entry) == 7 for entry in cursor.description)
    assert cursor.rowcount == -1  # streaming: unknown until exhausted
    assert cursor.fetchone() == (0, "row0")
    assert cursor.fetchmany(2) == [(1, "row1"), (2, "row2")]
    assert cursor.fetchall() == [(3, "row3")]
    assert cursor.rowcount == 4
    assert cursor.fetchone() is None  # exhausted, not an error


def test_arraysize_drives_default_fetchmany(backend_conn):
    cursor = backend_conn.cursor()
    cursor.arraysize = 3
    cursor.execute("SELECT a FROM t ORDER BY a")
    assert cursor.fetchmany() == [(0,), (1,), (2,)]


def test_cursor_iteration_and_execute_chaining(backend_conn):
    cursor = backend_conn.cursor()
    rows = [row for row in cursor.execute("SELECT a FROM t WHERE a < ?", (3,))]
    assert rows == [(0,), (1,), (2,)]


def test_named_parameters_via_mapping(backend_conn):
    cursor = backend_conn.cursor()
    cursor.execute(
        "SELECT a FROM t WHERE a BETWEEN :low AND :high ORDER BY a",
        {"low": 2, "high": 4},
    )
    assert cursor.fetchall() == [(2,), (3,), (4,)]


def test_fetch_without_result_set_raises(backend_conn):
    cursor = backend_conn.cursor()
    with pytest.raises(BackendError, match="no result set"):
        cursor.fetchone()
    cursor.execute("INSERT INTO t (a, b) VALUES (?, ?)", (50, "z"))
    with pytest.raises(BackendError, match="no result set"):
        cursor.fetchall()


def test_executemany_rejects_result_sets(backend_conn):
    cursor = backend_conn.cursor()
    with pytest.raises(NotSupportedError, match="executemany"):
        cursor.executemany("SELECT a FROM t WHERE a = ?", [(1,), (2,)])


def test_parameter_mismatch_raises_programming_error(backend_conn):
    cursor = backend_conn.cursor()
    with pytest.raises(api.ProgrammingError):
        cursor.execute("SELECT a FROM t WHERE a = ?")
    with pytest.raises(api.ProgrammingError):
        cursor.execute("SELECT a FROM t WHERE a = ?", (1, 2))


def test_invalid_sql_raises_programming_error(backend_conn):
    cursor = backend_conn.cursor()
    with pytest.raises(api.ProgrammingError, match="invalid statement"):
        cursor.execute("SELEC a FROM t")


# ---------------------------------------------------------------------------
# transactions and lifecycle
# ---------------------------------------------------------------------------


def test_commit_is_a_noop_and_rollback_raises(backend_conn):
    backend_conn.commit()  # autocommit: trivially succeeds
    with pytest.raises(NotSupportedError, match="autocommit"):
        backend_conn.rollback()


def test_closed_connection_and_cursor_raise():
    connection = api.connect("engine")
    cursor = connection.cursor()
    connection.close()
    with pytest.raises(BackendError, match="closed"):
        connection.cursor()
    with pytest.raises(BackendError, match="closed"):
        cursor.execute("SELECT 1")
    connection.close()  # idempotent


def test_cursor_context_manager_closes(backend_conn):
    with backend_conn.cursor() as cursor:
        cursor.execute("SELECT a FROM t")
    with pytest.raises(BackendError, match="closed"):
        cursor.fetchone()


# ---------------------------------------------------------------------------
# connect() target resolution
# ---------------------------------------------------------------------------


def test_connect_fronts_middleware_and_gateway(mt_connect):
    mt = build_paper_example()
    gateway = mt.gateway()
    sql = "SELECT E_name FROM Employees ORDER BY E_name"

    with mt_connect(mt, client=0, optimization="o4", scope="IN (0, 1)") as direct:
        direct_rows = direct.cursor().execute(sql).fetchall()
    with mt_connect(gateway, client=0, optimization="o4", scope="IN (0, 1)") as cached:
        cached_rows = cached.cursor().execute(sql).fetchall()
    assert direct_rows == cached_rows
    assert len(direct_rows) == 6
    gateway.close()


def test_connect_wraps_existing_session_and_connection():
    mt = build_paper_example()
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0)")
    with api.connect(session) as over_session:
        assert len(over_session.cursor().execute(
            "SELECT E_name FROM Employees"
        ).fetchall()) == 3
    # wrapping did not close the caller's session
    assert session.query("SELECT COUNT(*) FROM Employees").scalar() == 3

    mt_connection = mt.connect(1, optimization="o4")
    with api.connect(mt_connection, scope="IN (1)") as over_connection:
        assert len(over_connection.cursor().execute(
            "SELECT E_name FROM Employees"
        ).fetchall()) == 3
    gateway.close()


def test_connect_accepts_backend_objects():
    backend = EngineBackend()
    with api.connect(backend) as over_backend:
        cursor = over_backend.cursor()
        cursor.execute("CREATE TABLE s (x INTEGER NOT NULL)")
        cursor.execute("INSERT INTO s (x) VALUES (1), (2)")
        assert cursor.rowcount == 2
    # connection close did not dispose the caller-owned backend
    assert backend.connect().table_rowcount("s") == 2


def test_connect_rejects_bad_targets_and_argument_mixes():
    mt = build_paper_example()
    with pytest.raises(BackendError, match="requires a client"):
        api.connect(mt)
    with pytest.raises(BackendError, match="requires a client"):
        api.connect(mt.gateway())
    with pytest.raises(BackendError, match="does not accept"):
        api.connect("engine", client=1)
    with pytest.raises(BackendError, match="cannot front"):
        api.connect(42)


def test_dml_with_subquery_parameters(backend_conn):
    """Regression: DML whose parameters live inside a sub-query binds fine."""
    cursor = backend_conn.cursor()
    cursor.execute("CREATE TABLE u (b INTEGER NOT NULL)")
    cursor.execute("INSERT INTO u (b) VALUES (1), (2)")
    cursor.execute(
        "DELETE FROM t WHERE a IN (SELECT b FROM u WHERE b >= ?)", (2,)
    )
    assert cursor.rowcount == 1
    cursor.execute("SELECT COUNT(*) FROM t")
    assert cursor.fetchone() == (9,)


def test_executemany_routes_partitioned_inserts_on_a_sharded_backend():
    """Regression: a parameterized ttid value binds before shard routing."""
    from repro.backends import ShardedBackend

    backend = ShardedBackend(shards=2)
    connection = backend.connect()
    connection.execute(
        "CREATE TABLE p (ttid INTEGER NOT NULL, v INTEGER NOT NULL)"
    )
    connection.register_partitioned_table("p", "ttid")
    with api.connect(connection) as dbapi:
        cursor = dbapi.cursor()
        cursor.executemany(
            "INSERT INTO p (ttid, v) VALUES (?, ?)",
            [(ttid, ttid * 10) for ttid in range(4)],
        )
        assert cursor.rowcount == 4
        cursor.execute("SELECT ttid, v FROM p ORDER BY ttid")
        assert cursor.fetchall() == [(ttid, ttid * 10) for ttid in range(4)]
    # rows really landed on their owners' shards, not on one replica
    per_shard = [shard.table_rowcount("p") for shard in connection.shard_connections]
    assert sum(per_shard) == 4 and all(count > 0 for count in per_shard)
    backend.close()


def test_gateway_target_prepared_handles_are_bounded(mt_connect):
    """A literal-churn workload must not grow the prepared-handle map forever."""
    from repro.api.connection import _GatewayTarget

    mt = build_paper_example()
    gateway = mt.gateway()
    connection = mt_connect(gateway, client=0, scope="IN (0)")
    target = connection._target
    assert isinstance(target, _GatewayTarget)
    cursor = connection.cursor()
    limit = _GatewayTarget.MAX_PREPARED
    for value in range(limit + 20):
        cursor.execute(f"SELECT E_name FROM Employees WHERE E_salary > {value}")
    assert len(target._handles) == limit
    connection.close()
    gateway.close()


def test_dml_through_the_mt_pipeline(mt_connect):
    """Cursor DML goes through the per-owner MTSQL rewrite, not raw SQL."""
    mt = build_paper_example()
    with mt_connect(mt, client=0, scope="IN (0)", optimization="o4") as connection:
        cursor = connection.cursor()
        cursor.execute(
            "INSERT INTO Employees VALUES (?, ?, ?, ?, ?, ?)",
            (7, "Zoe", 1, 3, 42000, 33),
        )
        assert cursor.rowcount == 1
        cursor.execute(
            "UPDATE Employees SET E_salary = :salary WHERE E_name = :name",
            {"salary": 43000, "name": "Zoe"},
        )
        assert cursor.rowcount == 1
        cursor.execute("SELECT E_salary FROM Employees WHERE E_name = ?", ("Zoe",))
        assert cursor.fetchall() == [(43000,)]
        cursor.execute("DELETE FROM Employees WHERE E_name = ?", ("Zoe",))
        assert cursor.rowcount == 1
