"""The backend protocol: both shipped backends satisfy the same contract."""

from __future__ import annotations

import pytest

from repro.backends import (
    BackendConnection,
    EngineBackend,
    SQLiteBackend,
    as_backend_connection,
    create_backend,
    normalize_row,
    normalized_rows,
)
from repro.errors import BackendError, ExecutionError
from repro.result import QueryResult, StatementResult
from repro.sql.types import date_from_string


@pytest.fixture(params=["engine", "sqlite"])
def connection(request):
    backend = create_backend(request.param)
    connection = backend.connect()
    connection.execute(
        "CREATE TABLE items (id INTEGER NOT NULL, price DECIMAL(15,2) NOT NULL, "
        "label VARCHAR(20), added DATE, CONSTRAINT pk_items PRIMARY KEY (id))"
    )
    connection.insert_rows(
        "items",
        [
            (1, 10.5, "alpha", date_from_string("1994-01-01")),
            (2, 20.0, "beta", date_from_string("1995-06-15")),
            (3, 30.25, "gamma", date_from_string("1996-12-31")),
        ],
    )
    yield connection
    backend.close()


class TestExecution:
    def test_select_returns_query_result(self, connection):
        result = connection.query("SELECT id, price FROM items WHERE id <= 2")
        assert isinstance(result, QueryResult)
        assert result.columns == ["id", "price"]
        assert sorted(result.rows) == [(1, 10.5), (2, 20.0)]

    def test_dates_round_trip(self, connection):
        result = connection.query("SELECT added FROM items WHERE id = 1")
        assert result.rows == [(date_from_string("1994-01-01"),)]

    def test_dates_are_stdlib_dates_on_every_backend(self, connection):
        import datetime

        inserted = datetime.date(1994, 1, 1)
        connection.insert_rows("items", [(4, 1.0, "delta", inserted)])
        rows = connection.query("SELECT added FROM items WHERE id IN (1, 4) ORDER BY id").rows
        assert [type(row[0]) for row in rows] == [datetime.date, datetime.date]
        assert rows[0][0] == rows[1][0] == inserted
        if connection.dialect.name == "sqlite":
            # stored as ISO text, converted back through the shared
            # constructor: one object per distinct day
            assert rows[0][0] is rows[1][0] is date_from_string("1994-01-01")
        else:
            assert rows[1][0] is inserted  # the engine hands back the stored object

    def test_date_comparison_and_arithmetic(self, connection):
        result = connection.query(
            "SELECT id FROM items "
            "WHERE added < DATE '1994-01-01' + INTERVAL '1' YEAR"
        )
        assert result.column_values("id") == [1]

    def test_dml_rowcounts(self, connection):
        update = connection.execute("UPDATE items SET label = 'x' WHERE id >= 2")
        assert isinstance(update, StatementResult)
        assert update.rowcount == 2
        delete = connection.execute("DELETE FROM items WHERE id = 3")
        assert delete.rowcount == 1
        assert connection.table_rowcount("items") == 2

    def test_parameterized_execution(self, connection):
        result = connection.query(
            "SELECT label FROM items WHERE id = $2 OR price = $1",
            parameters=[10.5, 2],
        )
        assert sorted(result.column_values("label")) == ["alpha", "beta"]

    def test_execute_script(self, connection):
        results = connection.execute_script(
            "INSERT INTO items VALUES (4, 1.0, 'd', DATE '1999-01-01'); "
            "SELECT COUNT(*) FROM items"
        )
        assert results[0].rowcount == 1
        assert results[1].scalar() == 4

    def test_query_rejects_non_select(self, connection):
        with pytest.raises(BackendError, match="SELECT"):
            connection.query("DELETE FROM items")

    def test_statement_counter(self, connection):
        before = connection.stats.statements
        connection.query("SELECT 1 FROM items")
        assert connection.stats.statements == before + 1
        connection.reset_stats()
        assert connection.stats.statements == 0


class TestFunctions:
    def test_python_udf(self, connection):
        connection.register_python_function("twice", lambda value: value * 2)
        result = connection.query("SELECT twice(price) FROM items WHERE id = 1")
        assert result.scalar() == 21.0

    def test_sql_udf(self, connection):
        connection.register_sql_function(
            "pricier", "SELECT MAX(price) FROM items WHERE price > $1"
        )
        result = connection.query("SELECT pricier(15.0) FROM items WHERE id = 1")
        assert result.scalar() == 30.25

    def test_immutable_udf_caching_follows_profile(self):
        for profile, expect_hits in (("postgres", True), ("system_c", False)):
            backend = create_backend("sqlite", profile=profile)
            connection = backend.connect()
            connection.execute("CREATE TABLE t (x INTEGER)")
            connection.insert_rows("t", [(1,), (1,), (1,)])
            connection.register_python_function("probe", lambda v: v + 1, immutable=True)
            connection.query("SELECT probe(x) FROM t")
            assert connection.stats.udf_calls == 3
            if expect_hits:
                assert connection.stats.udf_executions == 1
                assert connection.stats.udf_cache_hits == 2
            else:
                assert connection.stats.udf_executions == 3
            connection.clear_function_caches()
            connection.reset_stats()
            backend.close()


class TestIntegrity:
    def test_clean_database(self, connection):
        assert connection.check_integrity() == []

    def test_duplicate_primary_key(self, connection):
        connection.insert_rows("items", [(1, 99.0, "dup", date_from_string("2000-01-01"))])
        violations = connection.check_integrity()
        assert any("duplicate primary key" in violation for violation in violations)

    def test_foreign_key_violation(self, connection):
        connection.execute(
            "CREATE TABLE refs (item_id INTEGER, CONSTRAINT fk_refs "
            "FOREIGN KEY (item_id) REFERENCES items (id))"
        )
        connection.insert_rows("refs", [(1,), (99,)])
        violations = connection.check_integrity()
        assert any("foreign key violation" in violation for violation in violations)


class TestLifecycle:
    def test_create_backend_unknown_name(self):
        with pytest.raises(BackendError, match="unknown backend"):
            create_backend("oracle")

    def test_as_backend_connection_normalizes(self):
        backend = EngineBackend()
        assert as_backend_connection(backend) is backend.connect()
        assert as_backend_connection(backend.connect()) is backend.connect()
        assert isinstance(as_backend_connection("engine"), BackendConnection)
        with pytest.raises(BackendError, match="expected a backend"):
            as_backend_connection(42)

    def test_sqlite_close_is_final(self):
        backend = SQLiteBackend()
        connection = backend.connect()
        connection.execute("CREATE TABLE t (x INTEGER)")
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(BackendError, match="closed"):
            connection.query("SELECT 1 FROM t")

    def test_engine_escape_hatch(self):
        connection = EngineBackend().connect()
        # engine_database is the only way into the Database internals
        assert connection.engine_database.catalog is not None
        assert not hasattr(connection, "catalog")
        assert connection.dialect.name == "default"
        sqlite = SQLiteBackend()
        assert not hasattr(sqlite.connect(), "engine_database")
        sqlite.close()


class TestQueryResultConveniences:
    def test_iteration_and_truthiness(self):
        result = QueryResult(columns=["a"], rows=[(1,), (2,)])
        assert list(result) == [(1,), (2,)]
        assert bool(result)
        assert not QueryResult(columns=["a"], rows=[])

    def test_ambiguous_column_raises(self):
        result = QueryResult(columns=["a", "B", "A"], rows=[(1, 2, 3)])
        assert result.column_index("b") == 1
        with pytest.raises(ExecutionError, match="ambiguous result column"):
            result.column_index("a")
        with pytest.raises(ExecutionError, match="no column"):
            result.column_index("missing")


class TestNormalization:
    def test_normalize_row(self):
        row = normalize_row((True, 1.0000000000001, date_from_string("1994-01-01"), "x"))
        assert row == (1, 1.0, "1994-01-01", "x")

    def test_normalized_rows_sort_order_insensitively(self):
        left = QueryResult(columns=["a"], rows=[(2,), (1,), (None,)])
        right = QueryResult(columns=["a"], rows=[(None,), (1,), (2,)])
        assert normalized_rows(left) == normalized_rows(right)


class TestRoutingGuards:
    def test_connections_take_no_backend(self):
        """One backend per middleware: no connection or session routes elsewhere."""
        from repro.core import MTBase

        mt = MTBase()
        mt.register_tenant(1)
        with pytest.raises(TypeError):
            mt.connect(1, backend="sqlite")
        with pytest.raises(TypeError):
            mt.gateway().session(1, backend=mt.backend)
        assert mt.connect(1).backend is mt.backend

    def test_sqlite_temp_file_removed_without_explicit_close(self):
        import gc
        import os

        backend = SQLiteBackend()
        path = backend.path
        connection = backend.connect()
        connection.execute("CREATE TABLE t (x INTEGER)")
        assert os.path.exists(path)
        del backend, connection
        gc.collect()
        assert not os.path.exists(path)


class TestDateConversionFlag:
    def test_date_sniffing_can_be_disabled(self):
        backend = SQLiteBackend()
        connection = backend.connect()
        connection.execute("CREATE TABLE s (label VARCHAR(10) NOT NULL)")
        connection.insert_rows("s", [("2024-01-01",)])
        assert connection.query("SELECT label FROM s").scalar() == date_from_string(
            "2024-01-01"
        )
        connection.convert_iso_dates = False
        assert connection.query("SELECT label FROM s").scalar() == "2024-01-01"
        backend.close()
