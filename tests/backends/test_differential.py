"""Differential suite: the MT-H workload on EngineBackend vs. SQLiteBackend.

The paper's middleware claim is that the rewritten SQL runs unchanged on any
backend.  These tests load the *same* generated MT-H data into the in-memory
engine and into SQLite and assert that every MT-H query — both scenarios,
``D' = {single, subset, all}`` — produces row-set-identical results after
normalization (dates to ISO text, floats to 12 significant digits to absorb
REAL round-trips; see :func:`repro.backends.normalized_rows`).
"""

from __future__ import annotations

import pytest

from repro.backends import SQLiteBackend, normalized_rows
from repro.mth.loader import load_mth
from repro.mth.queries import ALL_QUERY_IDS, CONVERSION_INTENSIVE, query_text

TENANTS = 4
CLIENT = 1

#: the three D' shapes of the acceptance grid
DATASETS = {
    "single": "IN (2)",
    "subset": "IN (1, 3)",
    "all": "IN ()",
}

#: the paper's two scenarios: business alliance (uniform), research (zipf)
SCENARIOS = ("uniform", "zipf")


@pytest.fixture(scope="module", params=SCENARIOS)
def backend_pair(request, tiny_tpch_data):
    """The same MT-H data loaded into both backends, one pair per scenario."""
    engine = load_mth(
        data=tiny_tpch_data, tenants=TENANTS, distribution=request.param
    )
    sqlite_factory = SQLiteBackend()
    sqlite = load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution=request.param,
        backend=sqlite_factory,
    )
    yield engine, sqlite
    sqlite_factory.close()


def _connection(instance, scope: str, optimization: str = "o4"):
    connection = instance.middleware.connect(CLIENT, optimization=optimization)
    connection.set_scope(scope)
    return connection


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_mth_query_rowsets_identical(backend_pair, query_id):
    engine, sqlite = backend_pair
    text = query_text(query_id)
    for name, scope in DATASETS.items():
        engine_result = _connection(engine, scope).query(text)
        sqlite_result = _connection(sqlite, scope).query(text)
        assert len(engine_result.columns) == len(sqlite_result.columns), (
            f"Q{query_id} D'={name}: column counts differ"
        )
        assert normalized_rows(engine_result) == normalized_rows(sqlite_result), (
            f"Q{query_id} D'={name}: row sets differ"
        )


@pytest.mark.parametrize("level", ["canonical", "o1"])
def test_sql_udf_conversion_path(backend_pair, level):
    """Low optimization levels call the Listings-4-7 UDFs instead of inlining;
    SQLite serves them through sqlite3.create_function + the side connection."""
    engine, sqlite = backend_pair
    for query_id in CONVERSION_INTENSIVE:
        text = query_text(query_id)
        engine_result = _connection(engine, "IN (2)", optimization=level).query(text)
        sqlite.middleware.backend.reset_stats()
        sqlite_result = _connection(sqlite, "IN (2)", optimization=level).query(text)
        assert normalized_rows(engine_result) == normalized_rows(sqlite_result), (
            f"Q{query_id} at {level}: row sets differ"
        )
    # the conversion UDFs really executed on the SQLite side
    assert sqlite.middleware.backend.stats.udf_calls > 0


def test_gateway_sessions_byte_identical_to_connections(backend_pair):
    """A gateway over each backend: its sessions return exactly what a direct
    MTConnection on that backend returns, and the two agree row for row."""
    engine, sqlite = backend_pair
    engine_gateway = engine.middleware.gateway(cache_size=64)
    sqlite_gateway = sqlite.middleware.gateway(cache_size=64)
    try:
        engine_session = engine_gateway.session(CLIENT, optimization="o4", scope="IN ()")
        sqlite_session = sqlite_gateway.session(CLIENT, optimization="o4", scope="IN ()")
        for query_id in (1, 6, 22):
            text = query_text(query_id)
            direct_engine = _connection(engine, "IN ()").query(text)
            direct_sqlite = _connection(sqlite, "IN ()").query(text)
            via_engine = engine_session.query(text)
            via_sqlite = sqlite_session.query(text)
            # byte-identical per backend: same pipeline, same backend
            assert via_engine.rows == direct_engine.rows
            assert via_sqlite.rows == direct_sqlite.rows
            # row-set-identical across backends
            assert normalized_rows(via_engine) == normalized_rows(via_sqlite)

        # warm path: a repeat execution hits each gateway's cache
        for gateway, session in (
            (engine_gateway, engine_session),
            (sqlite_gateway, sqlite_session),
        ):
            before = gateway.cache_stats.hits
            session.query(query_text(6))
            assert gateway.cache_stats.hits == before + 1
    finally:
        engine_gateway.close()
        sqlite_gateway.close()


def test_dml_differential_on_paper_example(paper_example_factory):
    """INSERT/UPDATE/DELETE through the middleware act identically on both
    backends (rowcounts and final table contents)."""
    engine_mt = paper_example_factory()
    sqlite_factory = SQLiteBackend()
    sqlite_mt = paper_example_factory(backend=sqlite_factory)
    try:
        for mt in (engine_mt, sqlite_mt):
            connection = mt.connect(0, optimization="o4")
            connection.set_scope("IN (0)")  # D' = {0}: DML acts on one owner
            inserted = connection.execute(
                "INSERT INTO Employees VALUES (7, 'Zoe', 1, 3, 42000, 33)"
            )
            assert inserted.rowcount == 1
            updated = connection.execute(
                "UPDATE Employees SET E_salary = 43000 WHERE E_name = 'Zoe'"
            )
            assert updated.rowcount == 1
            deleted = connection.execute("DELETE FROM Employees WHERE E_age > 40")
            assert deleted.rowcount == 1

        engine_rows = engine_mt.connect(0).query(
            "SELECT E_name, E_salary, E_age FROM Employees"
        )
        sqlite_rows = sqlite_mt.connect(0).query(
            "SELECT E_name, E_salary, E_age FROM Employees"
        )
        assert normalized_rows(engine_rows) == normalized_rows(sqlite_rows)
        assert engine_mt.backend.check_integrity() == []
        assert sqlite_mt.backend.check_integrity() == []
    finally:
        sqlite_factory.close()


def test_middleware_is_engine_free():
    """Acceptance guard: core/middleware.py must not import the engine."""
    import inspect

    import repro.core.middleware as middleware

    source = inspect.getsource(middleware)
    assert "engine.database" not in source
    assert "from ..engine" not in source
