"""Gateway sessions driven from many threads at once."""

import threading

import pytest

from repro.errors import ReproError
from repro.gateway import QueryGateway

from tests.conftest import build_paper_example

SQL_BY_NAME = "SELECT E_name, E_salary FROM Employees ORDER BY E_name"
SQL_TOTALS = (
    "SELECT E_reg_id, SUM(E_salary) AS total FROM Employees "
    "GROUP BY E_reg_id ORDER BY E_reg_id"
)
SQL_JOIN = (
    "SELECT R_name, COUNT(*) AS heads FROM Employees, Roles "
    "WHERE E_role_id = R_role_id GROUP BY R_name ORDER BY R_name"
)


@pytest.fixture
def mt():
    return build_paper_example()


def expected_rows(mt, client, sql):
    connection = mt.connect(client, optimization="o4")
    connection.set_scope("IN (0, 1)")
    return connection.query(sql).rows


def run_in_threads(batches):
    """Run each ``(session, statements)`` batch on a thread of its own, all
    at once; return each batch's results in order, and what any raised."""
    results = [[] for _ in batches]
    failures = []

    def drive(session, statements, out):
        try:
            for statement in statements:
                out.append(session.execute(statement))
        except Exception as exc:  # pragma: no cover - only on failure
            failures.append(exc)

    threads = [
        threading.Thread(target=drive, args=(session, statements, out))
        for (session, statements), out in zip(batches, results)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, failures


def test_concurrent_sessions_return_correct_results(mt):
    gateway = mt.gateway(cache_size=64)
    statements = [SQL_BY_NAME, SQL_TOTALS, SQL_JOIN] * 4
    batches = [
        (gateway.session(client, optimization="o4", scope="IN (0, 1)"), statements)
        for client in (0, 1, 0, 1)
    ]
    results, failures = run_in_threads(batches)

    assert failures == []
    for (session, _), session_results in zip(batches, results):
        assert [result.rows for result in session_results] == [
            expected_rows(mt, session.client, sql) for sql in statements
        ]
    # 6 distinct (digest, client, D', level) plans; same-key sessions racing the
    # first rewrite can each record a miss, so the floor is exact, the count not
    stats = gateway.cache_stats
    assert stats.misses >= 6
    assert stats.hits + stats.misses == len(batches) * len(statements)
    assert len(gateway.cache) == 6
    gateway.close()


def test_a_failing_statement_leaves_its_session_usable(mt):
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    reference = expected_rows(mt, 0, SQL_BY_NAME)
    assert session.query(SQL_BY_NAME).rows == reference
    with pytest.raises(ReproError):
        session.execute("SELECT nonsense_column FROM Employees")
    assert session.query(SQL_BY_NAME).rows == reference
    gateway.close()


def test_one_session_shared_by_many_threads_is_serialized(mt):
    """The session lock makes even *misuse* (one session, many threads) safe."""
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    reference = expected_rows(mt, 0, SQL_BY_NAME)
    failures = []

    def hammer():
        try:
            for _ in range(5):
                assert session.query(SQL_BY_NAME).rows == reference
        except Exception as exc:  # pragma: no cover - only on failure
            failures.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert session.stats.executed == 40
    gateway.close()


def test_concurrent_dml_loses_no_writes(mt):
    """The engine's write lock: racing INSERT batches must all land."""
    gateway = mt.gateway()
    writers = 6
    per_writer = 5
    batches = []
    for worker in range(writers):
        session = gateway.session(0, optimization="o4")  # default scope: own rows
        statements = [
            f"INSERT INTO Employees VALUES ({100 + worker * per_writer + i}, "
            f"'W{worker}_{i}', 0, 1, 1000, 30)"
            for i in range(per_writer)
        ]
        batches.append((session, statements))
    _, failures = run_in_threads(batches)
    assert failures == []
    count = mt.connect(0).query("SELECT COUNT(*) AS n FROM Employees").rows[0][0]
    assert count == 3 + writers * per_writer  # 3 seed rows for tenant 0
    gateway.close()


def test_gateway_context_manager_detaches_listener(mt):
    with QueryGateway(mt) as gateway:
        session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
        session.query(SQL_BY_NAME)
        assert len(gateway.cache) == 1
    mt.execute_ddl("CREATE TABLE Scratch GLOBAL (S_id INTEGER NOT NULL)")
    assert gateway.cache_stats.invalidations == 0


def test_the_gateway_is_a_cache_and_runs_no_worker_pool(mt):
    """Concurrency belongs to the server: the gateway takes no worker count."""
    with pytest.raises(TypeError):
        mt.gateway(max_workers=4)
    with pytest.raises(TypeError):
        QueryGateway(mt, max_workers=4)
    gateway = mt.gateway(cache_size=8)
    assert not hasattr(gateway, "run_concurrent")
    assert not hasattr(gateway, "executor")
    assert gateway.cache.capacity == 8
    gateway.close()
