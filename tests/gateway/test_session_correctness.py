"""Cache correctness: warm-path results are byte-identical to the cold path.

The acceptance bar for the gateway: for every optimization level, executing
through the rewrite cache must return exactly what a direct
:class:`MTConnection` returns — same column headers, same row tuples, same
floats (the cached plan *is* the cold plan, so even rounding agrees).
"""

import pytest

from repro.errors import MTSQLError, PrivilegeError
from repro.gateway import fingerprint_statement
from repro.gateway import session as session_module

from tests.conftest import build_paper_example

LEVELS = ("canonical", "o1", "o2", "o3", "o4", "inl-only")

QUERIES = (
    "SELECT E_name, E_salary FROM Employees ORDER BY E_name",
    "SELECT E_reg_id, SUM(E_salary) AS total FROM Employees "
    "GROUP BY E_reg_id ORDER BY E_reg_id",
    "SELECT R_name, AVG(E_salary) AS pay FROM Employees, Roles "
    "WHERE E_role_id = R_role_id GROUP BY R_name ORDER BY R_name",
    "SELECT E_name FROM Employees "
    "WHERE E_salary > (SELECT AVG(E_salary) FROM Employees) ORDER BY E_name",
)


@pytest.fixture(scope="module")
def mt():
    return build_paper_example()


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("client", (0, 1))
def test_warm_cache_is_byte_identical_to_cold_path(mt, level, client):
    gateway = mt.gateway()
    session = gateway.session(client, optimization=level, scope="IN (0, 1)")
    direct = mt.connect(client, optimization=level)
    direct.set_scope("IN (0, 1)")
    for sql in QUERIES:
        cold = session.query(sql)
        warm = session.query(sql)
        reference = direct.query(sql)
        assert warm.columns == cold.columns == reference.columns
        assert warm.rows == cold.rows == reference.rows  # exact, not approx
    assert gateway.cache_stats.hits == len(QUERIES)
    gateway.close()


def test_warm_path_skips_parse_entirely(mt, monkeypatch):
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    sql = "SELECT E_name FROM Employees ORDER BY E_name"
    cold = session.query(sql).rows
    parses = []

    def counting_parse(text):
        parses.append(text)
        raise AssertionError("warm path must not parse")

    monkeypatch.setattr(session_module, "parse_submitted_statement", counting_parse)
    assert session.query(sql).rows == cold
    assert parses == []
    gateway.close()


def test_prepared_statements_follow_scope_changes(mt):
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    handle = session.prepare("SELECT E_name FROM Employees ORDER BY E_name")
    joint = session.execute(handle).rows
    own = session.execute(handle, scope="IN (0)").rows
    assert len(own) < len(joint)
    direct = mt.connect(0, optimization="o4")
    direct.set_scope("IN (0)")
    assert own == direct.query("SELECT E_name FROM Employees ORDER BY E_name").rows
    # the two scopes occupy distinct cache keys; flipping back hits the cache
    hits_before = gateway.cache_stats.hits
    assert session.execute(handle, scope="IN (0, 1)").rows == joint
    assert gateway.cache_stats.hits == hits_before + 1
    gateway.close()


def test_unknown_prepared_handle_raises(mt):
    gateway = mt.gateway()
    session = gateway.session(0)
    with pytest.raises(MTSQLError, match="prepared-statement handle"):
        session.execute(12345)
    gateway.close()


def test_set_scope_statement_is_delegated(mt):
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    session.execute('SET SCOPE = "IN (0)"')
    assert session.scope.describe() == "IN (0)"
    gateway.close()


def test_privilege_errors_match_the_cold_path():
    mt = build_paper_example()
    mt.privileges.revoke_public("Employees", ("READ",))
    mt.notify_metadata_change()
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4", scope="IN (1)")
    direct = mt.connect(0, optimization="o4")
    direct.set_scope("IN (1)")
    sql = "SELECT E_name FROM Employees"
    with pytest.raises(PrivilegeError):
        direct.query(sql)
    with pytest.raises(PrivilegeError):
        session.query(sql)


def test_query_rejects_non_select():
    gateway = build_paper_example().gateway()  # fresh: the INSERT executes first
    session = gateway.session(0)
    with pytest.raises(MTSQLError, match="SELECT"):
        session.query("INSERT INTO Employees VALUES (99, 'X', 0, 1, 1, 1)")
    gateway.close()


def test_reprs_show_tenant_scope_and_level(mt):
    gateway = mt.gateway()
    session = gateway.session(1, optimization="o2", scope="IN (0, 1)")
    assert "client=1" in repr(session)
    assert "IN (0, 1)" in repr(session)
    assert "o2" in repr(session)
    connection = mt.connect(0, optimization="canonical")
    assert "client=0" in repr(connection)
    assert "DEFAULT" in repr(connection)
    assert "canonical" in repr(connection)
    assert "QueryGateway(" in repr(gateway)
    gateway.close()


def test_fingerprint_reuse_across_sessions(mt):
    """Two sessions of the same tenant share cached plans."""
    gateway = mt.gateway()
    first = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    second = gateway.session(0, optimization="o4", scope="IN (0, 1)")
    sql = "SELECT E_name, E_age FROM Employees ORDER BY E_name"
    cold = first.query(sql).rows
    assert second.query(sql).rows == cold
    assert gateway.cache_stats.hits == 1
    assert fingerprint_statement(sql) == fingerprint_statement(f"  {sql}  ")
    gateway.close()
