"""The prepare-time static analyzer: negative corpus + MT-H positive sweep.

The negative corpus pins the error taxonomy of
``repro/compile/typecheck.py``: 25+ ill-typed statements, each asserting
that :class:`~repro.errors.TypeCheckError` is raised *at prepare time*
(no backend ever sees the statement) with a message naming the expected
fragment — including ambiguous references naming every candidate binding
and the same exception class arriving across the server wire.

The positive corpus is the paper's own workload: all 22 MT-H queries,
both scenarios, must pass the checker with zero diagnostics and return
exactly the rows a typecheck-disabled compile returns.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.errors import TypeCheckError
from repro.mth.loader import load_mth
from repro.mth.queries import ALL_QUERY_IDS, query_text
from repro.server import serve
from repro.server.protocol import WIRE_CODES
from repro.sql.types import SQLType

from tests.conftest import build_paper_example

#: the paper's two scenarios: business alliance (uniform), research (zipf)
SCENARIOS = ("uniform", "zipf")


@pytest.fixture(scope="module")
def mt():
    """Running example plus one middleware-declared UDF (for signature checks)."""
    instance = build_paper_example()
    instance.execute_ddl(
        "CREATE FUNCTION taxed (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2) AS "
        "'SELECT $1 * $2' LANGUAGE SQL IMMUTABLE"
    )
    return instance


@pytest.fixture(scope="module")
def conn(mt):
    connection = mt.connect(0, optimization="o4")
    connection.set_scope("IN (0, 1)")
    return connection


@pytest.fixture(scope="module", params=SCENARIOS)
def mth(request, tiny_tpch_data):
    return load_mth(data=tiny_tpch_data, tenants=4, distribution=request.param)


# ---------------------------------------------------------------------------
# negative corpus: every statement must be rejected at prepare time
# ---------------------------------------------------------------------------

#: (sql, fragment expected somewhere in the TypeCheckError message)
ILL_TYPED = [
    # -- name resolution ----------------------------------------------------
    ("SELECT E_namee FROM Employees", "unknown column 'E_namee'"),
    ("SELECT e.nope FROM Employees e", "'e' has no column 'nope'"),
    ("SELECT x.E_name FROM Employees e", "unknown table or alias 'x'"),
    ("SELECT x.* FROM Employees e", "unknown table or alias 'x'"),
    (
        "SELECT E_name FROM Employees a, Employees b WHERE a.E_emp_id = b.E_emp_id",
        "ambiguous column reference 'E_name': resolves in bindings a, b",
    ),
    # -- comparisons over the coercion lattice ------------------------------
    ("SELECT E_name FROM Employees WHERE E_name = 1", "cannot compare VARCHAR with INTEGER"),
    ("SELECT E_name FROM Employees WHERE E_age = 'old'", "cannot compare INTEGER with VARCHAR"),
    (
        "SELECT E_name FROM Employees WHERE E_age BETWEEN 'a' AND 'b'",
        "cannot compare INTEGER with VARCHAR",
    ),
    ("SELECT E_name FROM Employees WHERE E_age IN ('x', 'y')", "cannot compare INTEGER with VARCHAR"),
    (
        "SELECT E_name FROM Employees WHERE E_age IN (SELECT E_name FROM Employees)",
        "cannot compare INTEGER with VARCHAR",
    ),
    (
        "SELECT E_name FROM Employees WHERE E_age = (SELECT MIN(E_name) FROM Employees)",
        "cannot compare INTEGER with VARCHAR",
    ),
    # -- predicate shape ----------------------------------------------------
    ("SELECT E_name FROM Employees WHERE E_name", "the WHERE clause must be a boolean, not VARCHAR"),
    (
        "SELECT E_age FROM Employees GROUP BY E_age HAVING E_age + 1",
        "the HAVING clause must be a boolean, not INTEGER",
    ),
    (
        "SELECT E_name FROM Employees WHERE E_age > 1 AND E_name",
        "argument of AND must be a boolean, not VARCHAR",
    ),
    ("SELECT E_name FROM Employees WHERE NOT E_name", "argument of NOT must be a boolean"),
    (
        "SELECT CASE WHEN E_name THEN 1 ELSE 2 END FROM Employees",
        "CASE WHEN condition must be a boolean, not VARCHAR",
    ),
    # -- aggregate placement ------------------------------------------------
    (
        "SELECT E_name FROM Employees WHERE SUM(E_salary) > 10",
        "aggregate function SUM is not allowed in the WHERE clause",
    ),
    (
        "SELECT COUNT(*) FROM Employees GROUP BY MAX(E_age)",
        "aggregate function MAX is not allowed in the GROUP BY clause",
    ),
    (
        "SELECT E_name FROM Employees e JOIN Roles r ON SUM(e.E_role_id) = r.R_role_id",
        "aggregate function SUM is not allowed in a join condition",
    ),
    (
        "SELECT SUM(MAX(E_salary)) FROM Employees",
        "aggregate function MAX cannot be nested inside another aggregate",
    ),
    # -- the grouped-placement rule -----------------------------------------
    (
        "SELECT E_name, SUM(E_salary) FROM Employees GROUP BY E_age",
        "column E_name must appear in the GROUP BY clause",
    ),
    (
        "SELECT E_name, COUNT(*) FROM Employees",
        "column E_name must appear in the GROUP BY clause",
    ),
    (
        "SELECT E_age, COUNT(*) FROM Employees GROUP BY E_age HAVING E_name = 'x'",
        "column E_name must appear in the GROUP BY clause",
    ),
    (
        "SELECT E_age, COUNT(*) FROM Employees GROUP BY E_age ORDER BY E_salary",
        "column E_salary must appear in the GROUP BY clause",
    ),
    # -- aggregate/function argument types ----------------------------------
    ("SELECT SUM(E_name) FROM Employees", "SUM requires a numeric argument, not VARCHAR"),
    ("SELECT AVG(R_name) FROM Roles", "AVG requires a numeric argument, not VARCHAR"),
    ("SELECT MIN(E_age, E_salary) FROM Employees", "MIN takes exactly one argument, got 2"),
    # -- UDF signatures (declared through CREATE FUNCTION) ------------------
    ("SELECT taxed(E_salary) FROM Employees", "function taxed takes 2 argument(s), got 1"),
    (
        "SELECT taxed(E_name, 0) FROM Employees",
        "argument 1 of taxed expects DECIMAL, got VARCHAR",
    ),
    # -- arithmetic and string operators ------------------------------------
    ("SELECT E_name + 1 FROM Employees", "VARCHAR is not numeric"),
    ("SELECT E_age || E_name FROM Employees", "|| requires strings, not INTEGER"),
    ("SELECT -E_name FROM Employees", "unary '-'"),
    ("SELECT E_name FROM Employees WHERE E_age LIKE 'x%'", "LIKE requires strings, not INTEGER"),
    ("SELECT EXTRACT(YEAR FROM E_age) FROM Employees", "EXTRACT requires a date, not INTEGER"),
    ("SELECT SUBSTRING(E_age FROM 1 FOR 2) FROM Employees", "SUBSTRING requires a string"),
    ("SELECT SUBSTRING(E_name FROM E_name) FROM Employees", "SUBSTRING bounds must be numeric"),
    # -- bind-parameter slots -----------------------------------------------
]


def test_conflicting_parameter_slot_rejected(conn):
    with pytest.raises(TypeCheckError) as excinfo:
        conn.query(
            "SELECT E_name FROM Employees WHERE E_name = ?1 AND E_age < ?1",
            parameters=("x",),
        )
    assert "parameter 1 is used as both VARCHAR and INTEGER" in str(excinfo.value)


@pytest.mark.parametrize(
    "sql, fragment", ILL_TYPED, ids=[sql[:48] for sql, _ in ILL_TYPED]
)
def test_ill_typed_statement_rejected_at_prepare(conn, sql, fragment):
    with pytest.raises(TypeCheckError) as excinfo:
        conn.query(sql)
    assert fragment in str(excinfo.value), (
        f"expected {fragment!r} in {excinfo.value}"
    )


#: date-typed negatives need MT-H (the running example has no DATE column)
ILL_TYPED_DATES = [
    ("SELECT l_shipdate * 2 FROM lineitem", "cannot apply '*' to DATE and INTEGER"),
    ("SELECT l_shipdate + l_commitdate FROM lineitem", "cannot apply '+' to DATE and DATE"),
    ("SELECT l_quantity FROM lineitem WHERE l_shipdate = 5", "cannot compare DATE with INTEGER"),
]


@pytest.mark.parametrize("sql, fragment", ILL_TYPED_DATES, ids=["mul", "add", "cmp"])
def test_ill_typed_date_arithmetic_rejected(mth, sql, fragment):
    connection = mth.middleware.connect(1, optimization="o4")
    connection.set_scope("IN ()")
    with pytest.raises(TypeCheckError) as excinfo:
        connection.query(sql)
    assert fragment in str(excinfo.value)


def test_error_carries_the_offending_fragment(conn):
    with pytest.raises(TypeCheckError) as excinfo:
        conn.query("SELECT E_name FROM Employees WHERE E_name = 1")
    assert excinfo.value.fragment == "E_name = 1"


def test_backend_never_sees_a_rejected_statement(mt):
    connection = mt.connect(0, optimization="o4")
    connection.set_scope("IN (0, 1)")
    before = mt.backend.stats.statements
    with pytest.raises(TypeCheckError):
        connection.query("SELECT E_namee FROM Employees")
    assert mt.backend.stats.statements == before


def test_mistyped_bind_value_rejected_at_execute(conn):
    sql = "SELECT E_name FROM Employees WHERE E_salary > ?"
    assert conn.query(sql, parameters=(100_000,)).rows  # sanity: slot works
    with pytest.raises(TypeCheckError) as excinfo:
        conn.query(sql, parameters=("oops",))
    assert "parameter 1 expects DECIMAL, got VARCHAR" in str(excinfo.value)


def _mistyped_on(mt, target, sql):
    """Execute ``sql`` with the bind value ``'oops'`` through ``target``."""
    if target in ("connection", "connection-stream"):
        connection = mt.connect(0, optimization="o4")
        connection.set_scope("IN (0, 1)")
        run = connection.query_stream if target.endswith("stream") else connection.query
        return run(sql, parameters=("oops",))
    if target in ("gateway", "gateway-stream"):
        gateway = mt.gateway()
        try:
            session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
            run = session.execute_incremental if target.endswith("stream") else session.query
            return run(sql, parameters=("oops",))
        finally:
            gateway.close()
    with serve(mt) as live:
        host, port = live.address
        spec = f"server://{host}:{port}"
        with api.connect(spec, client=0, optimization="o4", scope="IN (0, 1)") as remote:
            return remote.cursor().execute(sql, ("oops",))


@pytest.mark.parametrize(
    "target",
    ["connection", "connection-stream", "gateway", "gateway-stream", "server"],
)
def test_mistyped_bind_value_rejected_on_every_target(mt, target):
    """Every SELECT path checks bind values before the backend runs anything."""
    before = mt.backend.stats.statements
    with pytest.raises(TypeCheckError, match="parameter 1 expects DECIMAL, got VARCHAR"):
        _mistyped_on(mt, target, "SELECT E_name FROM Employees WHERE E_salary > ?")
    assert mt.backend.stats.statements == before


def test_typecheck_error_travels_the_wire_as_itself(mt):
    assert WIRE_CODES["TYPECHECK"] is TypeCheckError
    with serve(mt) as live:
        host, port = live.address
        spec = f"server://{host}:{port}"
        with api.connect(spec, client=0, optimization="o4", scope="IN (0, 1)") as remote:
            cursor = remote.cursor()
            with pytest.raises(TypeCheckError, match="unknown column"):
                cursor.execute("SELECT E_namee FROM Employees")
            # the connection survives the rejected statement
            assert cursor.execute("SELECT E_name FROM Employees").fetchall()


# ---------------------------------------------------------------------------
# positive corpus: the paper's workload is typecheck-clean
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_all_mth_queries_typecheck_clean(mth, query_id):
    """Every MT-H query passes the checker and leaves SemanticFacts."""
    connection = mth.middleware.connect(1, optimization="o4")
    connection.set_scope("IN (1, 3)")
    assert connection.compile(query_text(query_id)).facts is not None


def test_facts_on_the_artifact(mth):
    """A clean walk leaves SemanticFacts on the CompiledQuery."""
    connection = mth.middleware.connect(1, optimization="o4")
    connection.set_scope("IN (1, 3)")
    compiled = connection.compile(
        "SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
        "WHERE l_quantity < ?1 GROUP BY l_returnflag"
    )
    facts = compiled.facts
    assert facts is not None
    # the slot type comes from the comparison context
    assert facts.parameter_types[1] is SQLType.DECIMAL
    # schema-proven NOT NULL sets, keyed by base-table name, ttid included
    lineitem = facts.proven_not_null["lineitem"]
    assert "l_quantity" in lineitem and "l_ttid" in lineitem
    # the rewritten statement's column-provenance map is populated
    assert facts.column_owners
    assert facts.expression_types
