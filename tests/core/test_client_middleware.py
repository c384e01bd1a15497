"""The MTBase middleware and client connections (Figure 4 pipeline)."""

import pytest

from repro.core import MTBase, OptimizationLevel
from repro.errors import MTSQLError, PrivilegeError, RewriteError
from repro.result import StatementResult
from repro.sql import ast
from repro.sql.parser import parse_statement


class TestMiddlewareDDL:
    def test_tenant_specific_table_gets_ttid_column(self, paper_mt_session):
        table = paper_mt_session.database.catalog.table("Employees")
        assert table.schema.column_names[0] == "E_ttid"
        assert paper_mt_session.schema.table("Employees").is_tenant_specific

    def test_global_table_has_no_ttid_column(self, paper_mt_session):
        table = paper_mt_session.database.catalog.table("Regions")
        assert "ttid" not in [column.lower() for column in table.schema.column_names]

    def test_primary_key_extended_with_ttid(self, paper_mt_session):
        table = paper_mt_session.database.catalog.table("Employees")
        assert table.schema.primary_key == ("E_ttid", "E_emp_id")

    def test_foreign_key_extended_with_ttid(self, paper_mt_session):
        foreign_keys = paper_mt_session.database.catalog.foreign_keys("Employees")
        assert foreign_keys
        assert "E_ttid" in foreign_keys[0].columns
        assert "R_ttid" in foreign_keys[0].ref_columns

    def test_unregistered_tenant_cannot_connect(self, paper_mt_session):
        with pytest.raises(MTSQLError):
            paper_mt_session.connect(99)

    def test_connect_accepts_level_objects_and_names(self, paper_mt_session):
        assert paper_mt_session.connect(0, optimization=OptimizationLevel.O2).optimization is OptimizationLevel.O2
        assert paper_mt_session.connect(0, optimization="o1").optimization is OptimizationLevel.O1
        assert paper_mt_session.connect(0).optimization is OptimizationLevel.O4

    def test_create_table_via_execute_ddl_text(self):
        middleware = MTBase()
        middleware.execute_ddl("CREATE TABLE notes GLOBAL (n_id INTEGER NOT NULL, n_text VARCHAR(50))")
        assert middleware.database.catalog.has_table("notes")
        middleware.execute_ddl("DROP TABLE notes")
        assert not middleware.database.catalog.has_table("notes")

    def test_non_ddl_statement_rejected_by_execute_ddl(self):
        middleware = MTBase()
        with pytest.raises(MTSQLError):
            middleware.execute_ddl("DELETE FROM t")


class TestConnectionScopesAndPrivileges:
    def test_default_scope_is_own_data(self, paper_mt_session):
        connection = paper_mt_session.connect(0)
        assert connection.dataset() == (0,)
        assert connection.query("SELECT COUNT(*) AS c FROM Employees").scalar() == 3

    def test_set_scope_statement(self, paper_mt_session):
        connection = paper_mt_session.connect(0)
        result = connection.execute('SET SCOPE = "IN (0, 1)"')
        assert isinstance(result, StatementResult)
        assert connection.dataset() == (0, 1)
        connection.reset_scope()
        assert connection.dataset() == (0,)

    def test_empty_scope_means_all_tenants(self, paper_mt_session):
        connection = paper_mt_session.connect(1)
        connection.set_scope("IN ()")
        assert connection.dataset() == (0, 1)

    def test_complex_scope_resolution(self, paper_mt_session):
        connection = paper_mt_session.connect(0)
        connection.execute('SET SCOPE = "FROM Employees WHERE E_salary > 180000"')
        # 180k USD: only tenant 1 has salaries above it (200k, 1M EUR -> 220k, 1.1M USD)
        assert connection.dataset() == (1,)

    def test_complex_scope_in_client_format(self, paper_mt_session):
        connection = paper_mt_session.connect(1)
        connection.execute('SET SCOPE = "FROM Employees WHERE E_salary > 180000"')
        # 180k EUR = 198k USD: tenant 1 qualifies (200k, 1M); tenant 0 does not (max 150k)
        assert connection.dataset() == (1,)

    def test_privilege_pruning_blocks_unshared_tenants(self):
        from tests.conftest import build_paper_example

        middleware = build_paper_example()
        # replace the public grant with nothing: tenants only see their own data
        middleware.privileges.revoke_public("Employees", ["READ", "INSERT", "UPDATE", "DELETE"])
        middleware.privileges.revoke_public("Roles", ["READ", "INSERT", "UPDATE", "DELETE"])
        connection = middleware.connect(0)
        connection.set_scope("IN (0, 1)")
        assert connection.query("SELECT COUNT(*) AS c FROM Employees").scalar() == 3
        # an explicit grant opens tenant 1's rows
        grantor = middleware.connect(1)
        grantor.execute("GRANT READ ON Employees TO 0")
        assert connection.query("SELECT COUNT(*) AS c FROM Employees").scalar() == 6

    def test_privilege_pruning_sees_tables_of_every_nested_query(self, paper_mt_session):
        """A sub-query in any clause — or in an UPDATE's SET — names tables
        the data set is pruned on (the walk used to stop at SELECT items,
        WHERE and HAVING)."""
        connection = paper_mt_session.connect(0)
        for text in (
            "SELECT E_name FROM Employees ORDER BY (SELECT MAX(R_role_id) FROM Roles)",
            "SELECT E_name FROM Employees GROUP BY E_name, (SELECT MAX(R_role_id) FROM Roles)",
            "UPDATE Employees SET E_role_id = (SELECT MAX(R_role_id) FROM Roles)",
        ):
            assert connection.statement_tables(parse_statement(text)) == {"Employees", "Roles"}
        assert connection.statement_tables(parse_statement("SELECT * FROM Regions")) == set()

    def test_query_with_no_readable_tenant_raises(self):
        from tests.conftest import build_paper_example

        middleware = build_paper_example()
        middleware.privileges.revoke_public("Employees", ["READ", "INSERT", "UPDATE", "DELETE"])
        connection = middleware.connect(0)
        connection.set_scope("IN (1)")
        with pytest.raises(PrivilegeError):
            connection.query("SELECT COUNT(*) AS c FROM Employees")

    def test_revoke_takes_effect(self):
        from tests.conftest import build_paper_example

        middleware = build_paper_example()
        middleware.privileges.revoke_public("Employees", ["READ", "INSERT", "UPDATE", "DELETE"])
        grantor = middleware.connect(1)
        grantor.execute("GRANT READ ON Employees TO 0")
        reader = middleware.connect(0)
        reader.set_scope("IN (0, 1)")
        assert reader.query("SELECT COUNT(*) AS c FROM Employees").scalar() == 6
        grantor.execute("REVOKE READ ON Employees FROM 0")
        assert reader.query("SELECT COUNT(*) AS c FROM Employees").scalar() == 3


class TestResultPresentation:
    def test_results_presented_in_client_format(self, paper_mt_session):
        usd = paper_mt_session.connect(0)
        usd.set_scope("IN (1)")
        eur = paper_mt_session.connect(1)
        eur.set_scope("IN (1)")
        usd_value = usd.query("SELECT MAX(E_salary) AS top FROM Employees").scalar()
        eur_value = eur.query("SELECT MAX(E_salary) AS top FROM Employees").scalar()
        assert usd_value == pytest.approx(1_000_000 * 1.1)
        assert eur_value == pytest.approx(1_000_000)

    def test_star_select_hides_ttid_from_clients(self, paper_mt_session):
        connection = paper_mt_session.connect(0)
        connection.set_scope("IN (0, 1)")
        result = connection.query("SELECT * FROM Roles ORDER BY R_name LIMIT 1")
        assert [column.lower() for column in result.columns] == ["r_role_id", "r_name"]

    def test_rewrite_sql_exposes_statement_sent_to_dbms(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="canonical")
        connection.set_scope("IN (0, 1)")
        text = connection.rewrite_sql("SELECT E_salary FROM Employees")
        assert "currencyFromUniversal" in text
        assert connection.rewrite("SELECT E_salary FROM Employees")  # AST form

    def test_last_rewritten_recorded(self, paper_mt_session):
        connection = paper_mt_session.connect(0)
        connection.set_scope("IN (0, 1)")
        connection.query("SELECT COUNT(*) AS c FROM Employees")
        assert len(connection.last_rewritten) == 1
        assert isinstance(connection.last_rewritten[0], ast.Select)

    def test_rewrite_rejects_non_select(self, paper_mt_session):
        connection = paper_mt_session.connect(0)
        with pytest.raises(MTSQLError):
            connection.rewrite("DELETE FROM Employees")


class TestViews:
    def test_tenant_view_is_scoped_and_client_formatted(self, paper_mt):
        connection = paper_mt.connect(0)
        connection.execute(
            "CREATE VIEW my_seniors AS SELECT E_name, E_salary FROM Employees WHERE E_age > 40"
        )
        rows = paper_mt.database.query("SELECT * FROM my_seniors ORDER BY E_name").rows
        # only tenant 0's seniors (default scope), salary already in USD
        assert rows == [("Alice", 150_000)]

    def test_cross_tenant_view(self, paper_mt):
        connection = paper_mt.connect(0)
        connection.set_scope("IN (0, 1)")
        connection.execute(
            "CREATE VIEW all_seniors AS SELECT E_name, E_salary FROM Employees WHERE E_age > 40"
        )
        rows = paper_mt.database.query("SELECT * FROM all_seniors ORDER BY E_name").rows
        names = [name for name, _ in rows]
        assert names == ["Alice", "Ed", "Nancy"]
        salaries = dict(rows)
        assert salaries["Ed"] == pytest.approx(1_100_000)
