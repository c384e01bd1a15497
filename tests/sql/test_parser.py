"""Unit tests for the SQL / MTSQL parser."""

import pytest

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_query, parse_statement, parse_statements
from repro.sql.types import Interval, IntervalUnit, date_from_string


class TestSelectParsing:
    def test_simple_select(self):
        query = parse_query("SELECT a, b FROM t")
        assert [item.expr.name for item in query.items] == ["a", "b"]
        assert isinstance(query.from_items[0], ast.TableRef)
        assert query.from_items[0].name == "t"

    def test_select_star_and_qualified_star(self):
        query = parse_query("SELECT *, t.* FROM t")
        assert isinstance(query.items[0].expr, ast.Star)
        assert query.items[1].expr.table == "t"

    def test_aliases_with_and_without_as(self):
        query = parse_query("SELECT a AS x, b y FROM t")
        assert query.items[0].alias == "x"
        assert query.items[1].alias == "y"

    def test_distinct_and_limit(self):
        query = parse_query("SELECT DISTINCT a FROM t LIMIT 10")
        assert query.distinct is True
        assert query.limit == 10

    def test_where_group_having_order(self):
        query = parse_query(
            "SELECT a, COUNT(*) AS c FROM t WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2 "
            "ORDER BY c DESC, a"
        )
        assert isinstance(query.where, ast.BinaryOp)
        assert len(query.group_by) == 1
        assert query.having is not None
        assert query.order_by[0].descending is True
        assert query.order_by[1].descending is False

    def test_table_alias(self):
        query = parse_query("SELECT E1.a FROM Employees E1, Employees AS E2")
        assert query.from_items[0].alias == "E1"
        assert query.from_items[1].alias == "E2"

    def test_derived_table_requires_alias(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM (SELECT 1)")

    def test_derived_table(self):
        query = parse_query("SELECT x FROM (SELECT a AS x FROM t) AS sub")
        sub = query.from_items[0]
        assert isinstance(sub, ast.SubqueryRef)
        assert sub.alias == "sub"

    def test_explicit_joins(self):
        query = parse_query(
            "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id"
        )
        join = query.from_items[0]
        assert isinstance(join, ast.Join)
        assert join.join_type is ast.JoinType.LEFT
        assert isinstance(join.left, ast.Join)
        assert join.left.join_type is ast.JoinType.INNER

    def test_cross_join(self):
        query = parse_query("SELECT * FROM a CROSS JOIN b")
        assert query.from_items[0].join_type is ast.JoinType.CROSS

    def test_missing_from_is_allowed(self):
        query = parse_query("SELECT 1 + 1 AS two")
        assert query.from_items == []


class TestExpressionParsing:
    def test_operator_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "NOT"

    def test_parentheses_override_precedence(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_comparison_operators_normalized(self):
        assert parse_expression("a != b").op == "<>"
        assert parse_expression("a <> b").op == "<>"

    def test_between_and_not_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between) and not expr.negated
        assert parse_expression("x NOT BETWEEN 1 AND 10").negated is True

    def test_in_list_and_subquery(self):
        in_list = parse_expression("x IN (1, 2, 3)")
        assert isinstance(in_list, ast.InList) and len(in_list.items) == 3
        in_sub = parse_expression("x IN (SELECT y FROM t)")
        assert isinstance(in_sub, ast.InSubquery)
        assert parse_expression("x NOT IN (1)").negated is True

    def test_like_and_not_like(self):
        expr = parse_expression("name LIKE '%green%'")
        assert isinstance(expr, ast.Like)
        assert parse_expression("name NOT LIKE 'a%'").negated is True

    def test_is_null(self):
        assert isinstance(parse_expression("x IS NULL"), ast.IsNull)
        assert parse_expression("x IS NOT NULL").negated is True

    def test_exists(self):
        expr = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert isinstance(expr, ast.Exists)

    def test_scalar_subquery(self):
        expr = parse_expression("x > (SELECT AVG(y) FROM t)")
        assert isinstance(expr.right, ast.ScalarSubquery)

    def test_case_when(self):
        expr = parse_expression("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END")
        assert isinstance(expr, ast.Case)
        assert len(expr.whens) == 2
        assert expr.else_result == ast.Literal("many")

    def test_date_and_interval_literals(self):
        date_literal = parse_expression("DATE '1998-12-01'")
        assert date_literal.value == date_from_string("1998-12-01")
        interval = parse_expression("INTERVAL '3' MONTH")
        assert interval.value == Interval(3, IntervalUnit.MONTH)
        assert parse_expression("INTERVAL '90' day").value.unit is IntervalUnit.DAY

    def test_extract(self):
        expr = parse_expression("EXTRACT(YEAR FROM o_orderdate)")
        assert isinstance(expr, ast.Extract) and expr.part == "YEAR"

    def test_substring_both_syntaxes(self):
        ansi = parse_expression("SUBSTRING(c_phone FROM 1 FOR 2)")
        comma = parse_expression("SUBSTRING(c_phone, 1, 2)")
        assert isinstance(ansi, ast.Substring) and isinstance(comma, ast.Substring)
        assert ansi.start == comma.start

    def test_function_call_with_distinct(self):
        expr = parse_expression("COUNT(DISTINCT ps_suppkey)")
        assert expr.distinct is True

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr.args[0], ast.Star)

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert isinstance(expr.left, ast.UnaryOp)

    def test_string_concatenation_operator(self):
        assert parse_expression("a || b").op == "||"

    def test_null_true_false_literals(self):
        assert parse_expression("NULL").value is None
        assert parse_expression("TRUE").value is True
        assert parse_expression("FALSE").value is False


class TestDDLParsing:
    def test_create_table_with_mt_annotations(self):
        statement = parse_statement(
            """CREATE TABLE Employees SPECIFIC (
                E_emp_id INTEGER NOT NULL SPECIFIC,
                E_name VARCHAR(25) NOT NULL COMPARABLE,
                E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
                CONSTRAINT pk_emp PRIMARY KEY (E_emp_id),
                CONSTRAINT fk_emp FOREIGN KEY (E_role_id) REFERENCES Roles (R_role_id)
            )"""
        )
        assert isinstance(statement, ast.CreateTable)
        assert statement.generality is ast.TableGenerality.SPECIFIC
        by_name = {column.name: column for column in statement.columns}
        assert by_name["E_emp_id"].comparability is ast.Comparability.SPECIFIC
        assert by_name["E_name"].comparability is ast.Comparability.COMPARABLE
        assert by_name["E_salary"].comparability is ast.Comparability.CONVERTIBLE
        assert by_name["E_salary"].to_universal == "currencyToUniversal"
        kinds = [constraint.kind for constraint in statement.constraints]
        assert ast.ConstraintKind.PRIMARY_KEY in kinds
        assert ast.ConstraintKind.FOREIGN_KEY in kinds

    def test_create_table_global_default(self):
        statement = parse_statement("CREATE TABLE Regions (r_id INTEGER NOT NULL)")
        assert statement.generality is None
        assert statement.columns[0].not_null is True

    def test_create_table_check_constraint(self):
        statement = parse_statement(
            "CREATE TABLE t (a INTEGER, CONSTRAINT chk CHECK (a > 0))"
        )
        assert statement.constraints[0].kind is ast.ConstraintKind.CHECK

    def test_create_function(self):
        statement = parse_statement(
            "CREATE FUNCTION f (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2) "
            "AS 'SELECT $1 * 2' LANGUAGE SQL IMMUTABLE"
        )
        assert isinstance(statement, ast.CreateFunction)
        assert statement.arg_types == ("DECIMAL(15,2)", "INTEGER")
        assert statement.immutable is True
        assert "$1" in statement.body

    def test_create_view_and_drop(self):
        view = parse_statement("CREATE VIEW v AS SELECT a FROM t")
        assert isinstance(view, ast.CreateView)
        assert isinstance(parse_statement("DROP TABLE t"), ast.DropTable)
        assert parse_statement("DROP TABLE IF EXISTS t").if_exists is True
        assert isinstance(parse_statement("DROP VIEW v"), ast.DropView)


class TestDMLAndDCLParsing:
    def test_insert_values(self):
        statement = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert statement.columns == ("a", "b")
        assert len(statement.rows) == 2

    def test_insert_select(self):
        statement = parse_statement("INSERT INTO t (a) SELECT a FROM s WHERE a > 1")
        assert statement.query is not None

    def test_update(self):
        statement = parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE a < 5")
        assert len(statement.assignments) == 2
        assert statement.where is not None

    def test_delete(self):
        statement = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(statement, ast.Delete)

    def test_grant_and_revoke(self):
        grant = parse_statement("GRANT READ ON Employees TO 42")
        assert isinstance(grant, ast.Grant)
        assert grant.privileges == ("READ",)
        assert grant.grantee == 42
        grant_all = parse_statement("GRANT READ, UPDATE ON Employees TO ALL")
        assert grant_all.grantee == "ALL"
        revoke = parse_statement("REVOKE READ ON Employees FROM 42")
        assert isinstance(revoke, ast.Revoke)

    def test_set_scope(self):
        statement = parse_statement('SET SCOPE = "IN (1, 3, 42)"')
        assert isinstance(statement, ast.SetScope)
        assert statement.scope_text == "IN (1, 3, 42)"


class TestScriptsAndErrors:
    def test_parse_statements_script(self):
        statements = parse_statements("SELECT 1; SELECT 2;  ")
        assert len(statements) == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT 1 FROM t garbage garbage garbage")

    def test_unknown_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("VACUUM t")

    def test_incomplete_expression_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 +")

    def test_parse_query_rejects_non_select(self):
        with pytest.raises(ParseError):
            parse_query("DELETE FROM t")
