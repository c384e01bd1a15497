"""Printer tests including property-based print→parse round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import ast
from repro.sql.parser import parse_expression, parse_query, parse_statement
from repro.sql.printer import to_sql
from repro.sql.types import date_from_string


class TestPrinterBasics:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, b AS x FROM t WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 5",
            "SELECT DISTINCT a FROM t",
            "SELECT * FROM a, b WHERE a.id = b.id",
            "SELECT x FROM (SELECT a AS x FROM t) AS sub",
            "SELECT * FROM a LEFT JOIN b ON a.id = b.id",
            "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END AS label FROM t",
            "SELECT SUM(a * (1 - b)) AS revenue FROM t WHERE c IN (1, 2, 3)",
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.id = t.id)",
            "SELECT a FROM t WHERE d BETWEEN DATE '1994-01-01' AND DATE '1995-01-01'",
            "SELECT SUBSTRING(phone FROM 1 FOR 2) AS code FROM t",
            "SELECT EXTRACT(YEAR FROM d) AS y FROM t",
            "SELECT a FROM t WHERE name NOT LIKE '%x%' AND b IS NOT NULL",
        ],
    )
    def test_query_round_trip(self, sql):
        first = parse_query(sql)
        printed = to_sql(first)
        second = parse_query(printed)
        assert to_sql(second) == printed

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t (a, b) VALUES (1, 'x')",
            "UPDATE t SET a = a + 1 WHERE b = 2",
            "DELETE FROM t WHERE a = 1",
            "CREATE VIEW v AS SELECT a FROM t",
            "DROP TABLE IF EXISTS t",
            "GRANT READ ON Employees TO 42",
            "REVOKE READ ON Employees FROM 42",
            'SET SCOPE = "IN (1, 2)"',
        ],
    )
    def test_statement_round_trip(self, sql):
        statement = parse_statement(sql)
        printed = to_sql(statement)
        reparsed = parse_statement(printed)
        assert to_sql(reparsed) == printed

    def test_create_table_round_trip_preserves_mt_annotations(self):
        sql = (
            "CREATE TABLE Employees SPECIFIC (E_id INTEGER NOT NULL SPECIFIC, "
            "E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @toFn @fromFn, "
            "CONSTRAINT pk PRIMARY KEY (E_id))"
        )
        printed = to_sql(parse_statement(sql))
        reparsed = parse_statement(printed)
        assert reparsed.generality is ast.TableGenerality.SPECIFIC
        assert reparsed.columns[1].to_universal == "toFn"

    def test_string_escaping(self):
        assert to_sql(ast.Literal("it's")) == "'it''s'"

    def test_date_literal_printing(self):
        assert to_sql(ast.Literal(date_from_string("1994-01-01"))) == "DATE '1994-01-01'"

    def test_create_function_round_trip(self):
        sql = (
            "CREATE FUNCTION f (INTEGER) RETURNS INTEGER AS 'SELECT $1 * 2' "
            "LANGUAGE SQL IMMUTABLE"
        )
        reparsed = parse_statement(to_sql(parse_statement(sql)))
        assert reparsed.body == "SELECT $1 * 2"
        assert reparsed.immutable is True


# ---------------------------------------------------------------------------
# Property-based round trips over randomly generated expressions
# ---------------------------------------------------------------------------

_identifiers = st.sampled_from(["a", "b", "c", "col1", "E_salary", "t1"])
_tables = st.none() | st.sampled_from(["t", "E1", "orders"])

_literals = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False).map(lambda v: round(v, 3)),
    st.text(alphabet="abc xyz'", min_size=0, max_size=8),
    st.none(),
    st.booleans(),
)


def _expressions(depth: int = 2):
    base = st.one_of(
        _literals.map(ast.Literal),
        st.builds(ast.Column, name=_identifiers, table=_tables),
    )
    if depth == 0:
        return base
    sub = _expressions(depth - 1)
    return st.one_of(
        base,
        st.builds(ast.BinaryOp, op=st.sampled_from(["+", "-", "*", "=", "<", ">=", "AND", "OR"]),
                  left=sub, right=sub),
        st.builds(ast.UnaryOp, op=st.just("NOT"), operand=sub),
        st.builds(
            ast.FunctionCall,
            name=st.sampled_from(["SUM", "COUNT", "MYFN", "COALESCE"]),
            args=st.tuples(sub),
            distinct=st.booleans(),
        ),
        st.builds(ast.IsNull, expr=sub, negated=st.booleans()),
        st.builds(ast.Between, expr=sub, low=sub, high=sub, negated=st.booleans()),
        st.builds(ast.InList, expr=sub, items=st.tuples(sub, sub), negated=st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(_expressions())
def test_expression_print_parse_round_trip(expr):
    """print(parse(print(e))) is a fixed point: the printed text is stable."""
    printed = to_sql(expr)
    reparsed = parse_expression(printed)
    assert to_sql(reparsed) == printed


@settings(max_examples=60, deadline=None)
@given(
    items=st.lists(_expressions(1), min_size=1, max_size=4),
    where=st.none() | _expressions(1),
    distinct=st.booleans(),
    limit=st.none() | st.integers(min_value=0, max_value=99),
)
def test_select_print_parse_round_trip(items, where, distinct, limit):
    query = ast.Select(
        items=[ast.SelectItem(expr=item, alias=None) for item in items],
        from_items=[ast.TableRef(name="t", alias=None)],
        where=where,
        distinct=distinct,
        limit=limit,
    )
    printed = to_sql(query)
    reparsed = parse_query(printed)
    assert to_sql(reparsed) == printed
