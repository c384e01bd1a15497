"""Dialect-aware printing: quoting, literals, placeholders, idioms."""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.dialect import (
    DEFAULT_DIALECT,
    SQLITE_DIALECT,
    Dialect,
    SQLiteDialect,
    get_dialect,
)
from repro.sql.parser import parse_query, parse_statement
from repro.sql.printer import to_sql
from repro.sql.types import Interval, IntervalUnit, date_from_string


class TestDialectRegistry:
    def test_lookup_by_name(self):
        assert get_dialect("default") is DEFAULT_DIALECT
        assert get_dialect("SQLite") is SQLITE_DIALECT

    def test_unknown_dialect(self):
        with pytest.raises(SQLError, match="unknown SQL dialect"):
            get_dialect("oracle")

    def test_dialect_names(self):
        assert isinstance(DEFAULT_DIALECT, Dialect)
        assert isinstance(SQLITE_DIALECT, SQLiteDialect)
        assert DEFAULT_DIALECT.name == "default"
        assert SQLITE_DIALECT.name == "sqlite"


class TestIdentifierQuoting:
    def test_default_quotes_keywords_and_unsafe_names(self):
        # the default dialect feeds the repro parser, which reads "..." as a name
        assert DEFAULT_DIALECT.quote_identifier("order") == '"order"'
        assert DEFAULT_DIALECT.quote_identifier("Date") == '"Date"'
        assert DEFAULT_DIALECT.quote_identifier("weird name") == '"weird name"'
        assert DEFAULT_DIALECT.quote_identifier('has"quote') == '"has""quote"'
        assert DEFAULT_DIALECT.quote_identifier("lineitem") == "lineitem"

    def test_every_word_that_ends_a_name_is_quoted(self):
        from repro.sql.dialect import GRAMMAR_KEYWORDS
        from repro.sql.parser import _RESERVED

        assert _RESERVED <= GRAMMAR_KEYWORDS

    def test_sqlite_quotes_reserved_words(self):
        assert SQLITE_DIALECT.quote_identifier("order") == '"order"'
        assert SQLITE_DIALECT.quote_identifier("GROUP") == '"GROUP"'
        assert SQLITE_DIALECT.quote_identifier("lineitem") == "lineitem"

    def test_sqlite_quotes_non_identifier_characters(self):
        assert SQLITE_DIALECT.quote_identifier("weird name") == '"weird name"'
        assert SQLITE_DIALECT.quote_identifier('has"quote') == '"has""quote"'

    def test_qualified_identifier(self):
        assert SQLITE_DIALECT.qualified_identifier("o_orderkey", "orders") == (
            "orders.o_orderkey"
        )
        assert SQLITE_DIALECT.qualified_identifier("name", "order") == '"order".name'

    def test_quoted_identifier_round_trips_through_sqlite(self):
        connection = sqlite3.connect(":memory:")
        name = SQLITE_DIALECT.quote_identifier("select")
        connection.execute(f"CREATE TABLE {name} (x INTEGER)")
        connection.execute(f"INSERT INTO {name} VALUES (1)")
        assert connection.execute(f"SELECT x FROM {name}").fetchall() == [(1,)]


class TestLiteralRendering:
    def test_string_escaping(self):
        for dialect in (DEFAULT_DIALECT, SQLITE_DIALECT):
            assert dialect.format_literal("it's") == "'it''s'"
            assert dialect.format_literal("a''b") == "'a''''b'"

    def test_escaped_string_round_trips(self):
        text = to_sql(ast.Literal("O'Brien ''quoted''"))
        statement = parse_query(f"SELECT {text}")
        assert statement.items[0].expr.value == "O'Brien ''quoted''"
        row = sqlite3.connect(":memory:").execute(
            f"SELECT {SQLITE_DIALECT.format_literal(chr(39))}"
        ).fetchone()
        assert row == ("'",)

    def test_dates(self):
        date = date_from_string("1994-01-01")
        assert DEFAULT_DIALECT.format_literal(date) == "DATE '1994-01-01'"
        assert SQLITE_DIALECT.format_literal(date) == "'1994-01-01'"

    def test_booleans(self):
        assert DEFAULT_DIALECT.format_literal(True) == "TRUE"
        assert SQLITE_DIALECT.format_literal(True) == "1"
        assert SQLITE_DIALECT.format_literal(False) == "0"

    def test_intervals(self):
        interval = Interval(3, IntervalUnit.MONTH)
        assert DEFAULT_DIALECT.format_literal(interval) == "INTERVAL '3' MONTH"
        with pytest.raises(SQLError, match="no interval literals"):
            SQLITE_DIALECT.format_literal(interval)


class TestPlaceholders:
    def test_styles(self):
        assert DEFAULT_DIALECT.placeholder(2) == "$2"
        assert SQLITE_DIALECT.placeholder(2) == "?2"

    def test_parameter_index(self):
        assert DEFAULT_DIALECT.parameter_index("$7") == 7
        assert DEFAULT_DIALECT.parameter_index("seven") is None

    def test_printed_parameters_follow_the_dialect(self):
        body = parse_query("SELECT $1 + $2")
        assert to_sql(body) == "SELECT $1 + $2"
        assert to_sql(body, SQLITE_DIALECT) == "SELECT ?1 + ?2"

    def test_sqlite_placeholder_binds(self):
        sql = to_sql(parse_query("SELECT $2, $1"), SQLITE_DIALECT)
        assert sqlite3.connect(":memory:").execute(sql, ("a", "b")).fetchone() == (
            "b",
            "a",
        )


class TestSQLiteIdioms:
    def test_extract(self):
        query = parse_query("SELECT EXTRACT(YEAR FROM o_orderdate) FROM orders")
        assert "strftime('%Y', o_orderdate)" in to_sql(query, SQLITE_DIALECT)
        with pytest.raises(SQLError, match="EXTRACT"):
            to_sql(parse_query("SELECT EXTRACT(EPOCH FROM x) FROM t"), SQLITE_DIALECT)

    def test_substring(self):
        query = parse_query("SELECT SUBSTRING(c_phone FROM 1 FOR 2) FROM customer")
        assert "SUBSTR(c_phone, 1, 2)" in to_sql(query, SQLITE_DIALECT)
        short = parse_query("SELECT SUBSTRING(c_phone FROM 3) FROM customer")
        assert "SUBSTR(c_phone, 3)" in to_sql(short, SQLITE_DIALECT)

    def test_date_arithmetic(self):
        query = parse_query(
            "SELECT 1 FROM t WHERE d < DATE '1994-01-01' + INTERVAL '3' MONTH"
        )
        assert "date('1994-01-01', '+3 month')" in to_sql(query, SQLITE_DIALECT)
        minus = parse_query(
            "SELECT 1 FROM t WHERE d <= DATE '1998-12-01' - INTERVAL '90' DAY"
        )
        assert "date('1998-12-01', '-90 day')" in to_sql(minus, SQLITE_DIALECT)

    def test_date_arithmetic_evaluates(self):
        connection = sqlite3.connect(":memory:")
        sql = to_sql(
            parse_query("SELECT DATE '1998-12-01' - INTERVAL '90' DAY"),
            SQLITE_DIALECT,
        )
        assert connection.execute(sql).fetchone() == ("1998-09-02",)

    def test_type_mapping(self):
        assert SQLITE_DIALECT.render_type("DECIMAL(15,2)") == "REAL"
        assert SQLITE_DIALECT.render_type("VARCHAR(25)") == "TEXT"
        assert SQLITE_DIALECT.render_type("DATE") == "TEXT"
        assert SQLITE_DIALECT.render_type("INTEGER") == "INTEGER"

    def test_create_table_uses_mapped_types(self):
        statement = parse_statement(
            "CREATE TABLE t (a INTEGER NOT NULL, b DECIMAL(15,2), c VARCHAR(10), d DATE)"
        )
        sql = to_sql(statement, SQLITE_DIALECT)
        assert sql == (
            "CREATE TABLE t (a INTEGER NOT NULL, b REAL, c TEXT, d TEXT)"
        )


class TestDefaultDialectRoundTrip:
    QUERIES = (
        "SELECT a AS x, b FROM t WHERE a < DATE '1994-01-01' + INTERVAL '1' YEAR",
        "SELECT SUBSTRING(p FROM 1 FOR 2), EXTRACT(YEAR FROM d) FROM t",
        "SELECT * FROM t WHERE s LIKE 'a%' AND b IN (1, 2) AND c = 'it''s'",
    )

    @pytest.mark.parametrize("text", QUERIES)
    def test_print_parse_print_is_stable(self, text):
        once = to_sql(parse_query(text))
        twice = to_sql(parse_query(once))
        assert once == twice

    @pytest.mark.parametrize(
        "text",
        (
            'SELECT a AS "x y" FROM t',
            'SELECT "select", "t t"."from" FROM "t t" WHERE "date" = 1 AND "Year" > 2',
            'SELECT "null" AS "order" FROM t GROUP BY "null" ORDER BY "order"',
            'INSERT INTO "my table" ("a b", "values") VALUES (1, 2)',
            'UPDATE t SET "set" = 1 WHERE "where" IS NULL',
            'CREATE TABLE "t-1" ("key" INTEGER NOT NULL, "a""b" DATE)',
        ),
    )
    def test_a_name_that_needs_quoting_round_trips(self, text):
        statement = parse_statement(text)
        assert parse_statement(to_sql(statement)) == statement


class TestNegativeIntervals:
    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("DATE '1994-03-01' + INTERVAL '-3' DAY", "date('1994-03-01', '-3 day')"),
            ("DATE '1994-03-01' - INTERVAL '-3' DAY", "date('1994-03-01', '+3 day')"),
            ("DATE '1994-03-01' - INTERVAL '2' MONTH", "date('1994-03-01', '-2 month')"),
        ],
    )
    def test_sign_is_folded_into_the_modifier(self, expr, expected):
        sql = to_sql(parse_query(f"SELECT {expr}"), SQLITE_DIALECT)
        assert expected in sql

    def test_negative_amounts_evaluate(self):
        sql = to_sql(
            parse_query("SELECT DATE '1994-03-01' - INTERVAL '-3' DAY"),
            SQLITE_DIALECT,
        )
        assert sqlite3.connect(":memory:").execute(sql).fetchone() == ("1994-03-04",)
