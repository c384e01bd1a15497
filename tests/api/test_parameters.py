"""Units for the bind-parameter substrate: lexing, parsing, printing, binding.

The grammar side of the PR: ``?`` / ``?NNN`` / ``:name`` placeholders lex to
one token type, parse to :class:`repro.sql.ast.Parameter` slots, print per
dialect (client spelling vs. SQLite ``?NNN``), and bind — by value
resolution (:func:`resolve_parameters`) and by literal substitution
(:func:`bind_parameters`).  Plus the error-normalization satellite: every
statement-accepting entry point raises one
:class:`~repro.errors.InvalidStatementError` for unparsable SQL.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidStatementError, ParameterError, ParseError
from repro.sql import ast
from repro.sql.dialect import DEFAULT_DIALECT, SQLITE_DIALECT
from repro.sql.params import (
    ParameterSlot,
    bind_parameters,
    resolve_parameters,
    statement_parameters,
)
from repro.sql.parser import parse_statement, parse_submitted_statement
from repro.sql.printer import to_sql

from tests.conftest import build_paper_example


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_positional_placeholders_take_consecutive_slots():
    statement = parse_statement("SELECT a FROM t WHERE x < ? AND y > ?")
    slots = statement_parameters(statement)
    assert slots == (ParameterSlot(1), ParameterSlot(2))


def test_explicit_numbered_placeholders_pin_slots():
    statement = parse_statement("SELECT a FROM t WHERE x < ?2 AND y > ?1 AND z = ?2")
    slots = statement_parameters(statement)
    assert slots == (ParameterSlot(1), ParameterSlot(2))


def test_named_placeholders_share_one_slot_per_name():
    statement = parse_statement(
        "SELECT a FROM t WHERE x BETWEEN :low AND :high AND y = :low"
    )
    slots = statement_parameters(statement)
    assert slots == (
        ParameterSlot(1, "low"),
        ParameterSlot(2, "high"),
    )


def test_parameters_are_found_in_subqueries_and_in_lists():
    statement = parse_statement(
        "SELECT a FROM t WHERE b IN (?, ?) AND c > (SELECT AVG(c) FROM t WHERE d = ?)"
    )
    assert len(statement_parameters(statement)) == 3


def test_parameters_in_dml():
    insert = parse_statement("INSERT INTO t (a, b) VALUES (?, ?)")
    update = parse_statement("UPDATE t SET b = :b WHERE a = :a")
    delete = parse_statement("DELETE FROM t WHERE a < ?")
    assert len(statement_parameters(insert)) == 2
    assert [slot.name for slot in statement_parameters(update)] == ["b", "a"]
    assert len(statement_parameters(delete)) == 1


def test_parameters_inside_dml_subqueries():
    """Slot discovery descends into sub-queries of DML predicates/values,
    matching where bind_parameters substitutes (regression: they disagreed)."""
    delete = parse_statement(
        "DELETE FROM t WHERE a IN (SELECT b FROM u WHERE c = ?)"
    )
    assert statement_parameters(delete) == (ParameterSlot(1),)
    bound = bind_parameters(delete, (5,))
    assert statement_parameters(bound) == ()
    assert "c = 5" in to_sql(bound)

    update = parse_statement(
        "UPDATE t SET b = (SELECT MAX(b) FROM u WHERE c = :cap) WHERE a > :floor"
    )
    assert [slot.name for slot in statement_parameters(update)] == ["cap", "floor"]


def test_script_statements_do_not_share_slot_indexes():
    """Regression: ';'-separated scripts restart slot numbering per statement."""
    from repro.sql.parser import parse_statements

    first, second = parse_statements(
        "SELECT a FROM t WHERE a = ?; SELECT b FROM u WHERE b = ?"
    )
    assert statement_parameters(first) == (ParameterSlot(1),)
    assert statement_parameters(second) == (ParameterSlot(1),)


def test_non_contiguous_explicit_indexes_are_rejected():
    statement = parse_statement("SELECT a FROM t WHERE x = ?1 AND y = ?3")
    with pytest.raises(ParameterError, match="contiguous"):
        statement_parameters(statement)


def test_zero_index_placeholder_is_a_parse_error():
    with pytest.raises(ParseError, match="positive"):
        parse_statement("SELECT a FROM t WHERE x = ?0")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def test_default_dialect_prints_client_spelling_and_round_trips():
    text = "SELECT a FROM t WHERE x < ?1 AND y = :name"
    statement = parse_statement(text)
    printed = to_sql(statement, DEFAULT_DIALECT)
    assert "?1" in printed and ":name" in printed
    assert statement_parameters(parse_statement(printed)) == statement_parameters(
        statement
    )


def test_sqlite_dialect_prints_numbered_placeholders_for_named():
    statement = parse_statement("SELECT a FROM t WHERE x = :x AND y BETWEEN :x AND :y")
    printed = to_sql(statement, SQLITE_DIALECT)
    assert ":x" not in printed
    assert "?1" in printed and "?2" in printed


# ---------------------------------------------------------------------------
# value resolution and literal substitution
# ---------------------------------------------------------------------------


def test_resolve_positional_values():
    slots = (ParameterSlot(1), ParameterSlot(2))
    assert resolve_parameters(slots, (10, 20)) == (10, 20)


def test_resolve_named_values_in_slot_order():
    slots = (ParameterSlot(1, "b"), ParameterSlot(2, "a"))
    assert resolve_parameters(slots, {"a": 1, "b": 2}) == (2, 1)


@pytest.mark.parametrize(
    "slots, values, message",
    [
        ((ParameterSlot(1),), None, "no values"),
        ((ParameterSlot(1),), (1, 2), "2 value"),
        ((), (1,), "takes no parameters"),
        ((ParameterSlot(1),), {"x": 1}, "positional slot"),
        ((ParameterSlot(1, "a"),), {"b": 1}, "missing value"),
        ((ParameterSlot(1, "a"),), {"a": 1, "b": 2}, "unknown parameter"),
    ],
)
def test_resolution_errors(slots, values, message):
    with pytest.raises(ParameterError, match=message):
        resolve_parameters(slots, values)


def test_bind_parameters_substitutes_literals_everywhere():
    statement = parse_statement(
        "SELECT a FROM t WHERE b IN (?, ?) AND c > (SELECT AVG(c) FROM t WHERE d = ?)"
    )
    bound = bind_parameters(statement, (1, 2, 3))
    assert statement_parameters(bound) == ()
    assert "IN (1, 2)" in to_sql(bound)
    assert "d = 3" in to_sql(bound)


def test_executing_unbound_parameters_fails_clearly():
    from repro.engine import Database
    from repro.errors import ExecutionError

    database = Database()
    database.execute("CREATE TABLE t (a INTEGER NOT NULL)")
    with pytest.raises(ExecutionError, match="unbound parameter"):
        database.execute("SELECT a FROM t WHERE a = ?")


@pytest.mark.parametrize(
    "sql",
    (
        "SELECT o_orderkey FROM orders WHERE o_orderdate >= ?",
        "UPDATE orders SET o_comment = o_comment WHERE o_orderdate >= ?",
    ),
)
def test_a_non_iso_string_bound_against_a_date_is_a_type_mismatch(
    mt_connect, tiny_mth_engine, sql
):
    from repro.errors import TypeMismatchError
    from repro.gateway import QueryGateway

    for target in (tiny_mth_engine.middleware, QueryGateway(tiny_mth_engine.middleware)):
        with mt_connect(target, client=2) as connection:
            cursor = connection.cursor()
            with pytest.raises(TypeMismatchError, match="not an ISO date"):
                cursor.execute(sql, ("3",))
                cursor.fetchall()


# ---------------------------------------------------------------------------
# fingerprints: one digest per parameterized text, across bindings
# ---------------------------------------------------------------------------


def test_parameterized_text_fingerprint_is_binding_independent():
    from repro.gateway.fingerprint import fingerprint_statement

    parameterized = fingerprint_statement("SELECT a FROM t WHERE x < ?")
    assert parameterized == fingerprint_statement("SELECT  a  FROM t WHERE x < ?")
    # a literal spelling is a *different* statement (different key)
    assert parameterized != fingerprint_statement("SELECT a FROM t WHERE x < 5")


# ---------------------------------------------------------------------------
# error normalization: GatewaySession.prepare == MTConnection.compile
# ---------------------------------------------------------------------------

BAD_STATEMENTS = (
    "SELEC E_name FROM Employees",  # parser: unsupported statement
    "SELECT E_name FROM",  # parser: missing table
    "SELECT E_name FROM Employees WHERE E_salary > 'unterminated",  # lexer
)


@pytest.mark.parametrize("sql", BAD_STATEMENTS)
def test_prepare_and_compile_raise_the_same_normalized_error(sql):
    mt = build_paper_example()
    gateway = mt.gateway()
    session = gateway.session(0, optimization="o4")
    connection = mt.connect(0, optimization="o4")

    with pytest.raises(InvalidStatementError) as from_prepare:
        session.prepare(sql)
    with pytest.raises(InvalidStatementError) as from_compile:
        connection.compile(sql)

    # both carry the offending fragment, and both stay catchable as ParseError
    for failure in (from_prepare, from_compile):
        assert "invalid statement near" in str(failure.value)
        assert isinstance(failure.value, ParseError)
    gateway.close()


def test_normalized_error_quotes_the_offending_fragment():
    with pytest.raises(InvalidStatementError, match="GRUOP"):
        parse_submitted_statement(
            "SELECT E_name FROM Employees GRUOP BY E_name"
        )


def test_parameter_nodes_survive_ast_transforms():
    from repro.sql.transform import clone_select, count_nodes

    statement = parse_statement("SELECT a FROM t WHERE x = :x")
    clone = clone_select(statement)
    assert to_sql(clone) == to_sql(statement)
    assert count_nodes(statement) == count_nodes(clone)
    parameter = statement.where.right
    assert isinstance(parameter, ast.Parameter)
    assert parameter.name == "x"
