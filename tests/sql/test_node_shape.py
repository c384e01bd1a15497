"""The AST describes its own shape: ``children`` / ``with_children`` and the
two statement seams every generic walk and rebuild is written over.

Three groups:

* laws of the node-shape contract, checked over *every* expression node of
  the 22 MT-H queries and of their o4 rewrites (plus one expression spelling
  each of the expression classes), against an oracle that reads the
  dataclass fields by reflection instead of ``child_fields``;
* the new-node test: an ``Expression`` subclass defined *here*, declaring
  only its ``child_fields``, is walked, transformed, node-counted,
  parameter-bound and column-collected with no other edit — it fails the
  day somebody adds a walker that enumerates the expression classes again;
* ``transform_statement`` / ``bind_parameters`` over the four statement
  kinds, both placeholder conventions in one statement, short value vectors.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import EngineBackend
from repro.compile.cost import referenced_column_names
from repro.errors import BackendError, ParameterError
from repro.mth.queries import ALL_QUERY_IDS, query_text
from repro.sql import ast
from repro.sql.params import bind_parameters, statement_parameters
from repro.sql.parser import parse_expression, parse_query, parse_statement
from repro.sql.printer import to_sql
from repro.sql.transform import (
    count_nodes,
    statement_expressions,
    transform_expression,
    transform_statement,
    walk_expression,
)

#: one expression that spells every parser-produced expression class
KITCHEN_SINK = (
    "CASE WHEN a IN (1, ?) AND NOT b BETWEEN -1 AND c THEN SUBSTRING(d FROM 1 FOR 2) "
    "WHEN e LIKE 'x%' OR f IS NOT NULL THEN SUBSTRING(d FROM 2) ELSE g END "
    "|| CAST_LIKE(EXTRACT(YEAR FROM h), COUNT(*), t.*) "
    "|| (SELECT MAX(i) FROM u) || (j IN (SELECT k FROM u)) || EXISTS (SELECT 1 FROM u)"
)


def reflected_children(node: ast.Expression) -> list[ast.Expression]:
    """The oracle: sub-expressions read off the dataclass fields, in
    declaration order — nested SELECTs skipped, ``CaseWhen`` pairs flattened."""
    found: list[ast.Expression] = []
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, ast.CaseWhen):
                found.extend((part.condition, part.result))
            elif isinstance(part, ast.Expression):
                found.append(part)
    return found


def reflected_walk(node: ast.Expression):
    yield node
    for child in reflected_children(node):
        yield from reflected_walk(child)


@pytest.fixture(scope="module")
def corpus(tiny_mth) -> list[ast.Expression]:
    """Every top-level expression of the MT-H queries and their o4 rewrites."""
    connection = tiny_mth.middleware.connect(1, optimization="o4")
    connection.set_scope("IN ()")
    roots = [parse_expression(KITCHEN_SINK)]
    for query_id in ALL_QUERY_IDS:
        original = parse_query(query_text(query_id))
        for statement in (original, connection.rewrite(original)):
            roots.extend(statement_expressions(statement))
    return roots


def test_corpus_covers_every_expression_class(corpus):
    seen = {type(node) for root in corpus for node in walk_expression(root)}
    declared = {
        cls
        for cls in vars(ast).values()
        if isinstance(cls, type) and issubclass(cls, ast.Expression) and cls is not ast.Expression
    }
    assert seen == declared


def test_children_match_the_dataclass_fields(corpus):
    for root in corpus:
        for node in walk_expression(root):
            assert list(node.children()) == reflected_children(node), to_sql(node)


def test_with_children_round_trips(corpus):
    for root in corpus:
        for node in walk_expression(root):
            rebuilt = node.with_children(node.children())
            assert rebuilt == node and type(rebuilt) is type(node), to_sql(node)


def test_identity_transform_returns_the_same_object(corpus):
    for root in corpus:
        assert transform_expression(root, lambda node: None) is root


def test_walk_is_pre_order_without_subquery_bodies(corpus):
    for root in corpus:
        walked = list(walk_expression(root))
        assert [id(node) for node in walked] == [id(node) for node in reflected_walk(root)]
        assert not any(isinstance(node, ast.Select) for node in walked)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_transform_rebuilds_only_the_path_to_a_change(data):
    """Replacing one node rebuilds its ancestors and nothing else: every
    subtree off the path keeps its identity."""
    root = parse_expression(KITCHEN_SINK)
    nodes = list(walk_expression(root))
    target = nodes[data.draw(st.integers(min_value=1, max_value=len(nodes) - 1))]
    marker = ast.Literal("changed")
    rebuilt = transform_expression(root, lambda node: marker if node is target else None)

    below_target = {id(node) for node in walk_expression(target)} - {id(target)}
    before = [node for node in nodes if id(node) not in below_target]
    after = list(walk_expression(rebuilt))
    assert len(after) == len(before)
    for old, new in zip(before, after):
        if old is target:
            assert new is marker
        elif any(node is target for node in walk_expression(old)):
            assert new is not old and type(new) is type(old)
        else:
            assert new is old


# ---------------------------------------------------------------------------
# a node type the library has never heard of
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Clamp(ast.Expression):
    """``value`` limited by optional bounds: declares its shape, nothing else."""

    value: ast.Expression
    bounds: tuple[ast.Expression, ...] = ()
    fallback: Optional[ast.Expression] = None

    child_fields = ("value", "bounds", "fallback")


def _clamp_query() -> ast.Select:
    node = Clamp(
        value=ast.Column("price"),
        bounds=(ast.Parameter(1), ast.BinaryOp("*", ast.Column("cap"), ast.Column("$2"))),
    )
    query = parse_query("SELECT 1 FROM items WHERE qty > 0")
    query.items = [ast.SelectItem(expr=node, alias="clamped")]
    return query


def test_new_node_type_needs_no_other_edit():
    query = _clamp_query()
    node = query.items[0].expr

    # walked, in order; the absent ``fallback`` holds no child
    assert [type(sub).__name__ for sub in walk_expression(node)] == [
        "Clamp", "Column", "Parameter", "BinaryOp", "Column", "Column",
    ]  # fmt: skip
    assert node.with_children(node.children()) == node

    # transformed: the change is inside the tuple field
    renamed = transform_expression(
        node, lambda sub: ast.Column("limit") if sub == ast.Column("cap") else None
    )
    assert isinstance(renamed, Clamp) and renamed.bounds[1].left == ast.Column("limit")
    assert renamed.value is node.value and renamed.fallback is None

    # node-counted: the SELECT, its FROM item and item, 6 + 3 expression nodes
    assert count_nodes(node) == 6
    assert count_nodes(query) == 1 + 1 + 1 + 6 + 3

    # parameter-bound, both conventions
    assert [slot.index for slot in statement_parameters(query)] == [1]
    bound = bind_parameters(query, (7, 9)).items[0].expr
    assert bound.bounds == (ast.Literal(7), ast.BinaryOp("*", ast.Column("cap"), ast.Literal(9)))

    # column-collected
    assert referenced_column_names([query]) == {"price", "cap", "$2", "qty"}


# ---------------------------------------------------------------------------
# the statement seams
# ---------------------------------------------------------------------------

STATEMENTS = {
    "select": "SELECT a + ? FROM t JOIN (SELECT b FROM u WHERE c = $2) s ON t.a = s.b AND t.d = ? "
    "WHERE e IN (SELECT f FROM v WHERE g = ?1) GROUP BY a HAVING SUM(h) > $1 ORDER BY a + ?2",
    "insert-values": "INSERT INTO t (a, b) VALUES (?, $2), (?2, (SELECT MAX(c) FROM u WHERE d = $1))",
    "insert-select": "INSERT INTO t (a, b) SELECT c, ? FROM u WHERE d = $2 AND e IN (SELECT f FROM v WHERE g = ?2)",
    "update": "UPDATE t SET a = ?, b = (SELECT MAX(c) FROM u WHERE d = $2) WHERE e = ?2 OR f = $1",
    "delete": "DELETE FROM t WHERE a = ? AND b IN (SELECT c FROM u WHERE d = $2 AND e = ?2)",
}


@pytest.mark.parametrize("kind", STATEMENTS)
def test_statement_seams_reach_every_expression(kind):
    """``statement_expressions`` sees, and ``transform_statement`` rewrites,
    every placeholder of the statement, nested queries included."""
    statement = parse_statement(STATEMENTS[kind])
    text = STATEMENTS[kind]
    placeholders = text.count("?") + text.count("$")
    found = [
        node
        for expr in statement_expressions(statement)
        for node in walk_expression(expr)
        if isinstance(node, ast.Parameter) or (isinstance(node, ast.Column) and node.name[0] == "$")
    ]
    assert len(found) == placeholders

    seen: list[ast.Expression] = []

    def to_null(node: ast.Expression):
        if any(node is placeholder for placeholder in found):
            seen.append(node)
            return ast.Literal(None)
        return None

    rewritten = transform_statement(statement, to_null)
    assert len(seen) == placeholders
    assert type(rewritten) is type(statement) and rewritten is not statement
    assert "?" not in to_sql(rewritten) and "$" not in to_sql(rewritten)
    assert to_sql(statement) == to_sql(parse_statement(text)), "the input is left alone"


@pytest.mark.parametrize("kind", STATEMENTS)
def test_bind_parameters_binds_both_conventions_in_one_pass(kind):
    bound = bind_parameters(parse_statement(STATEMENTS[kind]), (11, 22))
    text = to_sql(bound)
    assert "?" not in text and "$" not in text and statement_parameters(bound) == ()
    expected = STATEMENTS[kind].replace("?1", "11").replace("?2", "22")
    expected = expected.replace("$1", "11").replace("$2", "22").replace("?", "11", 1)
    # a bare ``?`` takes the next free slot: the first is 1, a second one 2
    expected = expected.replace("?", "22")
    assert text == to_sql(parse_statement(expected))


def test_short_value_vectors_keep_their_errors():
    with pytest.raises(
        ParameterError,
        match=r"statement references parameter 2 but only 1 value\(s\) were supplied",
    ):
        bind_parameters(parse_statement("UPDATE t SET a = ?, b = ?"), (1,))
    with pytest.raises(
        BackendError,
        match=r"statement references \$3 but only 2 parameter\(s\) were supplied",
    ):
        bind_parameters(parse_statement("DELETE FROM t WHERE a = ? AND b = $3"), (1, 2))
    with pytest.raises(ParameterError, match="cannot bind parameters into a DropTable"):
        bind_parameters(parse_statement("DROP TABLE t"), (1,))
    drop = parse_statement("DROP TABLE t")
    assert bind_parameters(drop, ()) is drop


def test_engine_backend_reads_parameters_in_every_statement_kind():
    """The engine backend substitutes no literal: ``$n`` and ``?`` are run
    constants in every statement kind, a parameterized ``INSERT ... SELECT``
    included, and a short vector raises the binder's error."""
    connection = EngineBackend().connect()
    connection.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    connection.execute("CREATE TABLE u (a INTEGER, b INTEGER)")
    connection.execute("INSERT INTO t (a, b) VALUES (?, $2), ($2, ?1)", (1, 2))
    connection.execute("INSERT INTO u (a, b) SELECT a + $2, ? FROM t WHERE a >= ?1", (1, 10))
    assert connection.query("SELECT a, b FROM u ORDER BY a").rows == [(11, 1), (12, 1)]
    connection.execute("UPDATE u SET b = ? WHERE a IN (SELECT a + $2 FROM t WHERE b = ?1)", (2, 10))
    assert connection.query("SELECT a, b FROM u ORDER BY a").rows == [(11, 2), (12, 1)]
    connection.execute("DELETE FROM u WHERE b = ? OR a = $2", (2, 12))
    assert connection.query("SELECT COUNT(*) FROM u").rows == [(0,)]
    with pytest.raises(BackendError, match=r"references \$2 but only 1 parameter"):
        connection.execute("SELECT a FROM t WHERE a = $2", (1,))
    with pytest.raises(BackendError, match=r"references \$2 but only 1 parameter"):
        connection.execute("DELETE FROM u WHERE a = $2", (1,))
    with pytest.raises(ParameterError, match="references parameter 2 but only 1 value"):
        connection.execute("UPDATE u SET b = ?2", (1,))
