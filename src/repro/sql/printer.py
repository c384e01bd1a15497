"""Render AST nodes back into SQL text, in a configurable dialect.

The printer is the counterpart of the parser; with the default dialect
``parse(print(node))`` produces a structurally identical tree, which is
exercised by property-based tests.  The MTBase middleware uses it to emit the
rewritten SQL statements it sends to the underlying DBMS; execution backends
pick the :class:`~repro.sql.dialect.Dialect` their DBMS understands (the
SQLite backend prints ``DATE``/``INTERVAL`` arithmetic as ``date()``
modifiers, ``EXTRACT`` as ``strftime`` and so on).
"""

from __future__ import annotations

from typing import Optional

from ..errors import SQLError
from . import ast
from .dialect import DEFAULT_DIALECT, Dialect
from .types import Interval


def to_sql(node: ast.Node, dialect: Optional[Dialect] = None) -> str:
    """Render any AST node as SQL text in ``dialect`` (default: engine SQL)."""
    return SqlPrinter(dialect or DEFAULT_DIALECT).print(node)


#: expression types that never need parentheses as an operand
_NO_PARENS = (ast.Literal, ast.Column, ast.Parameter, ast.FunctionCall, ast.Star,
              ast.ScalarSubquery, ast.Extract, ast.Substring, ast.Case)


class SqlPrinter:
    """Stateless visitor rendering AST nodes through one dialect."""

    def __init__(self, dialect: Dialect) -> None:
        self.dialect = dialect

    def print(self, node: ast.Node) -> str:
        printer = _PRINTERS.get(type(node))
        if printer is None:
            raise SQLError(f"cannot print node of type {type(node).__name__}")
        return printer(self, node)

    # -- helpers -------------------------------------------------------------

    def _ident(self, name: str) -> str:
        return self.dialect.quote_identifier(name)

    def _operand(self, expr: ast.Expression) -> str:
        text = self.print(expr)
        if isinstance(expr, _NO_PARENS):
            return text
        return f"({text})"

    # -- expressions ---------------------------------------------------------

    def _literal(self, node: ast.Literal) -> str:
        return self.dialect.format_literal(node.value)

    def _column(self, node: ast.Column) -> str:
        if node.table is None:
            index = self.dialect.parameter_index(node.name)
            if index is not None:
                return self.dialect.placeholder(index)
        return self.dialect.qualified_identifier(node.name, node.table)

    def _parameter(self, node: ast.Parameter) -> str:
        return self.dialect.render_parameter(node.index, node.name)

    def _star(self, node: ast.Star) -> str:
        return f"{self._ident(node.table)}.*" if node.table else "*"

    def _function_call(self, node: ast.FunctionCall) -> str:
        prefix = "DISTINCT " if node.distinct else ""
        args = ", ".join(self.print(argument) for argument in node.args)
        return f"{node.name}({prefix}{args})"

    def _binary_op(self, node: ast.BinaryOp) -> str:
        right = node.right
        if isinstance(right, ast.Literal) and isinstance(right.value, Interval):
            rendered = self.dialect.render_date_arithmetic(
                self._operand(node.left), node.op, right.value
            )
            if rendered is not None:
                return rendered
        return f"{self._operand(node.left)} {node.op} {self._operand(node.right)}"

    def _unary_op(self, node: ast.UnaryOp) -> str:
        if node.op == "NOT":
            return f"NOT {self._operand(node.operand)}"
        return f"{node.op}{self._operand(node.operand)}"

    def _case(self, node: ast.Case) -> str:
        parts = ["CASE"]
        for when in node.whens:
            parts.append(f"WHEN {self.print(when.condition)} THEN {self.print(when.result)}")
        if node.else_result is not None:
            parts.append(f"ELSE {self.print(node.else_result)}")
        parts.append("END")
        return " ".join(parts)

    def _in_list(self, node: ast.InList) -> str:
        keyword = "NOT IN" if node.negated else "IN"
        items = ", ".join(self.print(item) for item in node.items)
        return f"{self._operand(node.expr)} {keyword} ({items})"

    def _in_subquery(self, node: ast.InSubquery) -> str:
        keyword = "NOT IN" if node.negated else "IN"
        return f"{self._operand(node.expr)} {keyword} ({self.print(node.query)})"

    def _exists(self, node: ast.Exists) -> str:
        keyword = "NOT EXISTS" if node.negated else "EXISTS"
        return f"{keyword} ({self.print(node.query)})"

    def _between(self, node: ast.Between) -> str:
        keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
        return (
            f"{self._operand(node.expr)} {keyword} "
            f"{self._operand(node.low)} AND {self._operand(node.high)}"
        )

    def _like(self, node: ast.Like) -> str:
        keyword = "NOT LIKE" if node.negated else "LIKE"
        return f"{self._operand(node.expr)} {keyword} {self._operand(node.pattern)}"

    def _is_null(self, node: ast.IsNull) -> str:
        keyword = "IS NOT NULL" if node.negated else "IS NULL"
        return f"{self._operand(node.expr)} {keyword}"

    def _scalar_subquery(self, node: ast.ScalarSubquery) -> str:
        return f"({self.print(node.query)})"

    def _extract(self, node: ast.Extract) -> str:
        return self.dialect.render_extract(node.part, self.print(node.expr))

    def _substring(self, node: ast.Substring) -> str:
        return self.dialect.render_substring(
            self.print(node.expr),
            self.print(node.start),
            self.print(node.length) if node.length is not None else None,
        )

    # -- FROM items ----------------------------------------------------------

    def _table_ref(self, node: ast.TableRef) -> str:
        name = self._ident(node.name)
        return f"{name} {self._ident(node.alias)}" if node.alias else name

    def _subquery_ref(self, node: ast.SubqueryRef) -> str:
        return f"({self.print(node.query)}) AS {self._ident(node.alias)}"

    def _join(self, node: ast.Join) -> str:
        left = self.print(node.left)
        right = self.print(node.right)
        if node.join_type is ast.JoinType.CROSS:
            return f"{left} CROSS JOIN {right}"
        keyword = "LEFT JOIN" if node.join_type is ast.JoinType.LEFT else "JOIN"
        return f"{left} {keyword} {right} ON {self.print(node.condition)}"

    # -- statements ----------------------------------------------------------

    def _select(self, node: ast.Select) -> str:
        parts = ["SELECT"]
        if node.distinct:
            parts.append("DISTINCT")
        items = []
        for item in node.items:
            text = self.print(item.expr)
            if item.alias:
                text += f" AS {self._ident(item.alias)}"
            items.append(text)
        parts.append(", ".join(items))
        if node.from_items:
            parts.append("FROM " + ", ".join(self.print(item) for item in node.from_items))
        if node.where is not None:
            parts.append("WHERE " + self.print(node.where))
        if node.group_by:
            parts.append("GROUP BY " + ", ".join(self.print(expr) for expr in node.group_by))
        if node.having is not None:
            parts.append("HAVING " + self.print(node.having))
        if node.order_by:
            rendered = []
            for order in node.order_by:
                text = self.print(order.expr)
                if order.descending:
                    text += " DESC"
                rendered.append(text)
            parts.append("ORDER BY " + ", ".join(rendered))
        if node.limit is not None:
            parts.append(f"LIMIT {node.limit}")
        return " ".join(parts)

    def _column_def(self, node: ast.ColumnDef) -> str:
        parts = [self._ident(node.name), self.dialect.render_type(node.type_name)]
        if node.not_null:
            parts.append("NOT NULL")
        if node.comparability is ast.Comparability.SPECIFIC:
            parts.append("SPECIFIC")
        elif node.comparability is ast.Comparability.COMPARABLE:
            parts.append("COMPARABLE")
        elif node.comparability is ast.Comparability.CONVERTIBLE:
            parts.append(f"CONVERTIBLE @{node.to_universal} @{node.from_universal}")
        if node.default is not None:
            parts.append("DEFAULT " + self.print(node.default))
        return " ".join(parts)

    def _table_constraint(self, node: ast.TableConstraint) -> str:
        prefix = f"CONSTRAINT {self._ident(node.name)} " if node.name else ""
        columns = ", ".join(self._ident(column) for column in node.columns)
        if node.kind is ast.ConstraintKind.PRIMARY_KEY:
            return f"{prefix}PRIMARY KEY ({columns})"
        if node.kind is ast.ConstraintKind.UNIQUE:
            return f"{prefix}UNIQUE ({columns})"
        if node.kind is ast.ConstraintKind.FOREIGN_KEY:
            ref_columns = ", ".join(self._ident(column) for column in node.ref_columns)
            return (
                f"{prefix}FOREIGN KEY ({columns}) "
                f"REFERENCES {self._ident(node.ref_table)} ({ref_columns})"
            )
        return f"{prefix}CHECK ({self.print(node.check)})"

    def _create_table(self, node: ast.CreateTable) -> str:
        generality = ""
        if node.generality is ast.TableGenerality.SPECIFIC:
            generality = " SPECIFIC"
        elif node.generality is ast.TableGenerality.GLOBAL:
            generality = " GLOBAL"
        entries = [self._column_def(column) for column in node.columns]
        entries.extend(self._table_constraint(constraint) for constraint in node.constraints)
        return f"CREATE TABLE {self._ident(node.name)}{generality} ({', '.join(entries)})"

    def _create_view(self, node: ast.CreateView) -> str:
        return f"CREATE VIEW {self._ident(node.name)} AS {self.print(node.query)}"

    def _create_function(self, node: ast.CreateFunction) -> str:
        body = node.body.replace("'", "''")
        immutable = " IMMUTABLE" if node.immutable else ""
        return (
            f"CREATE FUNCTION {node.name} ({', '.join(node.arg_types)}) "
            f"RETURNS {node.return_type} AS '{body}' LANGUAGE {node.language}{immutable}"
        )

    def _drop_table(self, node: ast.DropTable) -> str:
        clause = "IF EXISTS " if node.if_exists else ""
        return f"DROP TABLE {clause}{self._ident(node.name)}"

    def _drop_view(self, node: ast.DropView) -> str:
        clause = "IF EXISTS " if node.if_exists else ""
        return f"DROP VIEW {clause}{self._ident(node.name)}"

    def _insert(self, node: ast.Insert) -> str:
        columns = (
            f" ({', '.join(self._ident(column) for column in node.columns)})"
            if node.columns
            else ""
        )
        table = self._ident(node.table)
        if node.query is not None:
            return f"INSERT INTO {table}{columns} {self.print(node.query)}"
        rows = ", ".join(
            "(" + ", ".join(self.print(value) for value in row) + ")" for row in node.rows
        )
        return f"INSERT INTO {table}{columns} VALUES {rows}"

    def _update(self, node: ast.Update) -> str:
        assignments = ", ".join(
            f"{self._ident(assignment.column)} = {self.print(assignment.value)}"
            for assignment in node.assignments
        )
        where = f" WHERE {self.print(node.where)}" if node.where is not None else ""
        return f"UPDATE {self._ident(node.table)} SET {assignments}{where}"

    def _delete(self, node: ast.Delete) -> str:
        where = f" WHERE {self.print(node.where)}" if node.where is not None else ""
        return f"DELETE FROM {self._ident(node.table)}{where}"

    def _grant(self, node: ast.Grant) -> str:
        return (
            f"GRANT {', '.join(node.privileges)} ON {self._ident(node.object_name)} "
            f"TO {node.grantee}"
        )

    def _revoke(self, node: ast.Revoke) -> str:
        return (
            f"REVOKE {', '.join(node.privileges)} ON {self._ident(node.object_name)} "
            f"FROM {node.grantee}"
        )

    def _set_scope(self, node: ast.SetScope) -> str:
        return f'SET SCOPE = "{node.scope_text}"'


_PRINTERS = {
    ast.Literal: SqlPrinter._literal,
    ast.Column: SqlPrinter._column,
    ast.Parameter: SqlPrinter._parameter,
    ast.Star: SqlPrinter._star,
    ast.FunctionCall: SqlPrinter._function_call,
    ast.BinaryOp: SqlPrinter._binary_op,
    ast.UnaryOp: SqlPrinter._unary_op,
    ast.Case: SqlPrinter._case,
    ast.InList: SqlPrinter._in_list,
    ast.InSubquery: SqlPrinter._in_subquery,
    ast.Exists: SqlPrinter._exists,
    ast.Between: SqlPrinter._between,
    ast.Like: SqlPrinter._like,
    ast.IsNull: SqlPrinter._is_null,
    ast.ScalarSubquery: SqlPrinter._scalar_subquery,
    ast.Extract: SqlPrinter._extract,
    ast.Substring: SqlPrinter._substring,
    ast.TableRef: SqlPrinter._table_ref,
    ast.SubqueryRef: SqlPrinter._subquery_ref,
    ast.Join: SqlPrinter._join,
    ast.Select: SqlPrinter._select,
    ast.ColumnDef: SqlPrinter._column_def,
    ast.TableConstraint: SqlPrinter._table_constraint,
    ast.CreateTable: SqlPrinter._create_table,
    ast.CreateView: SqlPrinter._create_view,
    ast.CreateFunction: SqlPrinter._create_function,
    ast.DropTable: SqlPrinter._drop_table,
    ast.DropView: SqlPrinter._drop_view,
    ast.Insert: SqlPrinter._insert,
    ast.Update: SqlPrinter._update,
    ast.Delete: SqlPrinter._delete,
    ast.Grant: SqlPrinter._grant,
    ast.Revoke: SqlPrinter._revoke,
    ast.SetScope: SqlPrinter._set_scope,
}
