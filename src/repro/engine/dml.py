"""Execution of INSERT / UPDATE / DELETE statements."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sql import ast
from .expressions import ExpressionCompiler, Scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutionContext


def execute_insert(context: "ExecutionContext", statement: ast.Insert) -> int:
    """Insert literal rows or the result of a SELECT, all or none; returns
    the row count."""
    table = context.database.catalog.table(statement.table)
    if statement.query is not None:
        rows = context.executor.execute(statement.query).rows
    else:
        compiler = ExpressionCompiler(Scope([]), context)
        rows = [
            [compiler.compile(expr)((), ()) for expr in value_exprs]
            for value_exprs in statement.rows
        ]
    if statement.columns:
        rows = [table.complete_row(statement.columns, row) for row in rows]
    table.insert_many(rows)
    return len(rows)


def execute_update(context: "ExecutionContext", statement: ast.Update) -> int:
    """Publish the table with the matching rows rewritten; returns the
    number of rows changed."""
    table = context.database.catalog.table(statement.table)
    scope = Scope([(statement.table, column.name) for column in table.schema.columns])
    compiler = ExpressionCompiler(scope, context)
    predicate = compiler.compile_predicate(statement.where) if statement.where is not None else None
    assignments = []
    for assignment in statement.assignments:
        index = table.schema.column_index(assignment.column)
        assignments.append((index, compiler.compile(assignment.value)))

    changed = 0
    new_rows = []
    for row in table.rows:
        if predicate is None or predicate(row, ()) is True:
            values = list(row)
            for index, value_fn in assignments:
                values[index] = value_fn(row, ())
            new_row = tuple(values)
            table._check_not_null(new_row)
            new_rows.append(new_row)
            changed += 1
        else:
            new_rows.append(row)
    table.publish(new_rows)
    return changed


def execute_delete(context: "ExecutionContext", statement: ast.Delete) -> int:
    """Publish the table without the matching rows; returns the number of
    rows removed."""
    table = context.database.catalog.table(statement.table)
    rows = table.rows
    if statement.where is None:
        table.truncate()
        return len(rows)
    scope = Scope([(statement.table, column.name) for column in table.schema.columns])
    compiler = ExpressionCompiler(scope, context)
    predicate = compiler.compile_predicate(statement.where)
    kept = [row for row in rows if predicate(row, ()) is not True]
    table.publish(kept)
    return len(rows) - len(kept)
