"""Execution of INSERT / UPDATE / DELETE statements.

UPDATE and DELETE read the table's current :class:`~repro.engine.storage.TableData`
once and evaluate WHERE and SET as batch kernels over one
:class:`~repro.engine.vector.RowBatch` of that version; the next version is
published once.  SET runs only over the rows WHERE selected, so a row the
statement does not touch raises nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..sql import ast
from .expressions import Scope
from .vector import BatchExpressionCompiler, RowBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutionContext
    from .storage import Table


def execute_insert(context: "ExecutionContext", statement: ast.Insert) -> int:
    """Insert literal rows or the result of a SELECT, all or none; returns
    the row count."""
    table = context.database.catalog.table(statement.table)
    if statement.query is not None:
        rows = context.executor.execute(statement.query).rows
    else:
        compiler = BatchExpressionCompiler(Scope([]), context)
        one_row = RowBatch([()])
        rows = [
            [compiler.compile(expr)(one_row, ())[0] for expr in value_exprs]
            for value_exprs in statement.rows
        ]
    if statement.columns:
        rows = [table.complete_row(statement.columns, row) for row in rows]
    table.insert_many(rows)
    return len(rows)


def _version_batch(
    context: "ExecutionContext", table: "Table", name: str
) -> tuple[RowBatch, BatchExpressionCompiler]:
    """The table's current version as one batch, and a compiler over its
    columns (bound as ``name``)."""
    data = table.data
    scope = Scope([(name, column.name) for column in table.schema.columns])
    batch = RowBatch(data.rows, col_source=data.column_array)
    return batch, BatchExpressionCompiler(scope, context)


def execute_update(context: "ExecutionContext", statement: ast.Update) -> int:
    """Publish the table with the matching rows rewritten; returns the
    number of rows changed."""
    table = context.database.catalog.table(statement.table)
    batch, compiler = _version_batch(context, table, statement.table)
    where = compiler.compile(statement.where) if statement.where is not None else None
    assignments = [
        (table.schema.column_index(assignment.column), compiler.compile(assignment.value))
        for assignment in statement.assignments
    ]
    if where is None:
        matched: Sequence[int] = range(batch.n)
        selected = batch
    else:
        mask = where(batch, ())
        matched = [position for position, keep in enumerate(mask) if keep is True]
        selected = batch.select(matched)
    columns = [(index, kernel(selected, ())) for index, kernel in assignments]
    rows = list(batch.rows)
    for local, position in enumerate(matched):
        values = list(rows[position])
        for index, column in columns:
            values[index] = column[local]
        new_row = tuple(values)
        table._check_not_null(new_row)
        rows[position] = new_row
    table.publish(rows)
    return len(matched)


def execute_delete(context: "ExecutionContext", statement: ast.Delete) -> int:
    """Publish the table without the matching rows; returns the number of
    rows removed."""
    table = context.database.catalog.table(statement.table)
    if statement.where is None:
        removed = len(table.rows)
        table.truncate()
        return removed
    batch, compiler = _version_batch(context, table, statement.table)
    mask = compiler.compile(statement.where)(batch, ())
    kept = [row for row, keep in zip(batch.rows, mask) if keep is not True]
    table.publish(kept)
    return batch.n - len(kept)
