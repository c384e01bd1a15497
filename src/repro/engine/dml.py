"""Execution of INSERT / UPDATE / DELETE statements.

Each statement reads the table's current
:class:`~repro.engine.storage.TableData` once — its *base* — and publishes
what it changed against that base: rows appended, rows replaced at
positions, rows removed at positions (see :class:`~repro.engine.storage.Table`).
UPDATE and DELETE whose WHERE fixes the whole primary key find their row
through the base's key index when the base already holds it and it is
unique (:func:`~repro.engine.planner.match_key_lookup`, the matcher scans
use too).  The others find their rows the way a scan does: the base as one :func:`~repro.engine.planner.scan_batch` (typed
payloads over the columns declared NOT NULL), WHERE split into conjuncts
and applied in order by :func:`~repro.engine.vector.apply_batch_predicates`,
so a later conjunct never sees a row an earlier one dropped.  The matched
positions are the filtered batch's selection, and SET runs only over those
rows, so a row the statement does not touch raises nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..sql import ast
from .expressions import Scope
from .planner import KeyLookup, match_key_lookup, scan_batch
from .vector import BatchExpressionCompiler, BatchKernel, RowBatch, apply_batch_predicates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutionContext
    from .storage import Table, TableData


def execute_insert(context: "ExecutionContext", statement: ast.Insert) -> int:
    """Insert literal rows or the result of a SELECT, all or none; returns
    the row count."""
    table = context.database.catalog.table(statement.table)
    base = table.data
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
    table.append(base, rows)
    return len(rows)


def _where(
    context: "ExecutionContext", table: "Table", statement: Union[ast.Update, ast.Delete]
) -> tuple[BatchExpressionCompiler, list[BatchKernel], Optional[KeyLookup]]:
    """A compiler over the table's columns, bound under the statement's
    table name with the NOT NULL columns proven as in a scan, the WHERE
    conjuncts it compiled, and the key look-up they make, if any."""
    columns = table.schema.columns
    scope = Scope(
        [(statement.table, column.name) for column in columns],
        proven=frozenset(slot for slot, column in enumerate(columns) if column.not_null),
    )
    compiler = BatchExpressionCompiler(scope, context)
    conjuncts = ast.split_conjuncts(statement.where)
    lookup = match_key_lookup(
        table.schema,
        {statement.table.lower()},
        conjuncts,
        BatchExpressionCompiler(Scope([]), context).compile,
    )
    return compiler, [compiler.compile_predicate(conjunct) for conjunct in conjuncts], lookup


def _matching(
    table: "Table", predicates: list[BatchKernel], lookup: Optional[KeyLookup]
) -> tuple["TableData", RowBatch, Sequence[int]]:
    """The base version, its rows the WHERE ``predicates`` keep as a
    batch, and their positions in the base.

    A key look-up is taken only when the base already holds the key's index
    and it is unique: the probe finds at most one row and no other row of
    the base equals it, so ``rows.index`` gives its exact position.
    Otherwise (no look-up, an index not built yet or over a key loaded
    twice, a probe value left to the scan) the base is scanned, and no
    index is built for it."""
    base = table.data
    index = base.indexes.get(lookup.columns) if lookup is not None else None
    if index is not None and index.unique:
        matched = lookup.batch(base, predicates, ())
        if matched is not None:
            return base, matched, [base.rows.index(row) for row in matched.rows]
    matched = apply_batch_predicates(scan_batch(base), predicates, ())
    return base, matched, matched.sel if matched.sel is not None else range(matched.n)


def execute_update(context: "ExecutionContext", statement: ast.Update) -> int:
    """Publish the table with the matching rows rewritten; returns the
    number of rows changed."""
    table = context.database.catalog.table(statement.table)
    compiler, predicates, lookup = _where(context, table, statement)
    assignments = [
        (table.schema.column_index(assignment.column), compiler.compile(assignment.value))
        for assignment in statement.assignments
    ]
    base, matched, positions = _matching(table, predicates, lookup)
    table.replace(base, positions, {index: kernel(matched, ()) for index, kernel in assignments})
    return len(positions)


def execute_delete(context: "ExecutionContext", statement: ast.Delete) -> int:
    """Publish the table without the matching rows; returns the number of
    rows removed."""
    table = context.database.catalog.table(statement.table)
    _, predicates, lookup = _where(context, table, statement)
    base, _, positions = _matching(table, predicates, lookup)
    table.remove(base, positions)
    return len(positions)
