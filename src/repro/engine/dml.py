"""Execution of INSERT / UPDATE / DELETE statements.

A write runs in two steps.  :func:`prepare_write` compiles the statement
into a *write plan* — its target table, the WHERE conjunct kernels, the
key look-up they make, the SET and VALUES kernels — under the run that
needs it, so a bind parameter is a run constant (see
:mod:`repro.engine.constants`): its value's type shapes the kernels, each
run reads its value.  :meth:`WritePlan.run` then reads the table's current
:class:`~repro.engine.storage.TableData` once — its *base* — and publishes
what it changed against that base: rows appended, rows replaced at
positions, rows removed at positions (see :class:`~repro.engine.storage.Table`).
A plan reads no row counts and no table version, so the executor reuses it
until DDL changes the catalog (:meth:`repro.engine.executor.Executor.write`).

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

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from ..sql import ast
from .expressions import Scope
from .planner import KeyLookup, match_key_lookup, scan_batch
from .vector import BatchExpressionCompiler, BatchKernel, RowBatch, apply_batch_predicates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutionContext
    from .storage import Table, TableData


class InsertPlan(NamedTuple):
    """INSERT: the rows of its VALUES kernels, or of its SELECT."""

    table: "Table"
    columns: Sequence[str]
    #: one kernel list per VALUES row (empty for INSERT ... SELECT)
    values: list[list[BatchKernel]]
    query: Optional[ast.Select]

    def run(self, context: "ExecutionContext") -> int:
        """Insert the rows, all or none; returns the row count."""
        base = self.table.data
        if self.query is not None:
            rows = context.executor.execute(
                self.query, parameters=context.parameter_values()
            ).rows
        else:
            one_row = RowBatch([()])
            rows = [[kernel(one_row, ())[0] for kernel in kernels] for kernels in self.values]
        if self.columns:
            rows = [self.table.complete_row(self.columns, row) for row in rows]
        self.table.append(base, rows)
        return len(rows)


class UpdatePlan(NamedTuple):
    """UPDATE: the rows its WHERE matches take its SET kernels' values."""

    table: "Table"
    predicates: list[BatchKernel]
    lookup: Optional[KeyLookup]
    #: ``(column index, kernel)`` per SET assignment
    assignments: list[tuple[int, BatchKernel]]

    def run(self, context: "ExecutionContext") -> int:
        """Publish the table with the matching rows rewritten; returns the
        number of rows changed."""
        base, matched, positions = _matching(self.table, self.predicates, self.lookup)
        assigned = {index: kernel(matched, ()) for index, kernel in self.assignments}
        self.table.replace(base, positions, assigned)
        return len(positions)


class DeletePlan(NamedTuple):
    """DELETE: the rows its WHERE matches go."""

    table: "Table"
    predicates: list[BatchKernel]
    lookup: Optional[KeyLookup]

    def run(self, context: "ExecutionContext") -> int:
        """Publish the table without the matching rows; returns the number
        of rows removed."""
        base, _, positions = _matching(self.table, self.predicates, self.lookup)
        self.table.remove(base, positions)
        return len(positions)


WritePlan = Union[InsertPlan, UpdatePlan, DeletePlan]


def prepare_write(
    context: "ExecutionContext", statement: Union[ast.Insert, ast.Update, ast.Delete]
) -> WritePlan:
    """Compile a DML statement into its write plan (see the module docstring)."""
    table = context.database.catalog.table(statement.table)
    if isinstance(statement, ast.Insert):
        compile_value = BatchExpressionCompiler(Scope([]), context).compile
        values = [list(map(compile_value, row)) for row in statement.rows]
        return InsertPlan(table, statement.columns, values, statement.query)
    compiler, predicates, lookup = _where(context, table, statement)
    if isinstance(statement, ast.Delete):
        return DeletePlan(table, predicates, lookup)
    assignments = [
        (table.schema.column_index(assignment.column), compiler.compile(assignment.value))
        for assignment in statement.assignments
    ]
    return UpdatePlan(table, predicates, lookup, assignments)


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
