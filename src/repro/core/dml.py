"""Rewriting of MTSQL DML statements (§2.5, §3.3 and Appendix A.2).

With ``D = {C}`` DML behaves exactly like plain SQL.  Otherwise the statement
is applied *to each tenant in D separately*: constants and WHERE clauses are
interpreted with respect to C (just like queries) and values written into
convertible attributes are converted into each owner's format.

The rewrite reads no bound value: a ``?`` stays a parameter, wrapped in
the conversion calls like any written value, and each per-owner INSERT
names its owner as a literal ttid.  So one :class:`RewrittenDML` serves
every binding of a prepared statement, and the backends memoize their
write plans in its ``attachments``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from ..errors import RewriteError
from ..sql import ast
from .conversion import ConversionRegistry
from .mtschema import MTSchema, TableInfo
from .rewrite.canonical import CanonicalRewriter
from .rewrite.context import RewriteContext, RewriteOptions


@dataclass
class RewrittenDML:
    """One INSERT … VALUES / UPDATE / DELETE rewritten for a client and D'.

    ``statements`` are what the backend runs, in order (one DELETE, one
    UPDATE or INSERT per owner); their parameters bind per execution.
    Like :class:`~repro.compile.CompiledQuery`, the object is mutable only
    through ``attachments``, where backends memoize what they derive from
    the statements.
    """

    #: the statement kind the result reports (``"INSERT"``, ...)
    kind: str
    statements: tuple[ast.Statement, ...]
    #: the resolved, privilege-pruned data set D' the rewrite applies to
    dataset: tuple[int, ...]
    #: backend-owned memo space for derived execution artifacts
    attachments: dict = field(default_factory=dict, repr=False, compare=False)


class DMLRewriter:
    """Rewrites MTSQL INSERT / UPDATE / DELETE statements into plain SQL."""

    def __init__(self, context: RewriteContext) -> None:
        self.context = context
        self.schema: MTSchema = context.schema
        self.conversions: ConversionRegistry = context.conversions

    def rewrite(
        self, statement: Union[ast.Insert, ast.Update, ast.Delete]
    ) -> RewrittenDML:
        """The statements an INSERT … VALUES, UPDATE or DELETE runs as."""
        if isinstance(statement, ast.Delete):
            statements = [self.rewrite_delete(statement)]
        elif isinstance(statement, ast.Update):
            statements = self.rewrite_update(statement)
        else:
            statements = self.rewrite_insert_values(statement)
        return RewrittenDML(
            type(statement).__name__.upper(), tuple(statements), tuple(self.context.dataset)
        )

    # -- DELETE -------------------------------------------------------------------

    def rewrite_delete(self, statement: ast.Delete) -> ast.Delete:
        """DELETE is applied to all of D at once: rewrite the WHERE, add the D-filter."""
        context = replace(self.context, options=RewriteOptions.canonical())
        where = self._rewrite_where(statement.table, statement.where, context)
        return ast.Delete(table=statement.table, where=where)

    # -- UPDATE -------------------------------------------------------------------

    def rewrite_update(self, statement: ast.Update) -> list[ast.Update]:
        """One UPDATE per tenant in D, with values converted into that tenant's format."""
        table = self._table(statement.table)
        statements: list[ast.Update] = []
        for owner in self.context.dataset:
            # always keep the D-filter: each generated statement targets exactly
            # one owner, regardless of which trivial optimizations queries use
            owner_context = replace(
                self.context, dataset=(owner,), options=RewriteOptions.canonical()
            )
            assignments = [
                ast.Assignment(
                    column=assignment.column,
                    value=self._convert_written_value(table, assignment.column, assignment.value, owner),
                )
                for assignment in statement.assignments
            ]
            where = self._rewrite_where(statement.table, statement.where, owner_context)
            statements.append(
                ast.Update(table=statement.table, assignments=assignments, where=where)
            )
        return statements

    # -- INSERT -------------------------------------------------------------------

    def rewrite_insert_values(self, statement: ast.Insert) -> list[ast.Insert]:
        """One INSERT per tenant in D with converted values and an explicit ttid."""
        if statement.query is not None:
            raise RewriteError(
                "INSERT ... SELECT is executed in two steps by the connection, "
                "not rewritten directly"
            )
        table = self._table(statement.table)
        columns = list(statement.columns) if statement.columns else table.attribute_names()
        statements: list[ast.Insert] = []
        for owner in self.context.dataset:
            rows = []
            for row in statement.rows:
                if len(row) != len(columns):
                    raise RewriteError(
                        f"INSERT into {statement.table!r}: {len(columns)} columns but "
                        f"{len(row)} values"
                    )
                converted = tuple(
                    self._convert_written_value(table, column, value, owner)
                    for column, value in zip(columns, row)
                )
                rows.append(converted + (ast.Literal(owner),))
            statements.append(
                ast.Insert(
                    table=statement.table,
                    columns=tuple(columns) + (table.ttid_column,),
                    rows=rows,
                )
            )
        return statements

    def insert_columns(self, statement: ast.Insert) -> list[str]:
        """The logical column list an INSERT targets (explicit or the MT schema's)."""
        table = self._table(statement.table)
        return list(statement.columns) if statement.columns else table.attribute_names()

    # -- helpers ---------------------------------------------------------------------

    def _table(self, name: str) -> TableInfo:
        if not self.schema.has_table(name):
            raise RewriteError(f"table {name!r} is not registered in the MT schema")
        return self.schema.table(name)

    def _convert_written_value(
        self, table: TableInfo, column: str, value: ast.Expression, owner: int
    ) -> ast.Expression:
        """Convert a client-format value expression into the owner's format."""
        if not table.has_attribute(column):
            raise RewriteError(f"table {table.name!r} has no attribute {column!r}")
        attribute = table.attribute(column)
        if attribute.comparability is not ast.Comparability.CONVERTIBLE:
            return value
        if owner == self.context.client:
            return value
        pair = self.conversions.resolve(attribute.conversion)
        to_universal = ast.func(pair.to_universal, value, ast.Literal(self.context.client))
        return ast.func(pair.from_universal, to_universal, ast.Literal(owner))

    def _rewrite_where(
        self, table_name: str, where: Optional[ast.Expression], context: RewriteContext
    ) -> Optional[ast.Expression]:
        """Reuse the query rewriter on a synthetic single-table query."""
        probe = ast.Select(
            items=[ast.SelectItem(expr=ast.Star())],
            from_items=[ast.TableRef(name=table_name)],
            where=where,
        )
        rewritten = CanonicalRewriter(context).rewrite_query(probe, top_level=False)
        return rewritten.where
