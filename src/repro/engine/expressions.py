"""Name resolution and expression helpers shared by the planner and the
batch compiler (:mod:`repro.engine.vector`).

:class:`Scope` resolves a column reference to a slot of the current row
layout, or of an enclosing query's for a correlated sub-query, and records
the correlation; the analysis helpers at the bottom serve the planner and
the MTSQL rewriter.
"""

from __future__ import annotations

import re
from typing import Any, Optional, Sequence

from ..errors import ExecutionError
from ..sql import ast
from ..sql.transform import walk_expression
from ..sql.types import Date, Interval, add_date_interval, date_add_days


class Scope:
    """A name-resolution scope: an ordered list of ``(binding, column)`` pairs.

    ``binding`` is the FROM-clause alias (or table name) the column belongs
    to, or ``None`` for synthetic columns (group keys, UDF parameters).
    Scopes chain through ``parent`` for correlated sub-queries.

    ``proven`` holds the slot indexes of columns their table's schema
    declares NOT NULL (the planner reads them off the catalog); batch
    compilers count a typed dispatch over such slots only as *proven*, and
    a join build over them skips its NULL-key test.
    """

    def __init__(
        self,
        columns: Sequence[tuple[Optional[str], str]],
        parent: Optional["Scope"] = None,
        proven: frozenset = frozenset(),
    ) -> None:
        self.columns = [
            ((binding.lower() if binding else None), column.lower())
            for binding, column in columns
        ]
        self.parent = parent
        self.proven = proven
        self.uses_parent = False
        self._by_column: dict[str, list[int]] = {}
        self._by_qualified: dict[tuple[str, str], int] = {}
        for index, (binding, column) in enumerate(self.columns):
            self._by_column.setdefault(column, []).append(index)
            if binding is not None:
                self._by_qualified[(binding, column)] = index

    def resolve_local(self, name: str, table: Optional[str]) -> Optional[int]:
        """Resolve within this scope only; None when the column is unknown."""
        column = name.lower()
        if table is not None:
            return self._by_qualified.get((table.lower(), column))
        candidates = self._by_column.get(column)
        if not candidates:
            return None
        if len(candidates) > 1:
            owners = ", ".join(
                self.columns[index][0] or "<anonymous>" for index in candidates
            )
            raise ExecutionError(
                f"ambiguous column reference {name!r}: matches bindings {owners}"
            )
        return candidates[0]

    def resolve(self, name: str, table: Optional[str]) -> Optional[tuple[int, int]]:
        """Resolve across the scope chain.

        Returns ``(depth, index)`` with depth 0 for the local scope, or
        ``None`` when the column cannot be found anywhere.  Crossing into an
        ancestor scope marks every crossed scope as correlated.
        """
        depth = 0
        scope: Optional[Scope] = self
        crossed: list[Scope] = []
        while scope is not None:
            index = scope.resolve_local(name, table)
            if index is not None:
                for inner in crossed:
                    inner.uses_parent = True
                return depth, index
            crossed.append(scope)
            scope = scope.parent
            depth += 1
        return None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _date_arithmetic(left: Any, right: Any, operator: str) -> Any:
    if isinstance(left, Date) and isinstance(right, Interval):
        if operator == "+":
            return add_date_interval(left, right, 1)
        if operator == "-":
            return add_date_interval(left, right, -1)
    if isinstance(left, Interval) and isinstance(right, Date) and operator == "+":
        return add_date_interval(right, left, 1)
    if isinstance(left, Date) and isinstance(right, Date) and operator == "-":
        return (left - right).days
    if isinstance(left, Date) and isinstance(right, (int, float)):
        if operator == "+":
            return date_add_days(left, int(right))
        if operator == "-":
            return date_add_days(left, -int(right))
    raise ExecutionError(f"unsupported date arithmetic: {type(left).__name__} {operator} {type(right).__name__}")


_LIKE_CACHE: dict[str, "re.Pattern[str]"] = {}


def _like_regex(pattern: str) -> "re.Pattern[str]":
    cached = _LIKE_CACHE.get(pattern)
    if cached is not None:
        return cached
    parts: list[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    compiled = re.compile("".join(parts) + r"\Z", re.DOTALL)
    _LIKE_CACHE[pattern] = compiled
    return compiled


# ---------------------------------------------------------------------------
# analysis helpers used by the planner and the MTSQL rewriter
# ---------------------------------------------------------------------------


def contains_subquery(expr: Optional[ast.Expression]) -> bool:
    """True when the expression contains any sub-query node."""
    for node in walk_expression(expr):
        if isinstance(node, ast.SUBQUERY_NODES):
            return True
    return False


def referenced_columns(expr: Optional[ast.Expression]) -> list[ast.Column]:
    """All column references in an expression (sub-queries excluded)."""
    return [node for node in walk_expression(expr) if isinstance(node, ast.Column)]
