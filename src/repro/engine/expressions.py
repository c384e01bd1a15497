"""Expression binding and evaluation.

Expressions are *compiled* once per statement into Python closures operating
on row tuples.  Column references are resolved to slot indexes at compile
time, which keeps per-row evaluation cheap — important because the canonical
MTSQL rewrite calls conversion UDFs for every processed record, and the
benchmark executes millions of such evaluations.

Compiled closures have the signature ``fn(row, outers)`` where ``row`` is the
current relation's row tuple and ``outers`` is a tuple of ancestor rows
(immediate parent first) used by correlated sub-queries.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional, Sequence

from ..errors import ExecutionError, FunctionError
from ..sql import ast
from ..sql.transform import walk_expression
from ..sql.types import (
    Date,
    Interval,
    add_date_interval,
    date_add_days,
    date_from_string,
    sql_compare,
    sql_equal,
)
from .functions import _fn_mod as _modulo  # ``a % b`` is ``MOD(a, b)``

CompiledExpr = Callable[[tuple, tuple], Any]


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


class ExpressionCompiler:
    """Compiles AST expressions against a scope into evaluation closures."""

    def __init__(self, scope: Scope, context, planned: Optional[dict] = None) -> None:
        self.scope = scope
        self.context = context
        # sub-queries the caller already planned against this scope, keyed
        # by ``id(query)`` (the batch compiler plans one to learn whether it
        # is correlated before falling back to this compiler)
        self._planned = planned or {}

    def _prepare_subquery(self, query: ast.Select):
        planned = self._planned.get(id(query))
        if planned is not None:
            return planned
        return self.context.prepare_subquery(query, self.scope)

    # -- public API ---------------------------------------------------------

    def compile(self, expr: ast.Expression) -> CompiledExpr:
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            raise ExecutionError(f"cannot evaluate expression of type {type(expr).__name__}")
        return method(expr)

    def compile_predicate(self, expr: ast.Expression) -> CompiledExpr:
        """Compile a predicate; callers treat NULL as false."""
        return self.compile(expr)

    # -- leaves -------------------------------------------------------------

    def _compile_literal(self, expr: ast.Literal) -> CompiledExpr:
        value = expr.value
        return lambda row, outers: value

    def _compile_column(self, expr: ast.Column) -> CompiledExpr:
        resolved = self.scope.resolve(expr.name, expr.table)
        if resolved is None:
            raise ExecutionError(f"unknown column {expr.qualified!r}")
        depth, index = resolved
        if depth == 0:
            return lambda row, outers: row[index]
        outer_index = depth - 1
        return lambda row, outers: outers[outer_index][index]

    def _compile_star(self, expr: ast.Star) -> CompiledExpr:
        raise ExecutionError("'*' is only valid in SELECT lists and COUNT(*)")

    def _compile_parameter(self, expr: ast.Parameter) -> CompiledExpr:
        # parameters are bound (substituted as literals) before statements
        # reach the engine; hitting one here means nobody supplied values
        name = f":{expr.name}" if expr.name else f"?{expr.index}"
        raise ExecutionError(
            f"statement has an unbound parameter {name}; supply values via "
            f"execute(..., parameters=...) or the repro.api cursor"
        )

    # -- operators ----------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp) -> CompiledExpr:
        operator = expr.op.upper()
        if operator == "AND":
            left, right = self.compile(expr.left), self.compile(expr.right)
            return lambda row, outers: _logical_and(left(row, outers), right(row, outers))
        if operator == "OR":
            left, right = self.compile(expr.left), self.compile(expr.right)
            return lambda row, outers: _logical_or(left(row, outers), right(row, outers))
        left, right = self.compile(expr.left), self.compile(expr.right)
        if operator == "=":
            return lambda row, outers: sql_equal(left(row, outers), right(row, outers))
        if operator == "<>":
            return lambda row, outers: _not_null_aware(sql_equal(left(row, outers), right(row, outers)))
        if operator in ("<", "<=", ">", ">="):
            return _make_comparison(left, right, operator)
        if operator in ("+", "-", "*", "/"):
            return _make_arithmetic(left, right, operator)
        if operator == "||":
            return lambda row, outers: _concat(left(row, outers), right(row, outers))
        if operator == "%":
            return lambda row, outers: _modulo(left(row, outers), right(row, outers))
        raise ExecutionError(f"unsupported operator {expr.op!r}")

    def _compile_unaryop(self, expr: ast.UnaryOp) -> CompiledExpr:
        operand = self.compile(expr.operand)
        if expr.op.upper() == "NOT":
            return lambda row, outers: _not_null_aware(operand(row, outers))
        if expr.op == "-":
            return lambda row, outers: _negate(operand(row, outers))
        raise ExecutionError(f"unsupported unary operator {expr.op!r}")

    def _compile_case(self, expr: ast.Case) -> CompiledExpr:
        compiled_whens = [
            (self.compile(when.condition), self.compile(when.result)) for when in expr.whens
        ]
        compiled_else = self.compile(expr.else_result) if expr.else_result is not None else None

        def evaluate(row: tuple, outers: tuple) -> Any:
            for condition, result in compiled_whens:
                if condition(row, outers) is True:
                    return result(row, outers)
            if compiled_else is not None:
                return compiled_else(row, outers)
            return None

        return evaluate

    def _compile_inlist(self, expr: ast.InList) -> CompiledExpr:
        value_fn = self.compile(expr.expr)
        item_fns = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def evaluate(row: tuple, outers: tuple) -> Optional[bool]:
            value = value_fn(row, outers)
            if value is None:
                return None
            saw_null = False
            for item_fn in item_fns:
                item = item_fn(row, outers)
                if item is None:
                    saw_null = True
                    continue
                if sql_equal(value, item) is True:
                    return not negated if not negated else False
            if saw_null:
                return None
            return negated

        return evaluate

    def _compile_between(self, expr: ast.Between) -> CompiledExpr:
        value_fn = self.compile(expr.expr)
        low_fn = self.compile(expr.low)
        high_fn = self.compile(expr.high)
        negated = expr.negated

        def evaluate(row: tuple, outers: tuple) -> Optional[bool]:
            value = value_fn(row, outers)
            low = low_fn(row, outers)
            high = high_fn(row, outers)
            if value is None or low is None or high is None:
                return None
            result = sql_compare(value, low) >= 0 and sql_compare(value, high) <= 0
            return (not result) if negated else result

        return evaluate

    def _compile_like(self, expr: ast.Like) -> CompiledExpr:
        value_fn = self.compile(expr.expr)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
            regex = _like_regex(expr.pattern.value)

            def evaluate_static(row: tuple, outers: tuple) -> Optional[bool]:
                value = value_fn(row, outers)
                if value is None:
                    return None
                matched = regex.match(str(value)) is not None
                return (not matched) if negated else matched

            return evaluate_static

        pattern_fn = self.compile(expr.pattern)

        def evaluate(row: tuple, outers: tuple) -> Optional[bool]:
            value = value_fn(row, outers)
            pattern = pattern_fn(row, outers)
            if value is None or pattern is None:
                return None
            matched = _like_regex(str(pattern)).match(str(value)) is not None
            return (not matched) if negated else matched

        return evaluate

    def _compile_isnull(self, expr: ast.IsNull) -> CompiledExpr:
        value_fn = self.compile(expr.expr)
        negated = expr.negated
        return lambda row, outers: (value_fn(row, outers) is not None) if negated else (
            value_fn(row, outers) is None
        )

    def _compile_extract(self, expr: ast.Extract) -> CompiledExpr:
        value_fn = self.compile(expr.expr)
        part = expr.part.upper()

        def evaluate(row: tuple, outers: tuple) -> Optional[int]:
            value = value_fn(row, outers)
            if value is None:
                return None
            date = value if isinstance(value, Date) else date_from_string(str(value))
            if part == "YEAR":
                return date.year
            if part == "MONTH":
                return date.month
            if part == "DAY":
                return date.day
            raise ExecutionError(f"unsupported EXTRACT part {part!r}")

        return evaluate

    def _compile_substring(self, expr: ast.Substring) -> CompiledExpr:
        value_fn = self.compile(expr.expr)
        start_fn = self.compile(expr.start)
        length_fn = self.compile(expr.length) if expr.length is not None else None

        def evaluate(row: tuple, outers: tuple) -> Optional[str]:
            value = value_fn(row, outers)
            start = start_fn(row, outers)
            if value is None or start is None:
                return None
            text = str(value)
            begin = max(int(start) - 1, 0)
            if length_fn is None:
                return text[begin:]
            length = length_fn(row, outers)
            if length is None:
                return None
            return text[begin: begin + int(length)]

        return evaluate

    # -- function calls -----------------------------------------------------

    def _compile_functioncall(self, expr: ast.FunctionCall) -> CompiledExpr:
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name!r} is not allowed in this context"
            )
        arg_fns = [self.compile(argument) for argument in expr.args]
        context = self.context
        name = expr.name

        def evaluate(row: tuple, outers: tuple) -> Any:
            args = [fn(row, outers) for fn in arg_fns]
            return context.call_function(name, args)

        return evaluate

    # -- sub-queries ---------------------------------------------------------

    def _compile_scalarsubquery(self, expr: ast.ScalarSubquery) -> CompiledExpr:
        prepared = self._prepare_subquery(expr.query)

        def evaluate(row: tuple, outers: tuple) -> Any:
            rows = prepared.run((row,) + outers)
            if not rows:
                return None
            if len(rows[0]) != 1:
                raise ExecutionError("scalar sub-query must return a single column")
            return rows[0][0]

        return evaluate

    def _compile_insubquery(self, expr: ast.InSubquery) -> CompiledExpr:
        prepared = self._prepare_subquery(expr.query)
        value_fn = self.compile(expr.expr)
        negated = expr.negated

        def evaluate(row: tuple, outers: tuple) -> Optional[bool]:
            value = value_fn(row, outers)
            if value is None:
                return None
            members = prepared.run_value_set((row,) + outers)
            if value in members.values:
                return not negated
            if members.has_null:
                return None
            return negated

        return evaluate

    def _compile_exists(self, expr: ast.Exists) -> CompiledExpr:
        prepared = self._prepare_subquery(expr.query)
        negated = expr.negated

        def evaluate(row: tuple, outers: tuple) -> bool:
            found = bool(prepared.run((row,) + outers, limit=1))
            return (not found) if negated else found

        return evaluate


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _logical_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _logical_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _not_null_aware(value: Optional[bool]) -> Optional[bool]:
    if value is None:
        return None
    return not value


def _make_comparison(left: CompiledExpr, right: CompiledExpr, operator: str) -> CompiledExpr:
    if operator == "<":
        test = lambda ordering: ordering < 0  # noqa: E731
    elif operator == "<=":
        test = lambda ordering: ordering <= 0  # noqa: E731
    elif operator == ">":
        test = lambda ordering: ordering > 0  # noqa: E731
    else:
        test = lambda ordering: ordering >= 0  # noqa: E731

    def evaluate(row: tuple, outers: tuple) -> Optional[bool]:
        ordering = sql_compare(left(row, outers), right(row, outers))
        if ordering is None:
            return None
        return test(ordering)

    return evaluate


def _make_arithmetic(left: CompiledExpr, right: CompiledExpr, operator: str) -> CompiledExpr:
    def evaluate(row: tuple, outers: tuple) -> Any:
        left_value = left(row, outers)
        right_value = right(row, outers)
        if left_value is None or right_value is None:
            return None
        if isinstance(left_value, Date) or isinstance(right_value, Date):
            return _date_arithmetic(left_value, right_value, operator)
        if operator == "+":
            return left_value + right_value
        if operator == "-":
            return left_value - right_value
        if operator == "*":
            return left_value * right_value
        if right_value == 0:
            raise ExecutionError("division by zero")
        return left_value / right_value

    return evaluate


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


def _concat(left: Any, right: Any) -> Optional[str]:
    if left is None or right is None:
        return None
    return str(left) + str(right)


def _negate(value: Any) -> Any:
    if value is None:
        return None
    return -value


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
