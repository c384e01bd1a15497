"""Static semantic analysis: the prepare-time type/nullability checker.

:class:`TypeChecker` walks a submitted SELECT against the middleware's
logical MT schema *before* any backend or shard sees the statement and

* resolves every column reference (unknown and ambiguous references are
  rejected with the offending fragment rendered back to SQL),
* infers a static :class:`~repro.sql.types.SQLType` for every expression,
  mirroring the runtime coercion lattice — the checker must never reject a
  statement the engine would execute,
* enforces structural rules: no aggregates in WHERE/GROUP BY/join
  conditions, no nested aggregates, grouped queries may only output group
  keys and aggregates (the HAVING/SELECT placement rule),
* checks registered UDF signatures (arity and argument types of functions
  declared through ``CREATE FUNCTION``),
* assigns a type to each bind-parameter slot from the context it is
  compared in, so mistyped bind values fail at execute time with the same
  :class:`~repro.errors.TypeCheckError` taxonomy.

Every violation raises :class:`~repro.errors.TypeCheckError`.  A clean walk
produces a :class:`SemanticFacts` artifact that travels on the
:class:`~repro.compile.artifact.CompiledQuery`:

* ``proven_not_null`` — per table, the columns whose non-nullness is
  *proven* by a declared ``NOT NULL`` (storage enforces it).  The cost
  model uses this to skip null-fraction discounting; the engine reads the
  same declarations off its own catalog,
* ``column_owners`` — which FROM binding each column reference of the
  *rewritten* statement resolves to; the shardability analysis consumes
  this instead of re-walking the AST with an any-binding heuristic,
* ``parameter_types`` — inferred type per bind-parameter slot,
* ``expression_types`` — the inferred type of every expression node of the
  original statement (keyed by ``id(node)``; the artifact keeps the AST
  alive).

The analyzer is *lenient by construction*: any relation, column or function
it cannot see in the MT schema contributes "type unknown", and unknown
types are compatible with everything.  Only provable contradictions are
errors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import ConfigurationError, TypeCheckError, TypeMismatchError
from ..sql import ast
from ..sql.transform import find_aggregate_calls, iter_select_expressions, walk_expression
from ..sql.types import (
    Date,
    Interval,
    SQLType,
    arithmetic_result,
    comparison_compatible,
    is_numeric_type,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mtschema import MTSchema

#: comparison operators checked against the coercion lattice
_COMPARISONS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
#: arithmetic operators checked against the numeric/date rules
_ARITHMETIC = frozenset({"+", "-", "*", "/"})


def env_typecheck() -> bool:
    """Parse ``REPRO_COMPILE_TYPECHECK`` strictly (default: enabled).

    ``"1"`` (or unset/empty) enables the prepare-time checker, ``"0"``
    disables it — the escape hatch the CI matrix exercises; results must be
    identical either way, only diagnostics and the cost model's NOT NULL
    shortcut change.  Anything else raises :class:`ConfigurationError`.
    """
    value = os.environ.get("REPRO_COMPILE_TYPECHECK", "").strip()
    if not value or value == "1":
        return True
    if value == "0":
        return False
    raise ConfigurationError(
        f"the REPRO_COMPILE_TYPECHECK environment variable must be "
        f"'0' or '1' (got {value!r})"
    )


@dataclass(frozen=True)
class UDFSignature:
    """The declared signature of a ``CREATE FUNCTION`` UDF.

    Types the catalog does not model map to ``None`` (unknown) — the
    checker then only enforces arity for that position.
    """

    name: str
    arg_types: tuple[Optional[SQLType], ...]
    return_type: Optional[SQLType]

    @classmethod
    def from_create(cls, statement: ast.CreateFunction) -> "UDFSignature":
        """Derive the signature from a parsed ``CREATE FUNCTION`` statement."""

        def resolve(type_name: str) -> Optional[SQLType]:
            try:
                return SQLType.from_name(type_name)
            except TypeMismatchError:
                return None

        return cls(
            name=statement.name,
            arg_types=tuple(resolve(name) for name in statement.arg_types),
            return_type=resolve(statement.return_type),
        )


@dataclass
class SemanticFacts:
    """What one clean static-analysis walk proved about a statement."""

    #: ``id(expression node)`` in the *original* statement -> inferred type
    #: (``None`` = unknown)
    expression_types: dict[int, Optional[SQLType]] = field(default_factory=dict)
    #: bind-parameter slot index -> the type its comparison context implies
    parameter_types: dict[int, SQLType] = field(default_factory=dict)
    #: table name (lower) -> columns (lower) proven NOT NULL by the schema
    proven_not_null: dict[str, frozenset[str]] = field(default_factory=dict)
    #: ``id(Column node)`` in the *rewritten* statement -> owning FROM
    #: binding (lower); the shardability analysis' provenance map
    column_owners: dict[int, str] = field(default_factory=dict)


def schema_proven_not_null(schema: "MTSchema") -> dict[str, frozenset[str]]:
    """Per-table NOT NULL column sets, derived from the MT schema.

    Sound because the physical layer enforces the declared constraint: a
    stored value of a ``NOT NULL`` column can never be ``None``.  The
    invisible ttid column of tenant-specific tables is always proven (the
    middleware declares it ``NOT NULL`` when creating the physical table).
    """
    proven: dict[str, frozenset[str]] = {}
    for table in schema.tables():
        columns = {
            attribute.key for attribute in table.attributes.values() if attribute.not_null
        }
        if table.is_tenant_specific:
            columns.add(table.ttid_column.lower())
        if columns:
            proven[table.key] = frozenset(columns)
    return proven


def value_sql_type(value) -> Optional[SQLType]:
    """The static type of a Python bind value (``None`` for NULL/exotic)."""
    if isinstance(value, bool):
        return SQLType.BOOLEAN
    if isinstance(value, int):
        return SQLType.INTEGER
    if isinstance(value, float):
        return SQLType.DECIMAL
    if isinstance(value, Date):
        return SQLType.DATE
    if isinstance(value, str):
        return SQLType.VARCHAR
    return None


def check_parameter_values(
    parameter_types: dict[int, SQLType], values: tuple
) -> None:
    """Check bind values against the analyzer's inferred slot types.

    ``values`` is the positional tuple (slot 1 = ``values[0]``).  NULLs and
    values of unmodelled Python types pass; a value whose static type is
    incompatible with the slot's inferred type raises
    :class:`~repro.errors.TypeCheckError` naming the slot.
    """
    for index, expected in parameter_types.items():
        if not 1 <= index <= len(values):
            continue  # arity errors are the parameter resolver's job
        value = values[index - 1]
        actual = value_sql_type(value)
        if actual is None:
            continue
        if not comparison_compatible(expected, actual):
            raise TypeCheckError(
                f"parameter {index} expects {_type_name(expected)}, got "
                f"{_type_name(actual)} value {value!r}",
                fragment=f"?{index}",
            )


def _fragment(node: ast.Node) -> str:
    """Render the offending fragment for a diagnostic (best effort)."""
    try:
        return node.to_sql()
    except Exception:  # pragma: no cover - defensive: diagnostics never fail
        return type(node).__name__


def _error(message: str, node: ast.Node) -> TypeCheckError:
    fragment = _fragment(node)
    return TypeCheckError(f"{message} in {fragment!r}", fragment=fragment)


def _type_name(sql_type: Optional[SQLType]) -> str:
    return sql_type.value if sql_type is not None else "unknown"


# ---------------------------------------------------------------------------
# Name environments
# ---------------------------------------------------------------------------


class _Frame:
    """One query level's FROM bindings: name -> column types (or unknown).

    ``columns`` of ``None`` marks a relation the MT schema does not know
    (a view, a backend-created table); every reference against it resolves
    with an unknown type instead of an error.
    """

    __slots__ = ("bindings",)

    def __init__(self) -> None:
        self.bindings: list[tuple[str, Optional[dict[str, Optional[SQLType]]]]] = []

    def add(self, binding: str, columns: Optional[dict[str, Optional[SQLType]]]) -> None:
        self.bindings.append((binding.lower(), columns))

    def lookup_binding(self, table: str):
        table = table.lower()
        for binding, columns in self.bindings:
            if binding == table:
                return columns
        return None

    def has_binding(self, table: str) -> bool:
        table = table.lower()
        return any(binding == table for binding, _ in self.bindings)


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


class TypeChecker:
    """Schema-aware static analyzer for one statement (see module docstring).

    One instance per compilation: :meth:`check` walks the original
    statement and raises on the first violation; :meth:`facts` then
    assembles the :class:`SemanticFacts` artifact (including the
    column-provenance map of the rewritten statement).
    """

    def __init__(
        self,
        schema: "MTSchema",
        udf_signatures: Optional[dict[str, UDFSignature]] = None,
    ) -> None:
        self.schema = schema
        self.udf_signatures = {
            name.lower(): signature for name, signature in (udf_signatures or {}).items()
        }
        self.expression_types: dict[int, Optional[SQLType]] = {}
        self.parameter_types: dict[int, SQLType] = {}

    # -- public API ----------------------------------------------------------

    def check(self, statement: ast.Select) -> None:
        """Validate one SELECT; raises :class:`TypeCheckError` on violation."""
        self._check_select(statement, parents=())

    def facts(self, rewritten: ast.Select) -> SemanticFacts:
        """The facts artifact for a statement that passed :meth:`check`."""
        owners: dict[int, str] = {}
        self._collect_owners(rewritten, parents=(), owners=owners)
        return SemanticFacts(
            expression_types=dict(self.expression_types),
            parameter_types=dict(self.parameter_types),
            proven_not_null=schema_proven_not_null(self.schema),
            column_owners=owners,
        )

    # -- frames ---------------------------------------------------------------

    def _table_columns(self, name: str) -> Optional[dict[str, Optional[SQLType]]]:
        if not self.schema.has_table(name):
            return None
        info = self.schema.table(name)
        columns = {key: attribute.sql_type for key, attribute in info.attributes.items()}
        # the invisible ttid column: the rewrite references it, and the
        # physical table carries it, so it resolves (as INTEGER)
        columns.setdefault(info.ttid_column.lower(), SQLType.INTEGER)
        return columns

    def _frame_for(self, select: ast.Select, parents: tuple) -> _Frame:
        frame = _Frame()

        def add_item(item: ast.FromItem) -> None:
            if isinstance(item, ast.TableRef):
                frame.add(item.binding, self._table_columns(item.name))
            elif isinstance(item, ast.SubqueryRef):
                outputs = self._check_select(item.query, parents)
                columns: Optional[dict[str, Optional[SQLType]]]
                if outputs is None:
                    columns = None
                else:
                    columns = {}
                    for name, sql_type in outputs:
                        if name is not None:
                            columns[name.lower()] = sql_type
                frame.add(item.binding, columns)
            elif isinstance(item, ast.Join):
                add_item(item.left)
                add_item(item.right)

        for item in select.from_items:
            add_item(item)
        return frame

    # -- select walk ----------------------------------------------------------

    def _check_select(
        self, select: ast.Select, parents: tuple
    ) -> Optional[list[tuple[Optional[str], Optional[SQLType]]]]:
        """Check one query level; returns its output columns (name, type).

        ``None`` output means the shape is unknown (a ``*`` over a relation
        the schema does not model) — consumers then treat every column of
        the derived table as unknown.
        """
        frame = self._frame_for(select, parents)
        frames = (frame,) + parents

        # join conditions are predicates: boolean, aggregate-free
        def visit_join(item: ast.FromItem) -> None:
            if isinstance(item, ast.Join):
                visit_join(item.left)
                visit_join(item.right)
                if item.condition is not None:
                    self._forbid_aggregates(item.condition, "a join condition")
                    self._check_predicate(item.condition, frames, "a join condition")

        for item in select.from_items:
            visit_join(item)

        if select.where is not None:
            self._forbid_aggregates(select.where, "the WHERE clause")
            self._check_predicate(select.where, frames, "the WHERE clause")

        group_keys: set[str] = set()
        for expr in select.group_by:
            self._forbid_aggregates(expr, "the GROUP BY clause")
            self._infer(expr, frames)
            group_keys.add(_fragment(expr).lower())

        aliases = {
            item.alias.lower() for item in select.items if item.alias is not None
        }
        grouped = bool(select.group_by) or any(
            find_aggregate_calls(item.expr) for item in select.items
        )

        outputs: Optional[list[tuple[Optional[str], Optional[SQLType]]]] = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                outputs = self._expand_star(item.expr, frame, outputs)
                continue
            sql_type = self._infer(item.expr, frames)
            if grouped:
                self._check_grouped(item.expr, group_keys, "the SELECT list")
            if outputs is not None:
                name = item.alias
                if name is None and isinstance(item.expr, ast.Column):
                    name = item.expr.name
                outputs.append((name, sql_type))

        if select.having is not None:
            self._check_predicate(select.having, frames, "the HAVING clause")
            if grouped:
                self._check_grouped(select.having, group_keys, "the HAVING clause")

        for order in select.order_by:
            expr = order.expr
            if (
                isinstance(expr, ast.Column)
                and expr.table is None
                and expr.name.lower() in aliases
            ):
                continue  # references a SELECT-list alias, already checked
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                continue  # positional ORDER BY
            self._infer(expr, frames)
            if grouped:
                self._check_grouped(expr, group_keys, "the ORDER BY clause", aliases)

        return outputs

    def _expand_star(self, star: ast.Star, frame: _Frame, outputs):
        """Fold a ``*`` / ``alias.*`` item into the output column list."""
        if outputs is None:
            return None
        if star.table is not None:
            columns = frame.lookup_binding(star.table)
            if not frame.has_binding(star.table):
                raise _error(f"unknown table or alias {star.table!r}", star)
            if columns is None:
                return None
            outputs.extend(columns.items())
            return outputs
        for _, columns in frame.bindings:
            if columns is None:
                return None
            outputs.extend(columns.items())
        return outputs

    # -- structural rules ------------------------------------------------------

    def _forbid_aggregates(self, expr: Optional[ast.Expression], clause: str) -> None:
        aggregates = find_aggregate_calls(expr)
        if aggregates:
            raise _error(
                f"aggregate function {aggregates[0].name.upper()} is not allowed in {clause}",
                aggregates[0],
            )

    def _check_grouped(
        self,
        expr: Optional[ast.Expression],
        group_keys: set[str],
        clause: str,
        aliases: frozenset = frozenset(),
    ) -> None:
        """Enforce the placement rule of grouped queries.

        Descent stops at group-key expressions (matched by rendered SQL),
        aggregate calls and sub-queries; any column reference reached past
        those must therefore be grouped.
        """
        if expr is None:
            return
        if _fragment(expr).lower() in group_keys:
            return
        if isinstance(expr, ast.FunctionCall) and expr.is_aggregate:
            return
        if isinstance(expr, ast.SUBQUERY_NODES):
            return
        if isinstance(expr, ast.Column):
            if expr.table is None and expr.name.lower() in aliases:
                return
            raise _error(
                f"column {expr.qualified} must appear in the GROUP BY clause "
                f"or be used in an aggregate function ({clause})",
                expr,
            )
        for child in expr.children():
            self._check_grouped(child, group_keys, clause, aliases)

    def _check_predicate(self, expr: ast.Expression, frames: tuple, clause: str) -> None:
        sql_type = self._infer(expr, frames)
        if sql_type is not None and sql_type is not SQLType.BOOLEAN:
            raise _error(
                f"{clause} must be a boolean, not {_type_name(sql_type)}", expr
            )

    # -- column resolution -----------------------------------------------------

    def _resolve_column(self, node: ast.Column, frames: tuple) -> Optional[SQLType]:
        if node.name.startswith("$"):
            return None  # internal rewrite placeholder, never client input
        name = node.name.lower()
        if node.table is not None:
            for frame in frames:
                columns = frame.lookup_binding(node.table)
                if columns is not None:
                    if name in columns:
                        return columns[name]
                    raise _error(
                        f"unknown column {node.qualified}: "
                        f"{node.table!r} has no column {node.name!r}",
                        node,
                    )
                if frame.has_binding(node.table):
                    return None  # relation unknown to the schema: lenient
            raise _error(f"unknown table or alias {node.table!r}", node)
        for frame in frames:
            matches = [
                (binding, columns[name])
                for binding, columns in frame.bindings
                if columns is not None and name in columns
            ]
            if len(matches) > 1:
                owners = ", ".join(sorted(binding for binding, _ in matches))
                raise _error(
                    f"ambiguous column reference {node.name!r}: "
                    f"resolves in bindings {owners}",
                    node,
                )
            if matches:
                return matches[0][1]
            if any(columns is None for _, columns in frame.bindings):
                return None  # could belong to the unknown relation: lenient
        raise _error(f"unknown column {node.name!r}", node)

    # -- type inference --------------------------------------------------------

    def _infer(self, expr: ast.Expression, frames: tuple) -> Optional[SQLType]:
        sql_type = self._infer_inner(expr, frames)
        self.expression_types[id(expr)] = sql_type
        return sql_type

    def _infer_inner(self, expr: ast.Expression, frames: tuple) -> Optional[SQLType]:
        if isinstance(expr, ast.Literal):
            return self._literal_type(expr.value)
        if isinstance(expr, ast.Column):
            return self._resolve_column(expr, frames)
        if isinstance(expr, ast.Parameter):
            return self.parameter_types.get(expr.index)
        if isinstance(expr, ast.Star):
            return None  # only legal inside COUNT(*); the executor enforces
        if isinstance(expr, ast.FunctionCall):
            return self._infer_function(expr, frames)
        if isinstance(expr, ast.BinaryOp):
            return self._infer_binary(expr, frames)
        if isinstance(expr, ast.UnaryOp):
            return self._infer_unary(expr, frames)
        if isinstance(expr, ast.Case):
            return self._infer_case(expr, frames)
        if isinstance(expr, ast.InList):
            expr_type = self._infer(expr.expr, frames)
            for item in expr.items:
                item_type = self._infer(item, frames)
                self._note_parameter(item, expr_type)
                if not comparison_compatible(expr_type, item_type):
                    raise _error(
                        f"cannot compare {_type_name(expr_type)} with "
                        f"{_type_name(item_type)}",
                        expr,
                    )
            self._note_parameter(expr.expr, self._common_type(
                [self.expression_types.get(id(item)) for item in expr.items]
            ))
            return SQLType.BOOLEAN
        if isinstance(expr, ast.InSubquery):
            expr_type = self._infer(expr.expr, frames)
            outputs = self._check_select(expr.query, frames)
            if outputs is not None and len(outputs) == 1:
                sub_type = outputs[0][1]
                self._note_parameter(expr.expr, sub_type)
                if not comparison_compatible(expr_type, sub_type):
                    raise _error(
                        f"cannot compare {_type_name(expr_type)} with "
                        f"{_type_name(sub_type)}",
                        expr,
                    )
            return SQLType.BOOLEAN
        if isinstance(expr, ast.Exists):
            self._check_select(expr.query, frames)
            return SQLType.BOOLEAN
        if isinstance(expr, ast.Between):
            expr_type = self._infer(expr.expr, frames)
            for bound in (expr.low, expr.high):
                bound_type = self._infer(bound, frames)
                self._note_parameter(bound, expr_type)
                if not comparison_compatible(expr_type, bound_type):
                    raise _error(
                        f"cannot compare {_type_name(expr_type)} with "
                        f"{_type_name(bound_type)}",
                        expr,
                    )
            self._note_parameter(expr.expr, self._common_type(
                [self.expression_types.get(id(expr.low)),
                 self.expression_types.get(id(expr.high))]
            ))
            return SQLType.BOOLEAN
        if isinstance(expr, ast.Like):
            expr_type = self._infer(expr.expr, frames)
            pattern_type = self._infer(expr.pattern, frames)
            for side, side_type in ((expr.expr, expr_type), (expr.pattern, pattern_type)):
                if side_type is not None and side_type is not SQLType.VARCHAR:
                    raise _error(
                        f"LIKE requires strings, not {_type_name(side_type)}", expr
                    )
                self._note_parameter(side, SQLType.VARCHAR)
            return SQLType.BOOLEAN
        if isinstance(expr, ast.IsNull):
            self._infer(expr.expr, frames)
            return SQLType.BOOLEAN
        if isinstance(expr, ast.ScalarSubquery):
            outputs = self._check_select(expr.query, frames)
            if outputs is not None and len(outputs) == 1:
                return outputs[0][1]
            return None
        if isinstance(expr, ast.Extract):
            expr_type = self._infer(expr.expr, frames)
            if expr_type is not None and expr_type is not SQLType.DATE:
                raise _error(
                    f"EXTRACT requires a date, not {_type_name(expr_type)}", expr
                )
            return SQLType.INTEGER
        if isinstance(expr, ast.Substring):
            expr_type = self._infer(expr.expr, frames)
            if expr_type is not None and expr_type is not SQLType.VARCHAR:
                raise _error(
                    f"SUBSTRING requires a string, not {_type_name(expr_type)}", expr
                )
            for bound in (expr.start, expr.length):
                if bound is None:
                    continue
                bound_type = self._infer(bound, frames)
                if bound_type is not None and not is_numeric_type(bound_type):
                    raise _error(
                        f"SUBSTRING bounds must be numeric, not "
                        f"{_type_name(bound_type)}",
                        expr,
                    )
            return SQLType.VARCHAR
        return None  # unknown node kind: stay lenient

    @staticmethod
    def _literal_type(value) -> Optional[SQLType]:
        if isinstance(value, bool):
            return SQLType.BOOLEAN
        if isinstance(value, int):
            return SQLType.INTEGER
        if isinstance(value, float):
            return SQLType.DECIMAL
        if isinstance(value, Date):
            return SQLType.DATE
        if isinstance(value, str):
            return SQLType.VARCHAR
        return None  # NULL, intervals, ... carry no comparable static type

    @staticmethod
    def _common_type(types: list) -> Optional[SQLType]:
        known = [sql_type for sql_type in types if sql_type is not None]
        if not known:
            return None
        first = known[0]
        if all(sql_type is first for sql_type in known):
            return first
        if all(is_numeric_type(sql_type) for sql_type in known):
            result = known[0]
            for sql_type in known[1:]:
                result = arithmetic_result(result, sql_type)
            return result
        return None

    def _note_parameter(self, expr: ast.Expression, sql_type: Optional[SQLType]) -> None:
        """Record the type a comparison context implies for a parameter slot."""
        if not isinstance(expr, ast.Parameter) or sql_type is None:
            return
        existing = self.parameter_types.get(expr.index)
        if existing is None:
            self.parameter_types[expr.index] = sql_type
        elif not comparison_compatible(existing, sql_type):
            raise _error(
                f"parameter {expr.index} is used as both "
                f"{_type_name(existing)} and {_type_name(sql_type)}",
                expr,
            )

    def _infer_function(self, expr: ast.FunctionCall, frames: tuple) -> Optional[SQLType]:
        name = expr.name.upper()
        if expr.is_aggregate:
            for arg in expr.args:
                self._forbid_nested_aggregates(arg)
            arg_types = [
                self._infer(arg, frames)
                for arg in expr.args
                if not isinstance(arg, ast.Star)
            ]
            if name == "COUNT":
                return SQLType.INTEGER
            if len(expr.args) != 1:
                raise _error(
                    f"{name} takes exactly one argument, got {len(expr.args)}", expr
                )
            arg_type = arg_types[0] if arg_types else None
            if name in ("SUM", "AVG"):
                if arg_type is not None and not is_numeric_type(arg_type):
                    raise _error(
                        f"{name} requires a numeric argument, not "
                        f"{_type_name(arg_type)}",
                        expr,
                    )
                return SQLType.DECIMAL if name == "AVG" else arg_type
            return arg_type  # MIN/MAX preserve the argument type
        arg_types = [self._infer(arg, frames) for arg in expr.args]
        signature = self.udf_signatures.get(expr.name.lower())
        if signature is None:
            return None  # not declared through CREATE FUNCTION: unchecked
        if len(expr.args) != len(signature.arg_types):
            raise _error(
                f"function {expr.name} takes {len(signature.arg_types)} "
                f"argument(s), got {len(expr.args)}",
                expr,
            )
        for position, (arg, declared) in enumerate(
            zip(expr.args, signature.arg_types), start=1
        ):
            actual = arg_types[position - 1]
            self._note_parameter(arg, declared)
            if not comparison_compatible(declared, actual):
                raise _error(
                    f"argument {position} of {expr.name} expects "
                    f"{_type_name(declared)}, got {_type_name(actual)}",
                    expr,
                )
        return signature.return_type

    def _forbid_nested_aggregates(self, expr: ast.Expression) -> None:
        aggregates = find_aggregate_calls(expr)
        if aggregates:
            raise _error(
                f"aggregate function {aggregates[0].name.upper()} cannot be nested "
                f"inside another aggregate",
                aggregates[0],
            )

    def _infer_binary(self, expr: ast.BinaryOp, frames: tuple) -> Optional[SQLType]:
        op = expr.op.upper()
        left_type = self._infer(expr.left, frames)
        right_type = self._infer(expr.right, frames)
        if op in ("AND", "OR"):
            for side, side_type in ((expr.left, left_type), (expr.right, right_type)):
                if side_type is not None and side_type is not SQLType.BOOLEAN:
                    raise _error(
                        f"argument of {op} must be a boolean, not "
                        f"{_type_name(side_type)}",
                        side,
                    )
            return SQLType.BOOLEAN
        if op in _COMPARISONS:
            self._note_parameter(expr.left, right_type)
            self._note_parameter(expr.right, left_type)
            if not comparison_compatible(left_type, right_type):
                raise _error(
                    f"cannot compare {_type_name(left_type)} with "
                    f"{_type_name(right_type)}",
                    expr,
                )
            return SQLType.BOOLEAN
        if op == "||":
            for side_type in (left_type, right_type):
                if side_type is not None and side_type is not SQLType.VARCHAR:
                    raise _error(
                        f"|| requires strings, not {_type_name(side_type)}", expr
                    )
            return SQLType.VARCHAR
        if op in _ARITHMETIC:
            return self._infer_arithmetic(expr, left_type, right_type)
        return None

    def _infer_arithmetic(
        self,
        expr: ast.BinaryOp,
        left_type: Optional[SQLType],
        right_type: Optional[SQLType],
    ) -> Optional[SQLType]:
        op = expr.op
        left_interval = self._is_interval(expr.left)
        right_interval = self._is_interval(expr.right)
        if left_type is SQLType.DATE or right_type is SQLType.DATE:
            if op == "-" and left_type is SQLType.DATE and right_type is SQLType.DATE:
                return SQLType.INTEGER  # day difference
            if op in ("+", "-") and left_type is SQLType.DATE:
                if right_interval or right_type is None:
                    return SQLType.DATE
            if op == "+" and right_type is SQLType.DATE:
                if left_interval or left_type is None:
                    return SQLType.DATE
            other = right_type if left_type is SQLType.DATE else left_type
            raise _error(
                f"cannot apply {op!r} to DATE and {_type_name(other)}", expr
            )
        if left_interval or right_interval:
            return None  # interval arithmetic against unknown types: lenient
        for side_type in (left_type, right_type):
            if side_type is not None and not is_numeric_type(side_type):
                raise _error(
                    f"invalid operand to {op!r}: {_type_name(side_type)} "
                    f"is not numeric",
                    expr,
                )
        return arithmetic_result(left_type, right_type)

    @staticmethod
    def _is_interval(expr: ast.Expression) -> bool:
        return isinstance(expr, ast.Literal) and isinstance(expr.value, Interval)

    def _infer_unary(self, expr: ast.UnaryOp, frames: tuple) -> Optional[SQLType]:
        operand_type = self._infer(expr.operand, frames)
        if expr.op.upper() == "NOT":
            if operand_type is not None and operand_type is not SQLType.BOOLEAN:
                raise _error(
                    f"argument of NOT must be a boolean, not "
                    f"{_type_name(operand_type)}",
                    expr,
                )
            return SQLType.BOOLEAN
        if operand_type is not None and not is_numeric_type(operand_type):
            raise _error(
                f"invalid operand to unary {expr.op!r}: "
                f"{_type_name(operand_type)} is not numeric",
                expr,
            )
        return operand_type

    def _infer_case(self, expr: ast.Case, frames: tuple) -> Optional[SQLType]:
        result_types = []
        for when in expr.whens:
            condition_type = self._infer(when.condition, frames)
            if condition_type is not None and condition_type is not SQLType.BOOLEAN:
                raise _error(
                    f"CASE WHEN condition must be a boolean, not "
                    f"{_type_name(condition_type)}",
                    when.condition,
                )
            result_types.append(self._infer(when.result, frames))
        if expr.else_result is not None:
            result_types.append(self._infer(expr.else_result, frames))
        return self._common_type(result_types)

    # -- column provenance over the rewritten statement ------------------------

    def _collect_owners(
        self, select: ast.Select, parents: tuple, owners: dict[int, str]
    ) -> None:
        """Tolerantly map each column of a (rewritten) select to its binding.

        Never raises: the rewritten statement already passed the canonical
        rewrite, and unknown relations simply leave their columns unmapped
        (the shardability analysis then falls back to its heuristic).
        """
        frame = _Frame()

        def add_item(item: ast.FromItem) -> None:
            if isinstance(item, ast.TableRef):
                frame.add(item.binding, self._table_columns(item.name))
            elif isinstance(item, ast.SubqueryRef):
                self._collect_owners(item.query, parents, owners)
                frame.add(item.binding, None)
            elif isinstance(item, ast.Join):
                add_item(item.left)
                add_item(item.right)

        for item in select.from_items:
            add_item(item)
        frames = (frame,) + parents

        for expr in iter_select_expressions(select):
            for node in walk_expression(expr):
                if isinstance(node, ast.Column):
                    self._record_owner(node, frames, owners)
                elif isinstance(node, ast.SUBQUERY_NODES):
                    self._collect_owners(node.query, frames, owners)

    @staticmethod
    def _record_owner(node: ast.Column, frames: tuple, owners: dict[int, str]) -> None:
        if node.name.startswith("$"):
            return
        name = node.name.lower()
        if node.table is not None:
            table = node.table.lower()
            for frame in frames:
                if frame.has_binding(table):
                    owners[id(node)] = table
                    return
            return
        for frame in frames:
            matches = [
                binding
                for binding, columns in frame.bindings
                if columns is not None and name in columns
            ]
            if len(matches) == 1 and not any(
                columns is None for _, columns in frame.bindings
            ):
                owners[id(node)] = matches[0]
                return
            if matches or any(columns is None for _, columns in frame.bindings):
                return  # ambiguous or possibly from an unknown relation
