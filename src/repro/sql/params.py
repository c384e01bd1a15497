"""Bind-parameter plumbing: slot discovery, value resolution, substitution.

A parameterized statement carries :class:`~repro.sql.ast.Parameter` nodes —
opaque scalars with a 1-based slot ``index`` and an optional ``name``.  This
module is the one place the rest of the system reasons about them:

* :func:`statement_parameters` walks a statement (sub-queries included) and
  returns its ordered :class:`ParameterSlot` vector — what a
  :class:`~repro.compile.CompiledQuery` records so the cursor can validate
  bindings without re-walking the AST,
* :func:`resolve_parameters` turns client-supplied values (a positional
  sequence or a ``{name: value}`` mapping) into the positional tuple every
  backend consumes,
* :func:`bind_parameters` substitutes resolved values as literals into a new
  statement tree — the binding strategy for backends without native
  placeholder support (the in-memory engine, and the cluster's merge
  queries); the SQLite backend instead renders ``?NNN`` text and binds
  natively.

All validation failures raise :class:`~repro.errors.ParameterError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Union

from ..errors import ParameterError
from . import ast
from .transform import (
    iter_select_expressions,
    transform_expression,
    transform_select,
    walk_expression,
    walk_selects,
)

ParameterValues = Union[Sequence[Any], Mapping[str, Any]]


@dataclass(frozen=True)
class ParameterSlot:
    """One bind-parameter slot of a statement: its 1-based index and name."""

    index: int
    name: Optional[str] = None

    @property
    def placeholder(self) -> str:
        """The client-facing spelling (``:name`` or ``?N``)."""
        return f":{self.name}" if self.name else f"?{self.index}"


def _statement_expressions(statement: ast.Statement):
    """Yield every expression tree of a statement, sub-queries included."""
    selects: list[ast.Select] = []

    def collect(expr: ast.Expression):
        """Yield one DML expression and queue any sub-queries nested in it."""
        yield expr
        for node in walk_expression(expr):
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
                selects.append(node.query)

    if isinstance(statement, ast.Select):
        selects.append(statement)
    elif isinstance(statement, (ast.Update, ast.Delete)):
        if statement.where is not None:
            yield from collect(statement.where)
        if isinstance(statement, ast.Update):
            for assignment in statement.assignments:
                yield from collect(assignment.value)
    elif isinstance(statement, ast.Insert):
        for row in statement.rows:
            for value in row:
                yield from collect(value)
        if statement.query is not None:
            selects.append(statement.query)
    for select in selects:
        for sub_select in walk_selects(select):
            yield from iter_select_expressions(sub_select)


def statement_parameters(statement: ast.Statement) -> tuple[ParameterSlot, ...]:
    """The statement's bind-parameter slots, ordered by index.

    Validates that slot indexes are contiguous from 1 (a statement written
    with explicit ``?NNN`` markers may skip indexes; that is an error because
    a positional value vector could not be bound unambiguously).
    """
    slots: dict[int, ParameterSlot] = {}
    for expr in _statement_expressions(statement):
        for node in walk_expression(expr):
            if isinstance(node, ast.Parameter):
                known = slots.get(node.index)
                if known is not None and known.name != node.name:
                    raise ParameterError(
                        f"parameter slot {node.index} is referenced both as "
                        f"{known.placeholder!r} and as "
                        f"{ParameterSlot(node.index, node.name).placeholder!r}"
                    )
                slots[node.index] = ParameterSlot(index=node.index, name=node.name)
    if not slots:
        return ()
    ordered = tuple(slots[index] for index in sorted(slots))
    expected = tuple(range(1, len(ordered) + 1))
    if tuple(slot.index for slot in ordered) != expected:
        raise ParameterError(
            f"parameter indexes must be contiguous from 1, got "
            f"{sorted(slots)}"
        )
    return ordered


def resolve_parameters(
    slots: Sequence[ParameterSlot], values: Optional[ParameterValues]
) -> tuple:
    """Resolve client-supplied values into the positional tuple backends bind.

    ``values`` may be a positional sequence (matched against the slot order)
    or a mapping keyed on parameter names (only valid when every slot is
    named).  ``None`` is accepted for a statement without parameters.
    """
    if not slots:
        if values:
            raise ParameterError(
                f"statement takes no parameters but {len(values)} value(s) "
                f"were supplied"
            )
        return ()
    if values is None:
        raise ParameterError(
            f"statement has {len(slots)} parameter(s) "
            f"({', '.join(slot.placeholder for slot in slots)}) but no values "
            f"were supplied"
        )
    if isinstance(values, Mapping):
        unnamed = [slot.placeholder for slot in slots if slot.name is None]
        if unnamed:
            raise ParameterError(
                f"named bindings require named parameters; positional slot(s) "
                f"{', '.join(unnamed)} cannot be bound from a mapping"
            )
        missing = [slot.name for slot in slots if slot.name not in values]
        if missing:
            raise ParameterError(f"missing value(s) for parameter(s) {missing}")
        extra = sorted(set(values) - {slot.name for slot in slots})
        if extra:
            raise ParameterError(f"unknown parameter name(s) {extra}")
        return tuple(values[slot.name] for slot in slots)
    values = tuple(values)
    if len(values) != len(slots):
        raise ParameterError(
            f"statement has {len(slots)} parameter(s) but {len(values)} "
            f"value(s) were supplied"
        )
    return values


def bind_parameters(
    statement: ast.Statement, values: Sequence[Any]
) -> ast.Statement:
    """A new statement tree with every parameter replaced by a literal value.

    ``values`` is the *resolved* positional vector (slot ``index`` N reads
    ``values[N-1]``); use :func:`resolve_parameters` first for client input.
    """
    values = tuple(values)

    def replacer(node: ast.Expression) -> Optional[ast.Expression]:
        if isinstance(node, ast.Parameter):
            if not 1 <= node.index <= len(values):
                raise ParameterError(
                    f"statement references parameter {node.index} but only "
                    f"{len(values)} value(s) were supplied"
                )
            return ast.Literal(values[node.index - 1])
        return None

    if isinstance(statement, ast.Select):
        return transform_select(statement, replacer)
    if isinstance(statement, ast.Insert):
        query = (
            transform_select(statement.query, replacer)
            if statement.query is not None
            else None
        )
        rows = [
            tuple(transform_expression(value, replacer, True) for value in row)
            for row in statement.rows
        ]
        return ast.Insert(
            table=statement.table, columns=statement.columns, rows=rows, query=query
        )
    if isinstance(statement, ast.Update):
        return ast.Update(
            table=statement.table,
            assignments=[
                ast.Assignment(
                    column=assignment.column,
                    value=transform_expression(assignment.value, replacer, True),
                )
                for assignment in statement.assignments
            ],
            where=transform_expression(statement.where, replacer, True),
        )
    if isinstance(statement, ast.Delete):
        return ast.Delete(
            table=statement.table,
            where=transform_expression(statement.where, replacer, True),
        )
    if statement_parameters(statement):
        raise ParameterError(
            f"cannot bind parameters into a {type(statement).__name__} statement"
        )
    return statement
