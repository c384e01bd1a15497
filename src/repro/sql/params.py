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
  statement tree — left to a cluster routing an INSERT whose ttid is itself
  a parameter, or splitting one INSERT's rows over shards.  Every other
  statement keeps its parameters: the in-memory engine (and the cluster's
  merge queries) reads each value per run from a plan prepared once per
  value types (see :class:`repro.engine.executor.RunState`), the SQLite
  backend renders ``?NNN`` text and binds natively, and the MTSQL DML
  rewrite reads no value (see :mod:`repro.core.dml`).

All validation failures raise :class:`~repro.errors.ParameterError`, except
a short value vector for the engine's ``$n`` references, which stays the
:class:`~repro.errors.BackendError` it was when the engine backend bound them
(:func:`short_vector_error` is that rule, for the binder and the engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Union

from ..errors import BackendError, ParameterError
from . import ast
from .dialect import DEFAULT_DIALECT
from .transform import statement_expressions, transform_statement, walk_expression

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


def statement_parameters(statement: ast.Statement) -> tuple[ParameterSlot, ...]:
    """The statement's bind-parameter slots, ordered by index.

    Validates that slot indexes are contiguous from 1 (a statement written
    with explicit ``?NNN`` markers may skip indexes; that is an error because
    a positional value vector could not be bound unambiguously).
    """
    slots: dict[int, ParameterSlot] = {}
    for expr in statement_expressions(statement):
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


def short_vector_error(index: int, supplied: int, dollar: bool = False) -> Exception:
    """The error of a statement referencing slot ``index`` (``$index`` when
    ``dollar``) with only ``supplied`` values."""
    if dollar:
        return BackendError(
            f"statement references ${index} but only {supplied} parameter(s) "
            f"were supplied"
        )
    return ParameterError(
        f"statement references parameter {index} but only {supplied} value(s) "
        f"were supplied"
    )


def bind_parameters(
    statement: ast.Statement, values: Sequence[Any]
) -> ast.Statement:
    """A new statement tree with every parameter replaced by a literal value.

    ``values`` is the *resolved* positional vector (slot ``index`` N reads
    ``values[N-1]``); use :func:`resolve_parameters` first for client input.
    Two placeholder conventions bind here, in one pass: ``?``/``:name``
    :class:`~repro.sql.ast.Parameter` nodes (the DB-API surface) and the
    engine's historic ``$n`` column references (the SQL-function parameter
    convention).
    """
    values = tuple(values)

    def replacer(node: ast.Expression) -> Optional[ast.Expression]:
        if isinstance(node, ast.Parameter):
            if not 1 <= node.index <= len(values):
                raise short_vector_error(node.index, len(values))
            return ast.Literal(values[node.index - 1])
        if isinstance(node, ast.Column) and node.table is None:
            index = DEFAULT_DIALECT.parameter_index(node.name)
            if index is not None:
                if not 1 <= index <= len(values):
                    raise short_vector_error(index, len(values), dollar=True)
                return ast.Literal(values[index - 1])
        return None

    bindable = (ast.Select, ast.Insert, ast.Update, ast.Delete)
    if values and not isinstance(statement, bindable):
        raise ParameterError(
            f"cannot bind parameters into a {type(statement).__name__} statement"
        )
    return transform_statement(statement, replacer)
