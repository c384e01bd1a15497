"""Run constants and the batch kernels that apply one to a column.

A *run constant* is an operand whose value is the same for every row of a
run: a literal (a literal-only subtree folds into one, :func:`fold_literal`)
or a bind parameter, whose value each run supplies.  A kernel over one is
shaped when the plan is prepared — by the constant's *type*, which is all
a prepared plan may depend on — and reads the value once per batch
(:attr:`Constant.read`), so one plan serves every value of that type.
The comparison and arithmetic kernels below are the generic rungs of
:class:`repro.engine.vector.BatchExpressionCompiler`; its typed loops take
constants the same way (``_typed_plan``).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from ..errors import ExecutionError
from ..sql import ast
from ..sql.types import Date, sql_compare, sql_equal
from .expressions import _date_arithmetic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .vector import BatchKernel, RowBatch

#: a comparison as Python's own operator (see :func:`compare_const_kernel`)
_PY_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: a comparison as a test of :func:`~repro.sql.types.sql_compare`'s ordering
ORDERING_TESTS = {
    "<": lambda ordering: ordering < 0,
    "<=": lambda ordering: ordering <= 0,
    ">": lambda ordering: ordering > 0,
    ">=": lambda ordering: ordering >= 0,
}


class Constant(NamedTuple):
    """A run constant: a literal, or a bind parameter.

    ``value`` is its value when the plan is prepared — its type picks the
    kernel, and a plan is reused only for values of the same types — and
    ``read()`` its value for the run in progress; a kernel calls it once
    per batch.
    """

    value: Any
    read: Callable[[], Any]

    def derive(self, fn: Callable[[Any], Any]) -> "Constant":
        """``fn`` of the constant, applied as it is read."""
        read = self.read
        return Constant(fn(self.value), lambda: fn(read()))


def fixed(value: Any) -> Constant:
    """The constant of a literal ``value``."""
    return Constant(value, lambda: value)


def fold_literal(expr: ast.Expression) -> Optional[ast.Literal]:
    """Fold a literal-only arithmetic subtree into one literal, else None.

    Rewrites routinely leave constant subtrees like ``DATE '1994-01-01' +
    INTERVAL '1' year`` or ``.06 - 0.01`` in predicates; recomputing them per
    row gives an identical result, so folding once at compile time is
    observationally equivalent — except for *when* errors surface.  A
    constant whose evaluation raises (e.g. a literal division by zero)
    therefore refuses to fold and stays a runtime kernel, raising only when
    a row reaches it.
    """
    if isinstance(expr, ast.Literal):
        return expr
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = fold_literal(expr.operand)
        if inner is None or inner.value is None:
            return None
        try:
            return ast.Literal(value=-inner.value)
        except Exception:
            return None
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-", "*", "/"):
        left, right = fold_literal(expr.left), fold_literal(expr.right)
        if left is None or right is None:
            return None
        try:
            return ast.Literal(value=arith_value(left.value, right.value, expr.op))
        except Exception:
            return None
    return None


def is_plain_number(value: Any) -> bool:
    """Whether ``value`` is an ``int`` or ``float`` (a ``bool`` is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fast_types(value: Any) -> tuple:
    """The element types a constant of ``value``'s type compares with by
    Python's own operators, exactly as :func:`sql_compare` would."""
    if is_plain_number(value):
        return (int, float)
    if type(value) is Date:
        return (Date,)
    if type(value) is str:
        return (str,)
    return ()


def compare_const_kernel(value_k: BatchKernel, constant: Constant, op: str) -> BatchKernel:
    """``column OP constant`` with a monomorphic fast path.

    When an element's concrete type matches the constant's family the Python
    operator applies directly (numbers, dates, strings order exactly like
    :func:`sql_compare`); any other element falls back to the shared
    coercion helper so mixed columns keep identical semantics and errors.
    """
    py_op = _PY_OPS[op]
    test = ORDERING_TESTS[op]
    fast_types = _fast_types(constant.value)
    read = constant.read

    def kernel(batch: RowBatch, outers: tuple) -> list:
        const = read()
        out = []
        append = out.append
        for value in value_k(batch, outers):
            if value is None:
                append(None)
            elif type(value) in fast_types:
                append(py_op(value, const))
            else:
                ordering = sql_compare(value, const)
                append(None if ordering is None else test(ordering))
        return out

    return kernel


def equal_const_kernel(value_k: BatchKernel, constant: Constant, negated: bool) -> BatchKernel:
    """``column = constant`` / ``column <> constant`` with a fast path."""
    fast_types = _fast_types(constant.value)
    read = constant.read

    def kernel(batch: RowBatch, outers: tuple) -> list:
        const = read()
        out = []
        append = out.append
        for value in value_k(batch, outers):
            if value is None:
                append(None)
            elif type(value) in fast_types:
                equal = value == const
                append(not equal if negated else equal)
            else:
                equal = sql_equal(value, const)
                if equal is None:
                    append(None)
                else:
                    append(not equal if negated else equal)
        return out

    return kernel


def arith_kernel(left: BatchKernel, right: BatchKernel, op: str) -> BatchKernel:
    """Column-vs-column ``+ - * /`` with NULL propagation and date math."""
    def kernel(batch: RowBatch, outers: tuple) -> list:
        out = []
        append = out.append
        for a, b in zip(left(batch, outers), right(batch, outers)):
            append(arith_value(a, b, op))
        return out

    return kernel


def arith_const_kernel(
    value_k: BatchKernel, constant: Constant, op: str, const_right: bool
) -> BatchKernel:
    """``column OP constant`` (or flipped) arithmetic with a numeric fast
    path; a division takes it only by a non-zero constant on the right."""
    py_op = None
    if is_plain_number(constant.value) and (const_right or op != "/"):
        py_op = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op]
    read = constant.read

    def kernel(batch: RowBatch, outers: tuple) -> list:
        const = read()
        if py_op is None or (op == "/" and const == 0):
            fast = None
        elif const_right:
            fast = lambda a: py_op(a, const)  # noqa: E731
        else:
            fast = lambda b: py_op(const, b)  # noqa: E731
        out = []
        append = out.append
        for value in value_k(batch, outers):
            if value is None:
                append(None)
            elif fast is not None and (type(value) is float or type(value) is int):
                append(fast(value))
            elif const_right:
                append(arith_value(value, const, op))
            else:
                append(arith_value(const, value, op))
        return out

    return kernel


def arith_value(a: Any, b: Any, op: str) -> Any:
    """One arithmetic evaluation: NULL-strict, date math, checked division."""
    if a is None or b is None:
        return None
    if isinstance(a, Date) or isinstance(b, Date):
        return _date_arithmetic(a, b, op)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b
