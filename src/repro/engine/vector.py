"""Vectorized expression evaluation: row batches and batch kernels.

This is the engine's only expression evaluator.  Expression trees compile
once per plan into *batch kernels* — closures with the signature
``kernel(batch, outers) -> column`` that evaluate one node over a whole
:class:`RowBatch` in a single call, looping over column arrays in tight
inner loops (the vectorized design of MonetDB/X100).  The executor, the
planner's scans/joins/key look-ups, DML and the cluster's merge queries all
ride these kernels.

Semantics are SQL's: three-valued logic, NULL propagation, SQL comparison
coercion (via the shared :func:`repro.sql.types.sql_compare` /
:func:`~repro.sql.types.sql_equal` helpers on mixed types, with monomorphic
fast paths for the common numeric/date/string columns), and *row-exact*
short-circuits: a ``CASE`` result branch, a later item of an ``IN`` list and
a later conjunct (compacted by the callers) only ever see the rows still
undecided, so none of them raises or calls a UDF for a row that is already
settled.  Conversion-UDF calls are *memo-batched* through
:meth:`repro.engine.executor.ExecutionContext.batch_call_function`: duplicate
``(function, args)`` keys inside a batch hit the memo once per distinct key
and scatter the result, with the counters one call per occurrence.

Sub-query nodes (scalar, ``IN``, ``EXISTS``) are batch kernels too.  An
uncorrelated one answers once per batch (from its per-statement cache) and
the answer is applied to the value column (membership pass) or broadcast; a
correlated one runs its prepared plan once per row of the batch, with the
row prepended to the outer rows.

Join intermediates are :class:`JoinedBatch` es — aligned per-source lists of
references to the source rows instead of one concatenated tuple per joined
row; kernels read them through the same ``batch.column(...)`` seam.

On top of the generic object-list kernels sits the **typed specialization
layer**, and the schema alone decides where it applies: over columns their
table declares NOT NULL (``Scope.proven``), numeric comparison / arithmetic
/ BETWEEN / IN-list kernels are code-generated as tight loops over the
``array('q')`` / ``array('d')`` payloads of :mod:`repro.engine.columns` —
no ``sql_compare`` coercion, no per-element type guard, no NULL test — and
date-vs-constant comparisons reduce to integer day-ordinal comparisons.  A
column that may hold NULL (any column on the null-padded side of a LEFT
JOIN included) compiles straight to the generic kernel.  Every specialized
kernel keeps its generic twin and falls back *per batch* whenever a
referenced column has no typed payload (join intermediates, sub-queries, a
column holding a value of another type), so semantics never depend on the
data.  Filter compaction is selection-index based: :meth:`RowBatch.filter`
produces an index view over the shared payload instead of rebuilding
row-tuple lists between conjuncts.

A constant operand — a literal, or a bind parameter whose value each run
supplies — shapes its kernel by its type when the plan is prepared and is
read once per call (:mod:`repro.engine.constants`), so one plan serves
every value of a statement's parameter types.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from typing import Any, Callable, Optional, Sequence

from ..errors import ExecutionError
from ..sql import ast
from ..sql.dialect import DEFAULT_DIALECT
from ..sql.params import short_vector_error
from ..sql.types import Date, date_days, date_from_string, sql_compare, sql_equal
from .columns import NUMERIC_KINDS, TypedColumn
from .constants import (
    ORDERING_TESTS,
    Constant,
    arith_const_kernel,
    arith_kernel,
    compare_const_kernel,
    equal_const_kernel,
    fixed,
    fold_literal,
    is_plain_number,
)
from .expressions import Scope, _like_regex
from .functions import _fn_mod as _modulo  # ``a % b`` is ``MOD(a, b)``

#: a compiled batch kernel: one call evaluates a node over a whole batch
BatchKernel = Callable[["RowBatch", tuple], list]

#: rows per window of the scans, filters, joins, projections, aggregation and
#: DML; tests build ``Database(batch_size=...)`` smaller to cross windows
DEFAULT_BATCH_SIZE = 1024


class RowBatch:
    """A window of rows processed as one unit: a shared payload + lazy views.

    A batch is either *dense* (``sel`` is None — its payload rows in payload
    order) or a *selection* — an index array into a payload shared with its
    parent batch.  Filters compact by composing selections instead of
    rebuilding row-tuple lists, so a conjunct chain over a scan touches row
    tuples zero times; ``rows`` gathers (and caches) the tuples only when a
    consumer actually asks for them.

    Columns materialize on first access via :meth:`column` — from the object
    columns of ``col_source``, or by gathering ``row[index]``.  Specialized
    kernels bypass the object columns entirely through :meth:`typed_column`
    + :attr:`sel`, so a typed payload is only built for a column a typed
    kernel reads.  A scan passes ``rows`` and both sources from **one**
    :class:`~repro.engine.storage.TableData`, so every view derived from
    the batch reads the same immutable table version.  Invariant: a batch
    with sources and ``sel is None`` spans its table payload *in full, in
    payload order* (windows and filters over it always carry a selection).
    """

    __slots__ = ("n", "_rows", "_mat", "_sel", "_cols", "_col_source", "_typed_source")

    def __init__(
        self,
        rows: Sequence[tuple],
        col_source: Optional[Callable[[int], list]] = None,
        typed_source: Optional[Callable[[int], Optional[TypedColumn]]] = None,
    ) -> None:
        self._rows = rows
        self.n = len(rows)
        self._mat: Optional[list] = None
        self._sel: Optional[Sequence[int]] = None
        self._cols: dict[int, list] = {}
        self._col_source = col_source
        self._typed_source = typed_source

    @classmethod
    def _selection(cls, parent: "RowBatch", sel: Sequence[int]) -> "RowBatch":
        """A view keeping the payload positions in ``sel`` (payload-space)."""
        batch = cls.__new__(cls)
        batch._rows = parent._rows
        batch.n = len(sel)
        batch._mat = None
        batch._sel = sel
        batch._cols = {}
        batch._col_source = parent._col_source
        batch._typed_source = parent._typed_source
        return batch

    @property
    def rows(self) -> Sequence[tuple]:
        """The row tuples of this batch (gathered lazily for selections)."""
        sel = self._sel
        if sel is None:
            return self._rows
        mat = self._mat
        if mat is None:
            payload = self._rows
            mat = [payload[i] for i in sel]
            self._mat = mat
        return mat

    @property
    def sel(self) -> Optional[Sequence[int]]:
        """Selection indices into the shared payload; None = payload order."""
        return self._sel

    def column(self, index: int) -> Sequence[Any]:
        """The column array for slot ``index`` (gathered once, then cached).

        The table's cached object column when the batch has one, else the
        row tuples — selections gather through their index array either way.
        """
        col = self._cols.get(index)
        if col is not None:
            return col
        sel = self._sel
        if self._col_source is not None:
            payload = self._col_source(index)
            col = payload if sel is None else [payload[i] for i in sel]
        elif sel is None:
            col = [row[index] for row in self._rows]
        else:
            payload_rows = self._rows
            col = [payload_rows[i][index] for i in sel]
        self._cols[index] = col
        return col

    def typed_column(self, index: int) -> Optional[TypedColumn]:
        """The :class:`TypedColumn` behind slot ``index``, if any.

        Payload-order (not batch-order): specialized kernels combine it
        with :attr:`sel`.  ``None`` whenever the batch has no typed source
        (join intermediates, sub-queries) or the column is not stable.
        """
        source = self._typed_source
        return source(index) if source is not None else None

    def filter(self, mask: Sequence[Any]) -> "RowBatch":
        """A batch keeping exactly the rows whose mask entry is True (SQL
        predicates: NULL and False both drop the row).  A mask is a
        predicate kernel's column, which holds only True, False and None
        (see :meth:`BatchExpressionCompiler.compile_predicate`).

        Compaction is selection-index based: the result is a view over the
        shared payload, and the incoming batch is returned unchanged (cached
        columns intact) when the mask keeps every row.
        """
        sel = self._sel
        kept = list(compress(range(self.n) if sel is None else sel, mask))
        if len(kept) == self.n:
            return self
        return RowBatch._selection(self, kept)

    def select(self, indices: Sequence[int]) -> "RowBatch":
        """A view of the rows at batch-local ``indices`` (CASE sub-batches).

        The index list is captured by reference and must not be mutated by
        the caller afterwards.
        """
        sel = self._sel
        if sel is not None:
            return RowBatch._selection(self, [sel[i] for i in indices])
        return RowBatch._selection(self, indices)

    def window(self, start: int, stop: int) -> "RowBatch":
        """The sub-batch of batch positions ``[start, stop)`` (clamped).

        The executor's bounded unit: selections slice their index array,
        source-backed dense batches window by ``range`` (keeping typed
        payload access), and plain row-list batches slice their rows.
        """
        stop = min(stop, self.n)
        sel = self._sel
        if sel is not None:
            return RowBatch._selection(self, sel[start:stop])
        if self._col_source is not None or self._typed_source is not None:
            return RowBatch._selection(self, range(start, stop))
        return RowBatch(self._rows[start:stop])


class JoinedBatch(RowBatch):
    """A join intermediate that references its source rows instead of copying.

    ``parts`` are aligned lists, one per joined source: output row ``i`` is
    the concatenation of ``parts[k][i]`` over all ``k``, but no such tuple is
    built — every entry is a reference to a row that already exists (a table
    heap row, a derived-table row, or a LEFT join's shared null-pad tuple).
    ``layout`` maps an output slot to ``(part, slot within that part's
    rows)``.  Columns gather from one part; ``filter`` / ``select`` /
    ``window`` gather or slice the parts by position; there are no typed
    columns.  Only :attr:`rows` concatenates (cached, and counted in
    ``stats.join_rows_materialized``) — for the consumers that need a row
    tuple: correlated sub-queries, a join used as another join's build side.
    """

    __slots__ = ("_parts", "_layout", "_stats")

    def __init__(self, parts: list[Sequence[tuple]], layout: list, stats) -> None:
        super().__init__(())
        self.n = len(parts[0])
        self._parts = parts
        self._layout = layout
        self._stats = stats

    @classmethod
    def extend(
        cls,
        left: RowBatch,
        left_width: int,
        positions: Optional[Sequence[int]],
        right_rows: Sequence[tuple],
        right_width: int,
        stats,
    ) -> "JoinedBatch":
        """``left``'s rows at ``positions``, each joined to the aligned
        entry of ``right_rows`` (rows of ``right_width`` slots).

        ``positions`` is ``None`` when every left row is kept once, in order
        (a unique-key join without a miss): the left parts are shared with
        ``left``, not gathered — parts are never mutated.
        """
        if isinstance(left, JoinedBatch):
            parts = list(left._parts)
            if positions is not None:
                parts = [[part[i] for i in positions] for part in parts]
            layout = list(left._layout)
        else:
            rows = left.rows
            parts = [rows if positions is None else [rows[i] for i in positions]]
            layout = [(0, slot) for slot in range(left_width)]
        layout.extend((len(parts), slot) for slot in range(right_width))
        parts.append(right_rows)
        return cls(parts, layout, stats)

    @property
    def rows(self) -> Sequence[tuple]:
        """The joined row tuples: concatenated on first use, cached, counted."""
        mat = self._mat
        if mat is None:
            mat = list(map(tuple, map(chain.from_iterable, zip(*self._parts))))
            self._mat = mat
            self._stats.add(join_rows_materialized=self.n)
        return mat

    def column(self, index: int) -> Sequence[Any]:
        """The column for slot ``index``, gathered from its part (cached)."""
        col = self._cols.get(index)
        if col is None:
            part, slot = self._layout[index]
            col = [row[slot] for row in self._parts[part]]
            self._cols[index] = col
        return col

    def filter(self, mask: Sequence[Any]) -> "RowBatch":
        """The rows whose mask entry is True (``self`` when all are)."""
        kept = list(compress(range(self.n), mask))
        return self if len(kept) == self.n else self.select(kept)

    def select(self, indices: Sequence[int]) -> "RowBatch":
        """The rows at batch-local ``indices``: every part gathered alike."""
        parts = [[part[i] for i in indices] for part in self._parts]
        return JoinedBatch(parts, self._layout, self._stats)

    def window(self, start: int, stop: int) -> "RowBatch":
        """Batch positions ``[start, stop)``: every part sliced alike."""
        parts = [part[start:stop] for part in self._parts]
        return JoinedBatch(parts, self._layout, self._stats)


def apply_batch_predicates(
    batch: RowBatch, kernels: Sequence[BatchKernel], outers: tuple
) -> RowBatch:
    """Apply predicate kernels sequentially, compacting between them.

    The conjunct short-circuit of SQL ``AND`` chains: a row dropped by an
    earlier predicate is never evaluated by a later one, so errors a later
    predicate would raise on filtered-out rows cannot surface.  Compaction is
    :meth:`RowBatch.filter` — the one selection-index seam — so no row-tuple
    list is rebuilt between conjuncts.
    """
    for kernel in kernels:
        if batch.n == 0:
            return batch
        batch = batch.filter(kernel(batch, outers))
    return batch


def key_column(fns: Sequence[BatchKernel], batch: RowBatch, outers: tuple) -> Sequence:
    """Key-per-row sequence of a hash join side or a ``GROUP BY``, columnwise.

    A single key uses its kernel's column directly (no tuple per row),
    several keys zip their columns into tuples — the batch analogue of
    ``tuple(fn(row, outers) for fn in fns)`` per row.
    """
    columns = [fn(batch, outers) for fn in fns]
    if len(columns) == 1:
        return columns[0]
    return list(zip(*columns))


# ---------------------------------------------------------------------------
# kernel compiler
# ---------------------------------------------------------------------------

class BatchExpressionCompiler:
    """Compiles AST expressions against a scope into batch kernels.

    Columns resolve through :class:`~repro.engine.expressions.Scope` (which
    also records correlation); one kernel call evaluates a node over a whole
    *batch*.  ``context`` must provide ``batch_call_function`` (scalar
    function dispatch over argument columns); sub-query nodes additionally
    need ``prepare_subquery`` (see the module docstring).

    Eligible kernels over the scope's NOT NULL slots are additionally
    compiled with a typed fast path and per-batch generic fallback; their
    dispatches are tallied in ``context.database.stats.kernels``.
    """

    def __init__(self, scope: Scope, context) -> None:
        self.scope = scope
        self.context = context
        self._kernels = context.database.stats.kernels

    # -- public API ---------------------------------------------------------

    def compile(self, expr: ast.Expression) -> BatchKernel:
        """Compile one expression tree into a batch kernel."""
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            raise ExecutionError(
                f"cannot evaluate expression of type {type(expr).__name__}"
            )
        return method(expr)

    def compile_predicate(self, expr: ast.Expression) -> BatchKernel:
        """Compile a predicate into a mask kernel: its column holds only
        True, False and None, and callers keep the rows whose entry is True.

        The comparison, logic and membership kernels yield nothing else; any
        other expression (a column, a UDF call, a ``CASE``, a parameter) is
        a predicate as far as its value ``is True``, so its column is mapped
        to that here, the one place a value becomes a mask.
        """
        kernel = self.compile(expr)
        if _is_boolean(expr):
            return kernel
        return lambda batch, outers: [value is True for value in kernel(batch, outers)]

    # -- leaves -------------------------------------------------------------

    def _compile_literal(self, expr: ast.Literal) -> BatchKernel:
        value = expr.value
        return lambda batch, outers: [value] * batch.n

    def _constant_kernel(self, const: Constant) -> BatchKernel:
        read = const.read
        return lambda batch, outers: [read()] * batch.n

    def _compile_column(self, expr: ast.Column) -> BatchKernel:
        resolved = self.scope.resolve(expr.name, expr.table)
        if resolved is None:
            const = self._dollar_parameter(expr)
            if const is None:
                raise ExecutionError(f"unknown column {expr.qualified!r}")
            return self._constant_kernel(const)
        depth, index = resolved
        if depth == 0:
            return lambda batch, outers: batch.column(index)
        outer_index = depth - 1
        return lambda batch, outers: [outers[outer_index][index]] * batch.n

    def _compile_star(self, expr: ast.Star) -> BatchKernel:
        raise ExecutionError("'*' is only valid in SELECT lists and COUNT(*)")

    def _compile_parameter(self, expr: ast.Parameter) -> BatchKernel:
        return self._constant_kernel(self._constant(expr))

    # -- run constants: literals and bind parameters -------------------------

    def _constant(self, expr: ast.Expression) -> Optional[Constant]:
        """``expr`` as a :class:`Constant` — a literal-only subtree (folded,
        see :func:`fold_literal`) or a bind parameter — else ``None``."""
        folded = fold_literal(expr)
        if folded is not None:
            return fixed(folded.value)
        if isinstance(expr, ast.Parameter):
            name = f":{expr.name}" if expr.name else f"?{expr.index}"
            return self._parameter(expr.index, name, dollar=False)
        if isinstance(expr, ast.Column):
            return self._dollar_parameter(expr)
        return None

    def _dollar_parameter(self, expr: ast.Column) -> Optional[Constant]:
        """A ``$n`` reference no scope resolves (a UDF body's arguments do)
        as bind parameter ``n``, else ``None``."""
        if expr.table is not None or not expr.name.startswith("$"):
            return None
        index = DEFAULT_DIALECT.parameter_index(expr.name)
        if index is None or self.scope.resolve(expr.name, None) is not None:
            return None
        return self._parameter(index, expr.name, dollar=True)

    def _parameter(self, index: int, name: str, dollar: bool) -> Constant:
        """Bind parameter ``index`` (1-based) of the run being prepared: its
        value now picks the kernel, the run in progress supplies it later."""
        values = self.context.parameter_values()
        if not values:
            raise ExecutionError(
                f"statement has an unbound parameter {name}; supply values via "
                f"execute(..., parameters=...) or the repro.api cursor"
            )
        if not 1 <= index <= len(values):
            raise short_vector_error(index, len(values), dollar)
        current, position = self.context.parameter_values, index - 1
        return Constant(values[position], lambda: current()[position])

    # -- operators ----------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp) -> BatchKernel:
        op = expr.op.upper()
        if op in ("AND", "OR"):
            left, right = self.compile(expr.left), self.compile(expr.right)
            return _logic_kernel(left, right, op)
        if op == "=" or op == "<>":
            return self._equality_kernel(expr, negated=op == "<>")
        if op in ("<", "<=", ">", ">="):
            return self._comparison_kernel(expr, op)
        if op in ("+", "-", "*", "/"):
            return self._arithmetic_kernel(expr, op)
        left, right = self.compile(expr.left), self.compile(expr.right)
        if op == "||":
            def concat(batch: RowBatch, outers: tuple) -> list:
                return [
                    None if a is None or b is None else str(a) + str(b)
                    for a, b in zip(left(batch, outers), right(batch, outers))
                ]

            return concat
        if op == "%":
            def modulo(batch: RowBatch, outers: tuple) -> list:
                return list(map(_modulo, left(batch, outers), right(batch, outers)))

            return modulo
        raise ExecutionError(f"unsupported operator {expr.op!r}")

    def _equality_kernel(self, expr: ast.BinaryOp, negated: bool) -> BatchKernel:
        generic = self._generic_equality(expr, negated)
        op_src = "!=" if negated else "=="
        typed = self._typed_predicate(expr.left, expr.right, op_src, generic)
        return generic if typed is None else typed

    def _generic_equality(self, expr: ast.BinaryOp, negated: bool) -> BatchKernel:
        for const_side, value_side in ((expr.right, expr.left), (expr.left, expr.right)):
            const = self._constant(const_side)
            if const is not None and const.value is not None:
                return equal_const_kernel(self.compile(value_side), const, negated)
        left, right = self.compile(expr.left), self.compile(expr.right)

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for a, b in zip(left(batch, outers), right(batch, outers)):
                equal = sql_equal(a, b)
                if equal is None:
                    append(None)
                else:
                    append(not equal if negated else equal)
            return out

        return kernel

    def _comparison_kernel(self, expr: ast.BinaryOp, op: str) -> BatchKernel:
        generic = self._generic_comparison(expr, op)
        typed = self._typed_predicate(expr.left, expr.right, op, generic)
        return generic if typed is None else typed

    def _generic_comparison(self, expr: ast.BinaryOp, op: str) -> BatchKernel:
        right = self._constant(expr.right)
        if right is not None and right.value is not None:
            return compare_const_kernel(self.compile(expr.left), right, op)
        left = self._constant(expr.left)
        if left is not None and left.value is not None:
            # const OP col  ==  col FLIPPED_OP const
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
            return compare_const_kernel(self.compile(expr.right), left, flipped)
        left, right = self.compile(expr.left), self.compile(expr.right)
        test = ORDERING_TESTS[op]

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for a, b in zip(left(batch, outers), right(batch, outers)):
                ordering = sql_compare(a, b)
                append(None if ordering is None else test(ordering))
            return out

        return kernel

    def _arithmetic_kernel(self, expr: ast.BinaryOp, op: str) -> BatchKernel:
        generic = self._generic_arithmetic(expr, op)
        slot_vars: dict[int, int] = {}
        try:
            dense, selected = self._typed_render(expr, slot_vars)
        except _TypedUnsupported:
            return generic
        if not slot_vars:
            return generic
        plan = self._typed_plan(dense, selected, slot_vars)
        return self._typed_numeric_kernel(plan, generic)

    def _generic_arithmetic(self, expr: ast.BinaryOp, op: str) -> BatchKernel:
        folded = fold_literal(expr)
        if folded is not None:
            return self._compile_literal(folded)
        right = self._constant(expr.right)
        if right is not None and right.value is not None:
            return arith_const_kernel(self.compile(expr.left), right, op, const_right=True)
        left = self._constant(expr.left)
        if left is not None and left.value is not None:
            return arith_const_kernel(self.compile(expr.right), left, op, const_right=False)
        left, right = self.compile(expr.left), self.compile(expr.right)
        return arith_kernel(left, right, op)

    def _compile_unaryop(self, expr: ast.UnaryOp) -> BatchKernel:
        operand = self.compile(expr.operand)
        if expr.op.upper() == "NOT":
            return lambda batch, outers: [
                None if value is None else not value
                for value in operand(batch, outers)
            ]
        if expr.op == "-":
            return lambda batch, outers: [
                None if value is None else -value for value in operand(batch, outers)
            ]
        raise ExecutionError(f"unsupported unary operator {expr.op!r}")

    def _compile_case(self, expr: ast.Case) -> BatchKernel:
        compiled_whens = [
            (self.compile(when.condition), self.compile(when.result))
            for when in expr.whens
        ]
        compiled_else = (
            self.compile(expr.else_result) if expr.else_result is not None else None
        )

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = [None] * batch.n
            # indices into `out` for the rows no WHEN has matched yet; result
            # branches are evaluated over sub-batches of exactly their rows,
            # so a branch never sees (nor raises on) another branch's row
            pending = list(range(batch.n))
            current = batch
            for condition_k, result_k in compiled_whens:
                if not pending:
                    return out
                mask = condition_k(current, outers)
                hit = [local for local, flag in enumerate(mask) if flag is True]
                if hit:
                    values = result_k(current.select(hit), outers)
                    for local, value in zip(hit, values):
                        out[pending[local]] = value
                    miss = [local for local, flag in enumerate(mask) if flag is not True]
                    pending = [pending[local] for local in miss]
                    current = current.select(miss)
            if compiled_else is not None and pending:
                values = compiled_else(current, outers)
                for position, value in zip(pending, values):
                    out[position] = value
            return out

        return kernel

    def _compile_inlist(self, expr: ast.InList) -> BatchKernel:
        items = [item.value for item in expr.items if isinstance(item, ast.Literal)]
        value_k = self.compile(expr.expr)
        if len(items) != len(expr.items):
            return self._item_by_item_inlist(expr, value_k)
        negated = expr.negated
        saw_null = any(item is None for item in items)
        present = [item for item in items if item is not None]
        family = _value_family(present)
        if family is not None:
            members = set(present)

            def fast(batch: RowBatch, outers: tuple) -> list:
                out = []
                append = out.append
                for value in value_k(batch, outers):
                    if value is None:
                        append(None)
                    elif type(value) in family:
                        if value in members:
                            append(not negated)
                        elif saw_null:
                            append(None)
                        else:
                            append(negated)
                    else:
                        append(_in_list_slow(value, items, negated))
                return out

            if family == (int, float):
                slot = self._depth0_slot(expr.expr)
                if slot is not None:
                    return self._typed_inlist(slot, members, saw_null, negated, fast)
            return fast

        def kernel(batch: RowBatch, outers: tuple) -> list:
            return [
                None if value is None else _in_list_slow(value, items, negated)
                for value in value_k(batch, outers)
            ]

        return kernel

    def _item_by_item_inlist(self, expr: ast.InList, value_k: BatchKernel) -> BatchKernel:
        """``x IN (a, b, ...)`` with non-literal items, one item at a time.

        Item *k* is evaluated over the sub-batch of the rows items 0..k-1
        left undecided (the CASE kernel's ``select(pending)`` shape): a row
        stops at its first match and a NULL value evaluates no item at all,
        so an item never raises, nor calls a UDF, for a row that is already
        decided.
        """
        item_ks = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def kernel(batch: RowBatch, outers: tuple) -> list:
            values = value_k(batch, outers)
            out: list = [None] * batch.n
            # batch positions of the undecided rows; ``current`` holds them
            pending = [position for position, value in enumerate(values) if value is not None]
            current = batch if len(pending) == batch.n else batch.select(pending)
            saw_null: set[int] = set()
            for item_k in item_ks:
                if not pending:
                    return out
                undecided: list[int] = []
                for local, (position, item) in enumerate(
                    zip(pending, item_k(current, outers))
                ):
                    if item is None:
                        saw_null.add(position)
                    elif sql_equal(values[position], item) is True:
                        out[position] = not negated
                        continue
                    undecided.append(local)
                if len(undecided) < len(pending):
                    pending = [pending[local] for local in undecided]
                    current = current.select(undecided)
            for position in pending:
                out[position] = None if position in saw_null else negated
            return out

        return kernel

    def _compile_between(self, expr: ast.Between) -> BatchKernel:
        generic = self._generic_between(expr)
        typed = self._typed_between(expr, generic)
        return generic if typed is None else typed

    def _generic_between(self, expr: ast.Between) -> BatchKernel:
        value_k = self.compile(expr.expr)
        low, high = self._constant(expr.low), self._constant(expr.high)
        low_k = self.compile(expr.low) if low is None else self._constant_kernel(low)
        high_k = self.compile(expr.high) if high is None else self._constant_kernel(high)
        negated = expr.negated
        if (
            low is not None
            and high is not None
            and is_plain_number(low.value)
            and is_plain_number(high.value)
        ):
            read_low, read_high = low.read, high.read

            def fast(batch: RowBatch, outers: tuple) -> list:
                low_const, high_const = read_low(), read_high()
                out = []
                append = out.append
                for value in value_k(batch, outers):
                    if value is None:
                        append(None)
                        continue
                    kind = type(value)
                    if kind is float or kind is int:
                        result = low_const <= value <= high_const
                    else:
                        result = (
                            sql_compare(value, low_const) >= 0
                            and sql_compare(value, high_const) <= 0
                        )
                    append(not result if negated else result)
                return out

            return fast

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for value, low, high in zip(
                value_k(batch, outers), low_k(batch, outers), high_k(batch, outers)
            ):
                if value is None or low is None or high is None:
                    append(None)
                    continue
                result = sql_compare(value, low) >= 0 and sql_compare(value, high) <= 0
                append(not result if negated else result)
            return out

        return kernel

    def _compile_like(self, expr: ast.Like) -> BatchKernel:
        value_k = self.compile(expr.expr)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
            regex = _like_regex(expr.pattern.value)
            match = regex.match

            def static(batch: RowBatch, outers: tuple) -> list:
                out = []
                append = out.append
                for value in value_k(batch, outers):
                    if value is None:
                        append(None)
                    else:
                        matched = match(str(value)) is not None
                        append(not matched if negated else matched)
                return out

            return static

        pattern_k = self.compile(expr.pattern)

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for value, pattern in zip(value_k(batch, outers), pattern_k(batch, outers)):
                if value is None or pattern is None:
                    append(None)
                else:
                    matched = _like_regex(str(pattern)).match(str(value)) is not None
                    append(not matched if negated else matched)
            return out

        return kernel

    def _compile_isnull(self, expr: ast.IsNull) -> BatchKernel:
        value_k = self.compile(expr.expr)
        if expr.negated:
            return lambda batch, outers: [
                value is not None for value in value_k(batch, outers)
            ]
        return lambda batch, outers: [value is None for value in value_k(batch, outers)]

    def _compile_extract(self, expr: ast.Extract) -> BatchKernel:
        value_k = self.compile(expr.expr)
        part = expr.part.upper()
        # an unsupported part only raises when a non-NULL value is
        # actually extracted
        attribute = part.lower() if part in ("YEAR", "MONTH", "DAY") else None

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for value in value_k(batch, outers):
                if value is None:
                    append(None)
                    continue
                if attribute is None:
                    raise ExecutionError(f"unsupported EXTRACT part {part!r}")
                date = value if isinstance(value, Date) else date_from_string(str(value))
                append(getattr(date, attribute))
            return out

        return kernel

    def _compile_substring(self, expr: ast.Substring) -> BatchKernel:
        value_k = self.compile(expr.expr)
        start_k = self.compile(expr.start)
        length_k = self.compile(expr.length) if expr.length is not None else None

        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            values = value_k(batch, outers)
            starts = start_k(batch, outers)
            lengths = length_k(batch, outers) if length_k is not None else None
            for position, (value, start) in enumerate(zip(values, starts)):
                if value is None or start is None:
                    append(None)
                    continue
                text = str(value)
                begin = max(int(start) - 1, 0)
                if lengths is None:
                    append(text[begin:])
                    continue
                length = lengths[position]
                append(None if length is None else text[begin: begin + int(length)])
            return out

        return kernel

    # -- function calls -----------------------------------------------------

    def _compile_functioncall(self, expr: ast.FunctionCall) -> BatchKernel:
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name!r} is not allowed in this context"
            )
        arg_kernels = [self.compile(argument) for argument in expr.args]
        context = self.context
        name = expr.name

        def kernel(batch: RowBatch, outers: tuple) -> list:
            columns = [arg_kernel(batch, outers) for arg_kernel in arg_kernels]
            return context.batch_call_function(name, columns, batch.n)

        return kernel

    # -- sub-queries ---------------------------------------------------------

    # An uncorrelated sub-query never reads its outer rows, so it answers
    # once per batch (from its run's cache, see executor.RunState) and the answer is applied
    # to the whole column; a correlated one runs once per row of the batch,
    # with that row prepended to the outer rows it resolves against.

    def _compile_scalarsubquery(self, expr: ast.ScalarSubquery) -> BatchKernel:
        prepared = self.context.prepare_subquery(expr.query, self.scope)
        if prepared.correlated:
            return lambda batch, outers: [
                _scalar(prepared.run((row,) + outers)) for row in batch.rows
            ]

        def kernel(batch: RowBatch, outers: tuple) -> list:
            if batch.n == 0:
                return []
            return [_scalar(prepared.run(outers))] * batch.n

        return kernel

    def _compile_insubquery(self, expr: ast.InSubquery) -> BatchKernel:
        prepared = self.context.prepare_subquery(expr.query, self.scope)
        value_k = self.compile(expr.expr)
        negated = expr.negated
        found = not negated

        def member(value: Any, members) -> Optional[bool]:
            if value in members.values:
                return found
            return None if members.has_null else negated

        if prepared.correlated:

            def correlated(batch: RowBatch, outers: tuple) -> list:
                # a NULL value looks nothing up: its sub-query does not run
                return [
                    None if value is None
                    else member(value, prepared.run_value_set((row,) + outers))
                    for value, row in zip(value_k(batch, outers), batch.rows)
                ]

            return correlated

        def kernel(batch: RowBatch, outers: tuple) -> list:
            values = value_k(batch, outers)
            if all(value is None for value in values):
                return [None] * len(values)  # nothing to look up
            members = prepared.run_value_set(outers)
            present = members.values
            missing = None if members.has_null else negated
            return [
                None if value is None else found if value in present else missing
                for value in values
            ]

        return kernel

    def _compile_exists(self, expr: ast.Exists) -> BatchKernel:
        prepared = self.context.prepare_subquery(expr.query, self.scope)
        negated = expr.negated
        if prepared.correlated:
            return lambda batch, outers: [
                bool(prepared.run((row,) + outers)) != negated
                for row in batch.rows
            ]

        def kernel(batch: RowBatch, outers: tuple) -> list:
            if batch.n == 0:
                return []
            return [bool(prepared.run(outers)) != negated] * batch.n

        return kernel

    # -- typed-column specialization ----------------------------------------
    #
    # Eligible expression shapes over NOT NULL columns are code-generated
    # into two loop variants over typed payloads (dense, selected); the
    # compiled kernel checks the batch's typed columns at run time and falls
    # back to its generic twin per batch, so a plan serves scans and join
    # intermediates alike.  Bit-identity holds because typed payloads
    # round-trip their values exactly and the generated operators are the
    # same Python operators the generic fast paths would have applied.

    def _depth0_slot(self, expr: ast.Expression) -> Optional[int]:
        """The storage slot of a depth-0 column reference the schema proves
        NOT NULL (``INSERT``, ``UPDATE`` and bulk loads enforce it), else
        ``None``: only such a column may feed a typed kernel."""
        if not isinstance(expr, ast.Column):
            return None
        resolved = self.scope.resolve(expr.name, expr.table)
        if resolved is None or resolved[0] != 0 or resolved[1] not in self.scope.proven:
            return None
        return resolved[1]

    def _typed_render(
        self, expr: ast.Expression, slot_vars: dict[int, int]
    ) -> tuple[str, str]:
        """Render a provably numeric subtree as ``(dense, selected)`` source.

        Dense fragments are in terms of loop variables ``v<k>``, selected
        fragments index payloads ``c<k>[i]``; ``slot_vars`` accumulates the
        storage-slot -> variable mapping.  Constants embed via ``repr`` —
        exact for ``int`` and round-tripping for ``float``.  Division only
        renders with a non-zero literal divisor (a zero divisor must keep
        the generic kernel's runtime ``ExecutionError``).  Anything not
        provably numeric raises :class:`_TypedUnsupported`.
        """
        folded = fold_literal(expr)
        if folded is not None:
            if not is_plain_number(folded.value):
                raise _TypedUnsupported
            text = repr(folded.value)
            return text, text
        if isinstance(expr, ast.Column):
            slot = self._depth0_slot(expr)
            if slot is None:
                raise _TypedUnsupported
            var = slot_vars.setdefault(slot, len(slot_vars))
            return f"v{var}", f"c{var}[i]"
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            dense, selected = self._typed_render(expr.operand, slot_vars)
            return f"(-{dense})", f"(-{selected})"
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            if op in ("+", "-", "*"):
                left_d, left_s = self._typed_render(expr.left, slot_vars)
                right_d, right_s = self._typed_render(expr.right, slot_vars)
                return f"({left_d} {op} {right_d})", f"({left_s} {op} {right_s})"
            if op == "/":
                divisor = fold_literal(expr.right)
                if (
                    divisor is None
                    or not is_plain_number(divisor.value)
                    or divisor.value == 0
                ):
                    raise _TypedUnsupported
                left_d, left_s = self._typed_render(expr.left, slot_vars)
                text = repr(divisor.value)
                return f"({left_d} / {text})", f"({left_s} / {text})"
        raise _TypedUnsupported

    def _typed_plan(
        self,
        dense_body: str,
        selected_body: str,
        slot_vars: dict[int, int],
        names: Optional[dict[str, Constant]] = None,
    ) -> tuple:
        """``exec`` the loop variants of one rendered expression.

        Returns ``(slots, dense, selected, reads)``: the storage slots
        feeding the expression in payload-argument order, its loops over
        full payloads and over the payload positions of a selection, and
        the readers of ``names`` — the constants the bodies refer to by
        name, which the loops take as trailing arguments, read per call.
        """
        names = names or {}
        slots = [0] * len(slot_vars)
        for slot, var in slot_vars.items():
            slots[var] = slot
        count = len(slots)
        args = ", ".join(f"c{k}" for k in range(count))
        consts = "".join(f", {name}" for name in names)
        if count == 1:
            dense_src = f"def dense(c0{consts}):\n    return [{dense_body} for v0 in c0]\n"
        else:
            unpack = ", ".join(f"v{k}" for k in range(count))
            dense_src = (
                f"def dense({args}{consts}):\n"
                f"    return [{dense_body} for {unpack} in zip({args})]\n"
            )
        selected_src = (
            f"def selected({args}, sel{consts}):\n"
            f"    return [{selected_body} for i in sel]\n"
        )
        namespace: dict[str, Any] = {}
        exec(  # noqa: S102 - source assembled from vetted fragments only
            _kernel_code(dense_src + selected_src),
            {"__builtins__": {}, "zip": zip},
            namespace,
        )
        reads = tuple(const.read for const in names.values())
        return slots, namespace["dense"], namespace["selected"], reads

    def _typed_numeric_kernel(
        self, plan: tuple, generic: BatchKernel, accepts: str = "numeric"
    ) -> BatchKernel:
        """Wrap a typed plan with the per-batch payload guard + fallback.

        The plan's operators apply when every referenced slot has a payload
        ``accepts`` names: ``"numeric"``; ``"numeric-or-dates"`` (a bare
        column-vs-column comparison) also takes DATE columns stored as dates
        — day ordinals order and equal exactly like the dates, while a DATE
        column holding ISO strings stays generic, where two strings compare
        as text; ``"date"`` (a DATE column against constant day ordinals)
        takes any date payload.

        Every referenced slot is declared NOT NULL (:meth:`_depth0_slot`),
        so a typed dispatch counts as *proven* and a fallback as *generic*.
        """
        slots, dense, selected, reads = plan
        counters = self._kernels

        def typed_columns(batch: RowBatch) -> Optional[list[TypedColumn]]:
            columns = [batch.typed_column(slot) for slot in slots]
            if None in columns:
                return None
            kinds = {typed.kind for typed in columns}
            if accepts == "date":
                accepted = kinds == {"date"}
            else:
                accepted = kinds <= NUMERIC_KINDS or (
                    accepts == "numeric-or-dates"
                    and kinds == {"date"}
                    and not any(typed.parsed for typed in columns)
                )
            return columns if accepted else None

        def kernel(batch: RowBatch, outers: tuple) -> list:
            columns = typed_columns(batch)
            if columns is None:
                counters.generic += 1
                return generic(batch, outers)
            counters.proven += 1
            payloads = [typed.values for typed in columns]
            consts = [read() for read in reads]
            sel = batch.sel
            if sel is None:
                return dense(*payloads, *consts)
            return selected(*payloads, sel, *consts)

        return kernel

    def _typed_slot_kernel(
        self, slot: int, body: str, generic: BatchKernel, accepts: str, **names: Constant
    ) -> BatchKernel:
        """Typed kernel of a one-column ``body`` (``{v}`` is the element)."""
        plan = self._typed_plan(
            body.format(v="v0"), body.format(v="c0[i]"), {slot: 0}, names
        )
        return self._typed_numeric_kernel(plan, generic, accepts)

    def _typed_predicate(
        self,
        left: ast.Expression,
        right: ast.Expression,
        op_src: str,
        generic: BatchKernel,
    ) -> Optional[BatchKernel]:
        """Typed kernel for ``left OP right``: codegen over numeric payloads
        (or two DATE columns' day ordinals), else ``date_column OP constant``.

        A side that is a constant is passed by name, not rendered: ``id = 7``
        and ``id = 8`` are one source text, so one cached code object, and
        ``id = ?`` reads its value per call."""
        slot_vars: dict[int, int] = {}
        names: dict[str, Constant] = {}

        def side(expr: ast.Expression, name: str) -> tuple[str, str]:
            const = self._constant(expr)
            if const is None or not is_plain_number(const.value):
                return self._typed_render(expr, slot_vars)
            names[name] = const
            return name, name

        try:
            left_d, left_s = side(left, "a")
            right_d, right_s = side(right, "b")
        except _TypedUnsupported:
            return self._typed_date_compare(left, right, op_src, generic)
        if not slot_vars:
            return None
        plan = self._typed_plan(
            f"({left_d} {op_src} {right_d})",
            f"({left_s} {op_src} {right_s})",
            slot_vars,
            names,
        )
        bare = isinstance(left, ast.Column) and isinstance(right, ast.Column)
        return self._typed_numeric_kernel(
            plan, generic, "numeric-or-dates" if bare else "numeric"
        )

    def _typed_date_compare(
        self,
        left: ast.Expression,
        right: ast.Expression,
        op_src: str,
        generic: BatchKernel,
    ) -> Optional[BatchKernel]:
        """``date_column OP DATE-constant`` (either way round) reduced to a
        day-ordinal compare: dates order by their
        :func:`~repro.sql.types.date_days` ordinal."""
        for column, other, body in (
            (left, right, "({{v}} {op} days)"),
            (right, left, "(days {op} {{v}})"),
        ):
            slot = self._depth0_slot(column)
            const = None if slot is None else self._constant(other)
            if const is not None and type(const.value) is Date:
                body = body.format(op=op_src)
                return self._typed_slot_kernel(
                    slot, body, generic, "date", days=const.derive(date_days)
                )
        return None

    def _typed_between(
        self, expr: ast.Between, generic: BatchKernel
    ) -> Optional[BatchKernel]:
        """Typed ``x BETWEEN low AND high`` for numeric or date shapes."""
        low, high = self._constant(expr.low), self._constant(expr.high)
        if low is None or high is None:
            return None
        negation = "not " if expr.negated else ""
        if is_plain_number(low.value) and is_plain_number(high.value):
            slot_vars: dict[int, int] = {}
            try:
                dense, selected = self._typed_render(expr.expr, slot_vars)
            except _TypedUnsupported:
                return None
            if not slot_vars:
                return None
            plan = self._typed_plan(
                f"({negation}(low <= {dense} <= high))",
                f"({negation}(low <= {selected} <= high))",
                slot_vars,
                {"low": low, "high": high},
            )
            return self._typed_numeric_kernel(plan, generic)
        if type(low.value) is Date and type(high.value) is Date:
            slot = self._depth0_slot(expr.expr)
            if slot is None:
                return None
            return self._typed_slot_kernel(
                slot,
                f"({negation}(low <= {{v}} <= high))",
                generic,
                "date",
                low=low.derive(date_days),
                high=high.derive(date_days),
            )
        return None

    def _typed_inlist(
        self,
        slot: int,
        members: set,
        saw_null: bool,
        negated: bool,
        generic: BatchKernel,
    ) -> BatchKernel:
        """Typed set-membership for a numeric column against numeric
        literals; a NULL in the list turns every miss into NULL."""
        if saw_null:
            body = f"({not negated} if {{v}} in members else None)"
        else:
            body = "({v} not in members)" if negated else "({v} in members)"
        return self._typed_slot_kernel(
            slot, body, generic, "numeric", members=fixed(members)
        )


@lru_cache(maxsize=256)
def _kernel_code(source: str):
    """The code object of one generated kernel source, compiled once per
    process: statements re-render the same few loops over and over, and
    ``exec`` into a fresh sandboxed namespace stays per plan."""
    return compile(source, "<typed-kernel>", "exec")


class _TypedUnsupported(Exception):
    """Internal: a subtree cannot compile into a typed numeric kernel."""


# ---------------------------------------------------------------------------
# kernel helpers
# ---------------------------------------------------------------------------


#: operators whose kernels yield only True / False / None
_BOOLEAN_OPS = frozenset(("AND", "OR", "=", "<>", "<", "<=", ">", ">="))
_BOOLEAN_NODES = (ast.IsNull, ast.Like, ast.InList, ast.Between, ast.InSubquery, ast.Exists)


def _is_boolean(expr: ast.Expression) -> bool:
    """Whether ``expr``'s kernel is a mask as it stands (see
    :meth:`BatchExpressionCompiler.compile_predicate`)."""
    if isinstance(expr, ast.BinaryOp):
        return expr.op.upper() in _BOOLEAN_OPS
    if isinstance(expr, ast.UnaryOp):
        return expr.op.upper() == "NOT"
    return isinstance(expr, _BOOLEAN_NODES)


def _value_family(values: list) -> Optional[tuple]:
    """The homogeneous fast-path type family of literal values, if any.

    Within a family Python's ``==``/``hash`` agree with :func:`sql_equal`,
    so set membership is sound; mixed or exotic literals return ``None`` and
    the caller keeps the per-item comparison loop.
    """
    if not values:
        return None
    if all(is_plain_number(value) for value in values):
        return (int, float)
    if all(type(value) is str for value in values):
        return (str,)
    if all(type(value) is Date for value in values):
        return (Date,)
    return None


def _in_list_slow(value: Any, items: list, negated: bool) -> Optional[bool]:
    """The IN-list scan for one non-NULL value against literal ``items``."""
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
            continue
        if sql_equal(value, item) is True:
            return not negated
    if saw_null:
        return None
    return negated


def _scalar(rows: list[tuple]) -> Any:
    """A scalar sub-query's value: its one cell, NULL over no rows."""
    if not rows:
        return None
    if len(rows[0]) != 1:
        raise ExecutionError("scalar sub-query must return a single column")
    return rows[0][0]


def _logic_kernel(left: BatchKernel, right: BatchKernel, op: str) -> BatchKernel:
    """Three-valued AND/OR over two mask columns; both sides are evaluated
    over every row."""
    if op == "AND":
        def kernel(batch: RowBatch, outers: tuple) -> list:
            out = []
            append = out.append
            for a, b in zip(left(batch, outers), right(batch, outers)):
                if a is False or b is False:
                    append(False)
                elif a is None or b is None:
                    append(None)
                else:
                    append(True)
            return out

        return kernel

    def kernel(batch: RowBatch, outers: tuple) -> list:
        out = []
        append = out.append
        for a, b in zip(left(batch, outers), right(batch, outers)):
            if a is True or b is True:
                append(True)
            elif a is None or b is None:
                append(None)
            else:
                append(False)
        return out

    return kernel
