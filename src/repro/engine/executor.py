"""Query executor: prepared SELECT plans, aggregation, ordering, sub-queries.

:class:`Executor` prepares a :class:`PreparedSelect` per statement execution.
Preparation compiles every expression to a batch kernel (see
:mod:`repro.engine.vector`) and plans the joins (see
:mod:`repro.engine.planner`); running a prepared plan pulls the joined rows
as one :class:`~repro.engine.vector.RowBatch` and projects or aggregates it
in bounded windows.  Prepared plans for uncorrelated sub-queries cache their
result so that ``x IN (SELECT ...)`` style predicates cost one execution per
statement, not one per row.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import count, filterfalse
from time import perf_counter
from typing import Any, Optional

from ..errors import ExecutionError, FunctionError
from ..result import QueryResult, RowStream
from ..sql import ast
from ..sql.printer import to_sql
from ..sql.transform import find_aggregate_calls, transform_expression
from ..sql.types import sort_key
from .expressions import Scope
from .functions import BUILTIN_SCALARS, Function, aggregate_factory, is_count_star
from .planner import Planner
from .vector import (
    BatchExpressionCompiler,
    RowBatch,
    apply_batch_predicates,
    key_column,
)


def _row_positions(batch: RowBatch, outers: tuple) -> range:
    """Argument "column" of a plain ``COUNT(*)``: it only lends its length."""
    return range(batch.n)


def _row_tuples(batch: RowBatch, outers: tuple):
    """Argument column of any other aggregate without an argument expression
    (``COUNT(DISTINCT *)``, ``COUNT()``): the row tuples themselves."""
    return batch.rows


@dataclass
class ValueSet:
    """Materialized membership set for IN (sub-query) predicates."""

    values: set
    has_null: bool


class ExecutionContext:
    """Services available to compiled expressions at run time."""

    def __init__(self, database, executor: "Executor") -> None:
        self.database = database
        self.executor = executor

    # -- functions -----------------------------------------------------------

    def call_function(self, name: str, args: list[Any]) -> Any:
        catalog = self.database.catalog
        stats = self.database.stats
        if catalog.has_function(name):
            function = catalog.function(name)
            value, executed = function.invoke(
                args, self, use_cache=self.database.profile.cache_immutable_functions
            )
            stats.add_udf_call(executed)
            return value
        builtin = BUILTIN_SCALARS.get(name.lower())
        if builtin is not None:
            return builtin(*args)
        raise FunctionError(f"unknown function {name!r}")

    def batch_call_function(self, name: str, columns: list[list], n: int) -> list:
        """Call a scalar function over argument columns (the batch hot path).

        Catalog UDFs under a memoizing profile are *memo-batched*: the
        ``(args)`` keys of a batch are deduplicated, the shared memo in
        :meth:`repro.engine.functions.Function.invoke` is hit once per
        distinct key, and results scatter to every occurrence.  Counters
        stay one call per occurrence — each duplicate occurrence is one
        call that hit the cache, counted in bulk — so the UDF-cache
        ablation counts distinct conversion evaluations, not batches.  Non-memoizing profiles (System C cannot declare
        UDFs deterministic) call per row, preserving their per-row
        execution counts.
        """
        catalog = self.database.catalog
        stats = self.database.stats
        if catalog.has_function(name):
            function = catalog.function(name)
            use_cache = self.database.profile.cache_immutable_functions
            if use_cache and function.immutable:
                out = [None] * n
                memo: dict[tuple, Any] = {}
                duplicates = 0
                for position in range(n):
                    args = tuple(column[position] for column in columns)
                    try:
                        hit = args in memo
                    except TypeError:  # unhashable argument: no dedupe
                        value, executed = function.invoke(args, self, use_cache=True)
                        stats.add_udf_call(executed)
                        out[position] = value
                        continue
                    if hit:
                        out[position] = memo[args]
                        duplicates += 1
                    else:
                        value, executed = function.invoke(args, self, use_cache=True)
                        stats.add_udf_call(executed)
                        memo[args] = value
                        out[position] = value
                if duplicates:
                    stats.add(udf_calls=duplicates, udf_cache_hits=duplicates)
                return out
            out = []
            for position in range(n):
                args = tuple(column[position] for column in columns)
                value, executed = function.invoke(args, self, use_cache=use_cache)
                stats.add_udf_call(executed)
                out.append(value)
            return out
        builtin = BUILTIN_SCALARS.get(name.lower())
        if builtin is not None:
            return [
                builtin(*(column[position] for column in columns))
                for position in range(n)
            ]
        raise FunctionError(f"unknown function {name!r}")

    def run_function_body(self, function: Function, args: list[Any]) -> Any:
        prepared = self.executor.function_body_plan(function, len(args))
        rows = prepared.run((tuple(args),))
        if not rows:
            return None
        return rows[0][0]

    # -- sub-queries -----------------------------------------------------------

    def prepare_subquery(
        self, select: ast.Select, parent_scope: Optional[Scope]
    ) -> "PreparedSelect":
        return self.executor.prepare(select, parent_scope)


class PreparedSelect:
    """A fully compiled SELECT plan, runnable for any outer-row context."""

    def __init__(
        self,
        executor: "Executor",
        select: ast.Select,
        parent_scope: Optional[Scope],
    ) -> None:
        self._executor = executor
        self._context = executor.context
        self._select = select
        self._parent_scope = parent_scope
        self._cache_rows: Optional[list[tuple]] = None
        self._cache_value_set: Optional[ValueSet] = None
        self._scopes: list[Scope] = []
        self._children: list[PreparedSelect] = []
        self._compile()

    # -- compilation ----------------------------------------------------------

    def _compile(self) -> None:
        select = self._select
        self._batch_size = self._context.database.batch_size
        # operator profiles are recorded for top-level statements only;
        # per-outer-row sub-query runs would drown the profile in lock traffic
        self._profile_ops = self._parent_scope is None
        planner = Planner(self._context, self._parent_scope)
        self._pipeline, self._scope, subquery_conjuncts = planner.plan(select)
        self._scopes.extend(planner.created_scopes)
        self._children.extend(self._pipeline.children())

        expr_compiler = BatchExpressionCompiler(self._scope, self._context)
        self._post_filters = [
            expr_compiler.compile_predicate(conjunct) for conjunct in subquery_conjuncts
        ]

        items = self._expand_stars(select.items)
        self.output_columns = [self._output_name(item) for item in items]
        alias_map = {
            item.alias.lower(): item.expr for item in items if item.alias is not None
        }

        aggregates: list[ast.FunctionCall] = []
        for item in items:
            aggregates.extend(find_aggregate_calls(item.expr))
        aggregates.extend(find_aggregate_calls(select.having))
        for order in select.order_by:
            aggregates.extend(find_aggregate_calls(self._substitute_aliases(order.expr, alias_map)))

        self._grouped = bool(select.group_by) or bool(aggregates)
        if self._grouped:
            self._compile_grouped(select, items, aggregates, alias_map, expr_compiler)
        else:
            self._compile_plain(select, items, alias_map, expr_compiler)

        self._distinct = select.distinct
        self._limit = select.limit
        self.correlated = any(scope.uses_parent for scope in self._scopes) or any(
            child.correlated for child in self._children
        )

    def _compile_plain(
        self,
        select: ast.Select,
        items: list[ast.SelectItem],
        alias_map: dict[str, ast.Expression],
        compiler,
    ) -> None:
        if select.having is not None:
            raise ExecutionError("HAVING requires GROUP BY or aggregation")
        self._item_fns = [compiler.compile(item.expr) for item in items]
        self._order_fns = [
            (compiler.compile(self._substitute_aliases(order.expr, alias_map)), order.descending)
            for order in select.order_by
        ]
        self._group_key_fns = []
        self._aggregate_specs = []
        self._having_fn = None

    def _compile_grouped(
        self,
        select: ast.Select,
        items: list[ast.SelectItem],
        aggregates: list[ast.FunctionCall],
        alias_map: dict[str, ast.Expression],
        compiler,
    ) -> None:
        group_exprs = [
            self._substitute_aliases(expr, alias_map, prefer_input=True)
            for expr in select.group_by
        ]
        unique_aggregates: dict[str, ast.FunctionCall] = {}
        for aggregate in aggregates:
            unique_aggregates.setdefault(to_sql(aggregate), aggregate)

        mapping: dict[str, str] = {}
        group_columns: list[tuple[Optional[str], str]] = []
        for position, expr in enumerate(group_exprs):
            placeholder = f"__key_{position}"
            mapping.setdefault(to_sql(expr), placeholder)
            group_columns.append((None, placeholder))
        self._aggregate_specs = []
        for position, (text, aggregate) in enumerate(unique_aggregates.items()):
            placeholder = f"__agg_{position}"
            mapping[text] = placeholder
            group_columns.append((None, placeholder))
            if aggregate.args and not isinstance(aggregate.args[0], ast.Star):
                arg_fn = compiler.compile(aggregate.args[0])
            elif is_count_star(aggregate) and not aggregate.distinct:
                arg_fn = _row_positions
            else:
                arg_fn = _row_tuples
            # (state factory, argument kernel), resolved once; a run builds
            # one state per aggregate for all its groups
            self._aggregate_specs.append((aggregate_factory(aggregate), arg_fn))

        self._group_key_fns = [compiler.compile(expr) for expr in group_exprs]

        group_scope = Scope(group_columns, parent=self._parent_scope)
        self._scopes.append(group_scope)
        group_compiler = BatchExpressionCompiler(group_scope, self._context)

        def rewrite(expr: Optional[ast.Expression]) -> Optional[ast.Expression]:
            if expr is None:
                return None
            return transform_expression(expr, self._group_replacer(mapping))

        self._item_fns = [group_compiler.compile(rewrite(item.expr)) for item in items]
        having = rewrite(self._substitute_aliases(select.having, alias_map)) if select.having is not None else None
        self._having_fn = group_compiler.compile_predicate(having) if having is not None else None
        self._order_fns = [
            (
                group_compiler.compile(rewrite(self._substitute_aliases(order.expr, alias_map))),
                order.descending,
            )
            for order in select.order_by
        ]

    @staticmethod
    def _group_replacer(mapping: dict[str, str]):
        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(node, ast.SUBQUERY_NODES):
                return None
            text = to_sql(node)
            placeholder = mapping.get(text)
            if placeholder is not None:
                return ast.Column(name=placeholder)
            if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                raise ExecutionError(
                    f"aggregate {text} is not available in this grouping context"
                )
            return None

        return replacer

    def _substitute_aliases(
        self,
        expr: Optional[ast.Expression],
        alias_map: dict[str, ast.Expression],
        prefer_input: bool = False,
    ) -> Optional[ast.Expression]:
        """Replace references to SELECT aliases in ORDER BY / GROUP BY / HAVING."""
        if expr is None or not alias_map:
            return expr

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(node, ast.Column) and node.table is None:
                target = alias_map.get(node.name.lower())
                if target is None:
                    return None
                if prefer_input and self._scope.resolve_local(node.name, None) is not None:
                    return None
                if self._scope.resolve_local(node.name, None) is not None and isinstance(
                    target, ast.Column
                ):
                    return None
                return target
            return None

        return transform_expression(expr, replacer)

    # -- star expansion ---------------------------------------------------------

    def _expand_stars(self, items: list[ast.SelectItem]) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for binding, column in self._pipeline.schema:
                    if item.expr.table is not None and binding != item.expr.table.lower():
                        continue
                    expanded.append(
                        ast.SelectItem(expr=ast.Column(name=column, table=binding), alias=column)
                    )
            else:
                expanded.append(item)
        if not expanded:
            raise ExecutionError("SELECT list is empty after star expansion")
        return expanded

    @staticmethod
    def _output_name(item: ast.SelectItem) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.Column):
            return item.expr.name
        return to_sql(item.expr)

    # -- execution ----------------------------------------------------------------

    def estimate(self) -> int:
        return self._pipeline.estimate()

    def run(self, outers: tuple = (), limit: Optional[int] = None) -> list[tuple]:
        if not self.correlated and self._cache_rows is not None:
            rows = self._cache_rows
        else:
            rows = self._run_uncached(outers)
            if not self.correlated:
                self._cache_rows = rows
        if limit is not None:
            return rows[:limit]
        return rows

    def run_value_set(self, outers: tuple = ()) -> ValueSet:
        if not self.correlated and self._cache_value_set is not None:
            return self._cache_value_set
        rows = self.run(outers)
        values = set()
        has_null = False
        for row in rows:
            value = row[0]
            if value is None:
                has_null = True
            else:
                values.add(value)
        value_set = ValueSet(values=values, has_null=has_null)
        if not self.correlated:
            self._cache_value_set = value_set
        return value_set

    @property
    def streamable(self) -> bool:
        """Whether :meth:`stream` can yield rows before the full set exists.

        Grouping/aggregation, ``ORDER BY`` and ``DISTINCT`` are barriers (the
        last row can change the first output row), so only plain
        project-filter-join queries stream incrementally; everything else
        falls back to the materializing path inside :meth:`stream`.
        """
        return not self._grouped and not self._order_fns and not self._distinct

    def stream(self, outers: tuple = ()):
        """Yield projected rows lazily (see :attr:`streamable`).

        The lazy path pulls bounded batches from
        :meth:`~repro.engine.planner.JoinPipeline.iter_batches`, applies the
        post-filters and the projection per *batch* and honours ``LIMIT`` by
        stopping the pull early — an early ``LIMIT`` therefore materializes
        O(batch) rows.  Laziness covers joining and projection — never the
        full *result set* is materialized; each base scan still evaluates its
        pushed-down filters over its whole table when first pulled (sources
        produce row lists).  Cached rows (uncorrelated sub-query memo) and
        non-streamable shapes are simply replayed from the materialized
        result.
        """
        if not self.streamable or (not self.correlated and self._cache_rows is not None):
            yield from self.run(outers)
            return
        self._context.database.stats.add(subquery_runs=1)
        filters = self._post_filters
        item_fns = self._item_fns
        limit = self._limit
        produced = 0
        for batch in self._pipeline.iter_batches(outers, self._batch_size):
            if filters:
                batch = apply_batch_predicates(batch, filters, outers)
                if batch.n == 0:
                    continue
            columns = [fn(batch, outers) for fn in item_fns]
            for values in zip(*columns):
                yield values
                produced += 1
                if limit is not None and produced >= limit:
                    return

    def _run_uncached(self, outers: tuple) -> list[tuple]:
        stats = self._context.database.stats
        stats.add(subquery_runs=1)
        profiled = self._profile_ops
        batch_size = self._batch_size
        if profiled:
            kernels = stats.kernels

            def mark() -> tuple:
                return (
                    perf_counter(),
                    *kernels.snapshot(),
                    stats.join_rows_materialized,
                    stats.join_rows_hashed,
                )

            marks = [mark()]

            def record(operator: str, rows_count: int, batches: int = 1) -> None:
                # each stage's profile carries the wall time, the kernel
                # dispatches and the joined rows materialized / build rows
                # hashed since the previous mark
                then, now = marks[0], mark()
                stats.record_operator(
                    operator,
                    rows_count,
                    now[0] - then[0],
                    batches=batches,
                    generic_kernels=now[2] - then[2],
                    proven_kernels=now[3] - then[3],
                    join_rows_materialized=now[4] - then[4],
                    join_rows_hashed=now[5] - then[5],
                )
                marks[0] = now

        batch = self._pipeline.execute_batch(outers)
        if profiled:
            record("scan+join", batch.n)
        if self._post_filters:
            batch = apply_batch_predicates(batch, self._post_filters, outers)
            if profiled:
                record("filter", batch.n)
        input_rows = batch.n
        if self._grouped:
            operator = "aggregate"
            projected = self._aggregate(batch, outers)
        else:
            operator = "project"
            projected = self._project(batch, outers)
        if profiled:
            record(operator, input_rows, batches=max(1, -(-input_rows // batch_size)))
        if self._distinct:
            projected = self._deduplicate(projected)
            if profiled:
                record("distinct", len(projected))
        if self._order_fns:
            projected = self._order(projected)
            if profiled:
                record("order", len(projected))
        result = [row for row, _ in projected]
        if self._limit is not None:
            result = result[: self._limit]
        return result

    def _project(self, source: RowBatch, outers: tuple) -> list[tuple[tuple, tuple]]:
        """Batch projection: evaluate item/order columns per bounded window."""
        batch_size = self._batch_size
        item_fns = self._item_fns
        order_fns = self._order_fns
        projected: list[tuple[tuple, tuple]] = []
        for start in range(0, source.n, batch_size):
            batch = source.window(start, start + batch_size)
            value_columns = [fn(batch, outers) for fn in item_fns]
            values_rows = list(zip(*value_columns))
            if order_fns:
                key_columns = [fn(batch, outers) for fn, _ in order_fns]
                keys_rows = list(zip(*key_columns))
            else:
                keys_rows = [()] * batch.n
            projected.extend(zip(values_rows, keys_rows))
        return projected

    def _aggregate(self, source: RowBatch, outers: tuple) -> list[tuple[tuple, tuple]]:
        """Batch aggregation: hash the keys to dense group ids, fold columns.

        Rows are processed in bounded windows of the source batch (windows
        over a scan batch keep typed-column access, so aggregate arguments
        like ``qty * price`` evaluate through typed kernels).  Per window the
        group keys and every aggregate argument are evaluated as columns and
        each row's key is mapped to its group id — ids are dense, handed out
        in first-seen order, and looked up at C speed (a single-column
        ``GROUP BY`` keys on the column's values, no tuple per row).  Every
        aggregate owns one :class:`~repro.engine.functions.GroupedState` for
        all groups and folds ``(ids, column)`` once per window, in row order,
        so float accumulation is that of a per-row fold; while there is
        only one group (no ``GROUP BY``, or one key value so far) the column
        folds into it without consulting the ids.
        """
        specs = self._aggregate_specs
        group_key_fns = self._group_key_fns
        batch_size = self._batch_size
        states = [factory() for factory, _ in specs]
        # key -> group id; without GROUP BY everything is the one group ()
        groups: dict = {} if group_key_fns else {(): 0}
        grown = len(groups)
        for state in states:
            state.grow(grown)
        ids: list = []
        for start in range(0, source.n, batch_size):
            batch = source.window(start, start + batch_size)
            columns = [fn(batch, outers) for _, fn in specs]
            if group_key_fns:
                keys = key_column(group_key_fns, batch, outers)
                try:
                    ids = list(map(groups.__getitem__, keys))
                except KeyError:  # the window introduces groups
                    fresh = list(filterfalse(groups.__contains__, dict.fromkeys(keys)))
                    groups.update(zip(fresh, count(grown)))
                    for state in states:
                        state.grow(len(fresh))
                    grown = len(groups)
                    ids = list(map(groups.__getitem__, keys))
            if grown == 1:
                for state, column in zip(states, columns):
                    state.fold_one(0, column)
            else:
                for state, column in zip(states, columns):
                    state.fold(ids, column)

        if not group_key_fns:
            key_columns: Any = ()
        elif len(group_key_fns) == 1:
            key_columns = (groups,)
        else:
            key_columns = zip(*groups)
        group_rows = list(zip(*key_columns, *(state.results() for state in states)))
        return self._project_groups(group_rows, outers)

    def _project_groups(
        self, group_rows: list[tuple], outers: tuple
    ) -> list[tuple[tuple, tuple]]:
        """HAVING + projection over the merged group rows, batch at a time."""
        batch_size = self._batch_size
        having_fn = self._having_fn
        item_fns = self._item_fns
        order_fns = self._order_fns
        projected: list[tuple[tuple, tuple]] = []
        for start in range(0, len(group_rows), batch_size):
            batch = RowBatch(group_rows[start : start + batch_size])
            if having_fn is not None:
                batch = apply_batch_predicates(batch, [having_fn], outers)
                if batch.n == 0:
                    continue
            value_columns = [fn(batch, outers) for fn in item_fns]
            values_rows = list(zip(*value_columns))
            if order_fns:
                key_columns = [fn(batch, outers) for fn, _ in order_fns]
                keys_rows = list(zip(*key_columns))
            else:
                keys_rows = [()] * batch.n
            projected.extend(zip(values_rows, keys_rows))
        return projected

    @staticmethod
    def _deduplicate(projected: list[tuple[tuple, tuple]]) -> list[tuple[tuple, tuple]]:
        seen = set()
        unique = []
        for values, keys in projected:
            if values in seen:
                continue
            seen.add(values)
            unique.append((values, keys))
        return unique

    def _order(self, projected: list[tuple[tuple, tuple]]) -> list[tuple[tuple, tuple]]:
        if not self._order_fns:
            return projected
        ordered = list(projected)
        for position in range(len(self._order_fns) - 1, -1, -1):
            descending = self._order_fns[position][1]
            ordered.sort(key=lambda entry: sort_key(entry[1][position]), reverse=descending)
        return ordered


class Executor:
    """Long-lived executor owned by a :class:`repro.engine.database.Database`."""

    def __init__(self, database) -> None:
        self.database = database
        self.context = ExecutionContext(database, self)
        self._function_body_plans: dict[str, PreparedSelect] = {}
        self._plans_lock = threading.Lock()

    def execute(self, select: ast.Select) -> QueryResult:
        prepared = self.prepare(select, None)
        rows = prepared.run(())
        return QueryResult(columns=prepared.output_columns, rows=rows)

    def execute_stream(self, select: ast.Select) -> RowStream:
        """Execute a SELECT as a lazily produced :class:`RowStream`.

        Streamable shapes (see :attr:`PreparedSelect.streamable`) yield their
        first row without materializing the result; barrier shapes (grouping,
        ``ORDER BY``, ``DISTINCT``) materialize internally and replay.
        """
        prepared = self.prepare(select, None)
        return RowStream(columns=prepared.output_columns, rows=prepared.stream(()))

    def prepare(self, select: ast.Select, parent_scope: Optional[Scope]) -> PreparedSelect:
        return PreparedSelect(self, select, parent_scope)

    def function_body_plan(self, function: Function, arg_count: int) -> PreparedSelect:
        # lock-free fast path (dict reads are atomic under the GIL), locked
        # slow path so concurrent sessions agree on one shared plan
        plan = self._function_body_plans.get(function.name.lower())
        if plan is None:
            with self._plans_lock:
                plan = self._function_body_plans.get(function.name.lower())
                if plan is None:
                    parameter_scope = Scope(
                        [(None, f"${position + 1}") for position in range(arg_count)]
                    )
                    plan = self.prepare(function.body, parameter_scope)
                    self._function_body_plans[function.name.lower()] = plan
        return plan

    def invalidate(self) -> None:
        """Drop cached plans after DDL changes the catalog."""
        with self._plans_lock:
            self._function_body_plans.clear()
