"""Query executor: prepared SELECT plans, aggregation, ordering, sub-queries.

:class:`Executor` prepares a :class:`PreparedSelect` per statement — once
per owner when the caller hands it the owner's memo space (a compiled
artifact's or a cluster plan's ``attachments``), else per execution.
Preparation compiles every expression to a batch kernel (see
:mod:`repro.engine.vector`) and plans the joins (see
:mod:`repro.engine.planner`).  A prepared plan runs one way, whether it is
executed or streamed (:meth:`PreparedSelect._produce`): it pulls the joined
rows as one :class:`~repro.engine.vector.RowBatch`, aggregates them if it
groups, and projects in bounded windows — without ``ORDER BY`` or
``DISTINCT`` window by window, so ``LIMIT`` or a consumer that stops early
ends the projection.  A plan holds nothing a run produces: each execution (or
stream) has a :class:`RunState` where uncorrelated sub-plans keep their
result, so that ``x IN (SELECT ...)`` style predicates cost one execution
per run, not one per row, and where inline relations find their rows and
bind parameters their values.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain, count, filterfalse, islice
from operator import add, sub
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from ..errors import ExecutionError, FunctionError
from ..result import OperatorProfile, QueryResult, RowStream
from ..sql import ast
from ..sql.printer import to_sql
from ..sql.transform import find_aggregate_calls, transform_expression
from ..sql.types import sort_key
from .dml import prepare_write
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


class RunState:
    """What one execution (or one stream) keeps of the plans it runs.

    A prepared plan is shared by every execution of its statement, so it
    holds nothing a run produces.  The run's own state lives here for the
    run's duration: the results of uncorrelated sub-plans (``x IN (SELECT
    ...)`` costs one sub-query execution per run, not one per row), the
    rows each inline relation (:class:`~repro.sql.ast.RowsRef`, by alias) is
    bound to and the values of the statement's bind parameters (``?N`` and
    ``$N`` read ``parameters[N - 1]``).  A plan prepared for the run is
    prepared under it: its kernels take their shapes from the types of
    these values, and ``estimated`` collects ``(table, version)`` for each
    table whose row count a join-order choice read (see
    :meth:`Executor._statement_plan`).
    """

    __slots__ = ("rows", "value_sets", "relations", "parameters", "estimated")

    def __init__(
        self,
        relations: Optional[dict[str, Sequence[tuple]]] = None,
        parameters: Sequence[Any] = (),
    ) -> None:
        self.rows: dict[PreparedSelect, list[tuple]] = {}
        self.value_sets: dict[PreparedSelect, ValueSet] = {}
        self.relations = relations or {}
        self.parameters = tuple(parameters)
        self.estimated: list[tuple[Any, int]] = []


#: the run state of the execution in progress on this thread (``None``
#: outside one: each sub-plan run then starts afresh)
_RUN: ContextVar[Optional[RunState]] = ContextVar("engine_run", default=None)


def _within(run: RunState, fn: Callable[..., Any], *args: Any) -> Any:
    """``fn(*args)`` with ``run`` as the current run state."""
    token = _RUN.set(run)
    try:
        return fn(*args)
    finally:
        _RUN.reset(token)


class _Profile:
    """The operator profile of one top-level run, recorded stage by stage.

    A stage's profile carries what happened since the previous stage ended:
    the wall time, the kernel dispatches, the joined rows materialized and
    the build rows hashed — except while it is paused, as a projection is
    while its consumer holds a window, so a stage's seconds are its own.
    """

    __slots__ = ("_stats", "_since", "_paused")

    def __init__(self, stats) -> None:
        self._stats = stats
        self._since = self._mark()
        self._paused: Optional[tuple] = None

    def _mark(self) -> tuple:
        """The stage counters now, in :class:`OperatorProfile` field order
        after ``rows``."""
        stats = self._stats
        _, generic, proven = stats.kernels.snapshot()
        return (
            perf_counter(),
            generic,
            proven,
            stats.join_rows_materialized,
            stats.join_rows_hashed,
        )

    def pause(self) -> None:
        """Stop the current stage's clock and counters."""
        self._paused = self._mark()

    def resume(self) -> None:
        """Run them again: the paused span counts in no stage."""
        paused = map(sub, self._mark(), self._paused)
        self._since, self._paused = tuple(map(add, self._since, paused)), None

    def record(self, operator: str, rows: int, batches: int = 1) -> None:
        """End the current stage as ``operator``'s; the next one starts."""
        now = self._paused or self._mark()
        self._stats.record_operator(
            OperatorProfile(operator, batches, rows, *map(sub, now, self._since))
        )
        self._since, self._paused = now, None


class ExecutionContext:
    """Services available to compiled expressions at run time."""

    def __init__(self, database, executor: "Executor") -> None:
        self.database = database
        self.executor = executor

    # -- functions -----------------------------------------------------------

    def call_function(self, name: str, args: list[Any]) -> Any:
        """Call a scalar function on one row of arguments: a one-row
        :meth:`batch_call_function`, with its dispatch and its counters."""
        return self.batch_call_function(name, [[arg] for arg in args], 1)[0]

    def batch_call_function(self, name: str, columns: list[list], n: int) -> list:
        """Call a scalar function over argument columns (the batch hot path).

        Catalog UDFs under a memoizing profile are *memo-batched*: the
        argument column (the zipped columns, for several arguments) is
        deduplicated with ``dict.fromkeys``, the shared memo in
        :meth:`repro.engine.functions.Function.invoke` is hit once per
        distinct key in first-seen order, and ``map`` scatters the results
        to every occurrence.  Counters stay one call per occurrence — each
        duplicate occurrence is one call that hit the cache, counted in
        bulk — so the UDF-cache ablation counts distinct conversion
        evaluations, not batches.  Non-memoizing profiles (System C cannot
        declare UDFs deterministic) call per row, preserving their per-row
        execution counts.
        """
        catalog = self.database.catalog
        stats = self.database.stats
        if catalog.has_function(name):
            function = catalog.function(name)
            use_cache = self.database.profile.cache_immutable_functions
            if use_cache and function.immutable:
                single = len(columns) == 1
                if single:
                    keys = columns[0]
                elif columns:
                    keys = list(zip(*columns))
                else:  # no argument: every row is the one key ()
                    keys = [()] * n
                memo = dict.fromkeys(keys)
                for key in memo:
                    value, executed = function.invoke(
                        (key,) if single else key, self, use_cache=True
                    )
                    stats.add_udf_call(executed)
                    memo[key] = value
                duplicates = n - len(memo)
                if duplicates:
                    stats.add(udf_calls=duplicates, udf_cache_hits=duplicates)
                return list(map(memo.__getitem__, keys))
            out = []
            for position in range(n):
                args = tuple(column[position] for column in columns)
                value, executed = function.invoke(args, self, use_cache=use_cache)
                stats.add_udf_call(executed)
                out.append(value)
            return out
        builtin = BUILTIN_SCALARS.get(name.lower())
        if builtin is not None:
            if columns:
                return list(map(builtin, *columns))
            return [builtin() for _ in range(n)]
        raise FunctionError(f"unknown function {name!r}")

    def bound_rows(self, alias: str) -> Sequence[tuple]:
        """The rows the current run binds the inline relation ``alias`` to."""
        run = _RUN.get()
        rows = None if run is None else run.relations.get(alias)
        if rows is None:
            raise ExecutionError(f"inline relation {alias!r} is not bound to rows")
        return rows

    def parameter_values(self) -> tuple:
        """The bind values of the run in progress, or being prepared (``()``
        outside one): a parameter's kernel reads its value here per call."""
        run = _RUN.get()
        return () if run is None else run.parameters

    def note_estimates(self, reads: Sequence[tuple[Any, int]]) -> None:
        """Record the ``(table, version)`` row counts a join-order choice of
        the plan being prepared read: they stamp the statement's plan."""
        run = _RUN.get()
        if run is not None:
            run.estimated.extend(reads)

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


def output_name(item: ast.SelectItem) -> str:
    """A result column's name: its alias, a bare column's name, else its SQL
    (the engine's rule; the cluster coordinator names merged results by it)."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.Column):
        return item.expr.name
    return to_sql(item.expr)


class PreparedSelect:
    """A fully compiled SELECT plan, runnable for any outer-row context."""

    def __init__(
        self,
        executor: "Executor",
        select: ast.Select,
        parent_scope: Optional[Scope],
    ) -> None:
        self._context = executor.context
        self._select = select
        self._parent_scope = parent_scope
        self._scopes: list[Scope] = []
        self._children: list[PreparedSelect] = []
        self._compile()
        # names are resolved: a plan kept for many runs (see Executor) holds
        # none of the scopes it resolved them in
        del self._parent_scope, self._scope, self._scopes, self._children

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
        self.output_columns = [output_name(item) for item in items]
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

    # -- execution ----------------------------------------------------------------

    def estimate(self, reads: list) -> int:
        """The pipeline's row estimate (see :meth:`JoinPipeline.estimate`)."""
        return self._pipeline.estimate(reads)

    def run(self, outers: tuple = ()) -> list[tuple]:
        """The plan's rows for ``outers``; an uncorrelated plan runs once
        per run state (see :class:`RunState`)."""
        run = None if self.correlated else _RUN.get()
        if run is not None:
            rows = run.rows.get(self)
            if rows is not None:
                return rows
        chunks = list(self._produce(outers))
        rows = chunks[0] if len(chunks) == 1 else list(chain.from_iterable(chunks))
        if run is not None:
            run.rows[self] = rows
        return rows

    def run_value_set(self, outers: tuple = ()) -> ValueSet:
        """The first column of :meth:`run` as an ``IN`` membership set."""
        run = None if self.correlated else _RUN.get()
        if run is not None:
            value_set = run.value_sets.get(self)
            if value_set is not None:
                return value_set
        values = set()
        has_null = False
        for row in self.run(outers):
            value = row[0]
            if value is None:
                has_null = True
            else:
                values.add(value)
        value_set = ValueSet(values=values, has_null=has_null)
        if run is not None:
            run.value_sets[self] = value_set
        return value_set

    def stream(self, run: RunState):
        """Yield the plan's rows as :meth:`run` computes them, a projected
        window at a time (see :meth:`_produce`): without ``ORDER BY`` or
        ``DISTINCT`` a consumer that stops early never projects the rest.

        The stream owns its :class:`RunState`, current while a window is
        pulled, so streams interleaved on one thread keep their sub-query
        results and parameter values apart.
        """
        chunks = self._produce(())
        try:
            while True:
                chunk = _within(run, next, chunks, None)
                if chunk is None:
                    return
                yield from chunk
        finally:
            chunks.close()

    def _produce(self, outers: tuple):
        """The one way a plan runs: yield its result rows as lists.

        One join pass (:meth:`~repro.engine.planner.JoinPipeline.execute_batch`),
        the post-filters, a grouped plan's aggregation, then one windowed
        projection (:meth:`_project`).  Without ``ORDER BY`` or ``DISTINCT``
        each window's rows are yielded as soon as they are projected and
        ``LIMIT`` stops the projection; otherwise the projected rows are
        deduplicated and sorted, then yielded as one list.

        A top-level plan records one operator profile per stage; a stage's
        seconds are its own time — a projection yielding to its consumer is
        paused until the next window is pulled.
        """
        stats = self._context.database.stats
        stats.add(subquery_runs=1)
        left = self._limit
        if left is not None and left <= 0:
            return
        profile = _Profile(stats) if self._profile_ops else None
        batch = self._pipeline.execute_batch(outers)
        if profile:
            profile.record("scan+join", batch.n)
        if self._post_filters:
            batch = apply_batch_predicates(batch, self._post_filters, outers)
            if profile:
                profile.record("filter", batch.n)
        input_rows = batch.n
        if self._grouped:
            operator, source = "aggregate", RowBatch(self._aggregate(batch, outers))
        else:
            operator, source = "project", batch
        barrier = self._distinct or self._order_fns
        projected: list[tuple[tuple, tuple]] = []
        windows = 0
        try:
            for values, keys in self._project(source, outers):
                windows += 1
                if barrier:
                    projected.extend(zip(values, keys))
                    continue
                if left is not None:
                    values = values[:left]
                    left -= len(values)
                if values:
                    if profile:
                        profile.pause()
                    yield values
                    if profile:
                        profile.resume()
                if left == 0:
                    return
        finally:
            if profile:
                batch_size = self._batch_size
                if not self._grouped:  # the rows projected, up to an early stop
                    input_rows = min(input_rows, windows * batch_size)
                profile.record(operator, input_rows, max(1, -(-input_rows // batch_size)))
        if self._distinct:
            projected = self._deduplicate(projected)
            if profile:
                profile.record("distinct", len(projected))
        if self._order_fns:
            projected = self._order(projected)
            if profile:
                profile.record("order", len(projected))
        if barrier:
            yield [row for row, _ in islice(projected, left)]

    def _project(self, source: RowBatch, outers: tuple):
        """The one projection: per bounded window of ``source`` (the joined
        rows, or a grouped plan's group rows with ``HAVING`` applied per
        window), yield the item rows and their ``ORDER BY`` key rows."""
        batch_size = self._batch_size
        having_fn = self._having_fn
        item_fns = self._item_fns
        order_fns = self._order_fns
        for start in range(0, source.n, batch_size):
            batch = source.window(start, start + batch_size)
            if having_fn is not None:
                batch = apply_batch_predicates(batch, [having_fn], outers)
                if batch.n == 0:
                    yield [], []
                    continue
            values_rows = list(zip(*[fn(batch, outers) for fn in item_fns]))
            if order_fns:
                keys_rows = list(zip(*[fn(batch, outers) for fn, _ in order_fns]))
            else:
                keys_rows = [()] * batch.n
            yield values_rows, keys_rows

    def _aggregate(self, source: RowBatch, outers: tuple) -> list[tuple]:
        """Batch aggregation: hash the keys to dense group ids, fold columns;
        one row per group (its keys, then its aggregates), in first-seen order.

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
        return list(zip(*key_columns, *(state.results() for state in states)))

    @staticmethod
    def _deduplicate(projected: list[tuple[tuple, tuple]]) -> list[tuple[tuple, tuple]]:
        """The first entry of every distinct item row, in first-seen order."""
        unique: dict[tuple, tuple[tuple, tuple]] = {}
        for entry in projected:
            unique.setdefault(entry[0], entry)
        return list(unique.values())

    def _order(self, projected: list[tuple[tuple, tuple]]) -> list[tuple[tuple, tuple]]:
        """Sorted by the ``ORDER BY`` keys: one stable sort per key, last first."""
        for position in range(len(self._order_fns) - 1, -1, -1):
            descending = self._order_fns[position][1]
            projected.sort(key=lambda entry: sort_key(entry[1][position]), reverse=descending)
        return projected


class Executor:
    """Long-lived executor owned by a :class:`repro.engine.database.Database`.

    :meth:`execute` and :meth:`execute_stream` take an optional ``plans``
    mapping, the memo space of whatever owns the statement (a compiled
    artifact's ``attachments``, a cluster plan's), and the run's bind
    ``parameters``: the statement's :class:`PreparedSelect` is stored there
    under this executor, the statement and the types of the values, and
    reused while a fresh prepare would build the same plan (see
    :meth:`_statement_plan`).  The plan dies with its owner; the executor
    keeps no table of statements.
    """

    def __init__(self, database) -> None:
        self.database = database
        self.context = ExecutionContext(database, self)
        self._function_body_plans: dict[str, PreparedSelect] = {}
        self._plans_lock = threading.Lock()
        #: bumped by :meth:`invalidate`: memoized statement plans of an older
        #: generation are prepared again
        self._generation = 0

    def execute(
        self,
        select: ast.Select,
        plans: Optional[dict] = None,
        relations: Optional[dict[str, Sequence[tuple]]] = None,
        parameters: Sequence[Any] = (),
    ) -> QueryResult:
        """Run a SELECT; ``relations`` bind inline relations (by alias) to
        this run's rows, ``parameters`` its ``?N`` / ``$N`` slots to values
        (see :class:`RunState`)."""
        run = RunState(relations, parameters)
        prepared = self._statement_plan(select, plans, run)
        rows = _within(run, prepared.run, ())
        return QueryResult(columns=prepared.output_columns, rows=rows)

    def write(
        self,
        statement: Any,
        plans: Optional[dict] = None,
        parameters: Sequence[Any] = (),
    ) -> int:
        """Run a DML statement under one :class:`RunState` carrying its bind
        ``parameters``; returns its row count.  The statement's uncorrelated
        sub-queries run once, not once per row or per outer row of a
        correlated one.

        Its write plan (:func:`repro.engine.dml.prepare_write`) is kept in
        ``plans``, the memo space of the statement's owner, under this
        executor, the statement and the types of the values, and reused
        until :meth:`invalidate`: a write plan reads no row counts, so the
        catalog generation is its whole stamp.  The entry holds the
        statement, so the ids in its key cannot be reused while it exists.
        """
        run = RunState(parameters=parameters)
        return _within(run, self._write, statement, plans, run)

    def _write(self, statement: Any, plans: Optional[dict], run: RunState) -> int:
        if plans is None:
            self.database.stats.add(write_plans_prepared=1)
            return prepare_write(self.context, statement).run(self.context)
        key = ("engine-write", id(self), id(statement), tuple(map(type, run.parameters)))
        entry = plans.get(key)
        if entry is None or entry[1] != self._generation:
            entry = (prepare_write(self.context, statement), self._generation, statement)
            self.database.stats.add(write_plans_prepared=1)
            plans[key] = entry
        return entry[0].run(self.context)

    def execute_stream(
        self,
        select: ast.Select,
        plans: Optional[dict] = None,
        parameters: Sequence[Any] = (),
    ) -> RowStream:
        """Execute a SELECT as a lazily produced :class:`RowStream`.

        The plan runs as for :meth:`execute` (see
        :meth:`PreparedSelect.stream`): its join is computed in full at the
        first pull, then rows are projected a window at a time; with
        ``ORDER BY`` or ``DISTINCT`` every row is projected before the first
        one is handed out.
        """
        run = RunState(parameters=parameters)
        prepared = self._statement_plan(select, plans, run)
        return RowStream(columns=prepared.output_columns, rows=prepared.stream(run))

    def prepare(self, select: ast.Select, parent_scope: Optional[Scope]) -> PreparedSelect:
        return PreparedSelect(self, select, parent_scope)

    def _statement_plan(
        self, select: ast.Select, plans: Optional[dict], run: RunState
    ) -> PreparedSelect:
        """The statement's plan for ``run``: reused from ``plans`` while
        valid, else prepared under ``run`` (and stored there when ``plans``
        is given).

        Plans are keyed by the statement and the types of the run's
        parameter values, which pick every kernel's shape; the values
        themselves are read when a kernel runs.  An entry is ``(plan,
        tables, stamp)`` and is valid while its stamp holds: the catalog
        generation (DDL calls :meth:`invalidate`) and, only for a plan whose
        join order was chosen on row counts, the statistics version and the
        version of each table a count was read of.  Any other write leaves
        the plan as a fresh prepare would build it — a scan reads its
        table's current version when it runs.  Generation and statistics
        are read before preparing, a table's version when its count is: a
        write that lands meanwhile only makes the next run prepare again.
        The entry holds the statement, so the ids in its key cannot be
        reused while it exists.
        """
        if plans is None:
            self.database.stats.add(plans_prepared=1)
            return _within(run, self.prepare, select, None)
        key = ("engine-plan", id(self), id(select), tuple(map(type, run.parameters)))
        entry = plans.get(key)
        if entry is not None:
            prepared, tables, stamp = entry
            if self._stamp(tables) == stamp:
                return prepared
        generation, statistics = self._generation, self.database.statistics().version
        prepared = _within(run, self.prepare, select, None)
        self.database.stats.add(plans_prepared=1)
        versions: dict = {}
        for table, version in run.estimated:
            versions.setdefault(table, version)  # the first count read
        tables = tuple(versions)
        stamp = (generation, statistics if tables else None, tuple(versions.values()))
        plans[key] = (prepared, tables, stamp)
        return prepared

    def _stamp(self, tables: tuple) -> tuple:
        """What a fresh prepare of a plan whose join orders read the row
        counts of ``tables`` reads: the catalog generation and, if there
        are such tables, the statistics version (refreshed first, as
        preparing would) and each table's version."""
        if not tables:
            return (self._generation, None, ())
        return (
            self._generation,
            self.database.statistics().version,
            tuple(table.data.version for table in tables),
        )

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
                    # under a run of its own: a ``$n`` beyond the body's
                    # arguments reads no value of the calling statement
                    plan = _within(
                        RunState(), self.prepare, function.body, parameter_scope
                    )
                    self._function_body_plans[function.name.lower()] = plan
        return plan

    def invalidate(self) -> None:
        """Drop cached plans after DDL changes the catalog."""
        with self._plans_lock:
            self._function_body_plans.clear()
            self._generation += 1
