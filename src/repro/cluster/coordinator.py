"""The scatter-gather coordinator: execute a cluster plan and merge results.

Given a :mod:`plan <repro.cluster.planner>` the coordinator

* **scatters** the per-shard query to every shard in the plan (concurrently,
  one worker per shard — shards are independent databases),
* **gathers** the shard results in shard order (so repeated executions are
  deterministic), and
* **merges**: row streams are concatenated and have ``DISTINCT`` / ``ORDER
  BY`` / ``LIMIT`` re-applied (:mod:`repro.cluster.merge`); partial
  aggregates become the input relation of the plan's *merge query* — the
  outer half of the paper's aggregation distribution (§4.2.2) — which an
  engine :class:`~repro.engine.database.Database` owned by the coordinator
  executes, so re-aggregation, ``HAVING``, projection, ``ORDER BY`` and
  ``LIMIT`` are the engine's own.

Federated plans are *not* handled here — they need the owning
:class:`~repro.backends.sharded.ShardedConnection`'s scratch backend and are
executed there.
"""

from __future__ import annotations

import copy
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence, Union

from ..engine.database import Database
from ..engine.functions import BUILTIN_SCALARS
from ..result import QueryResult
from ..sql import ast
from ..sql.params import bind_parameters
from ..sql.printer import to_sql
from ..sql.transform import MERGE_RELATION
from .merge import distinct_rows, sort_rows
from .planner import PartialAggregatePlan, RowStreamPlan, SingleShardPlan


class ShardCoordinator:
    """Executes single-shard and scatter-gather plans over shard connections.

    ``functions`` are Python scalar UDFs (name → callable) merge queries may
    call, next to the engine builtins; :meth:`register_python_function` adds
    more later.
    """

    def __init__(
        self,
        shards: Sequence[Any],
        functions: Optional[dict[str, Callable[..., Any]]] = None,
    ) -> None:
        self._shards = list(shards)
        #: the engine that runs merge queries.  It holds no tables (each
        #: query brings its rows inline) and is not a shard: its statement,
        #: UDF and kernel counters stay out of the cluster's execution stats.
        #: Its inline rows carry no typed payloads, so every merge runs the
        #: generic kernels.
        self.merge_database = Database()
        #: lower-cased names of the scalar functions a merge query may call;
        #: the cluster planner's evaluability check shares this set
        self.functions: set[str] = set(BUILTIN_SCALARS)
        for name, fn in (functions or {}).items():
            self.register_python_function(name, fn)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def register_python_function(self, name: str, fn: Callable[..., Any]) -> None:
        """Make a Python scalar UDF callable from merge queries.

        Registered non-immutable: the handful of merged rows needs no memo,
        so there is no cache to invalidate when the UDF's inputs change.
        """
        self.merge_database.register_python_function(name, fn)
        self.functions.add(name.lower())

    # -- plan execution ------------------------------------------------------

    def execute(
        self,
        plan: Union[SingleShardPlan, RowStreamPlan, PartialAggregatePlan],
        parameters: Optional[Sequence[Any]] = None,
    ) -> QueryResult:
        """Run one plan and return the merged :class:`QueryResult`."""
        if isinstance(plan, SingleShardPlan):
            return self._shards[plan.shard].query(plan.statement, parameters=parameters)
        if isinstance(plan, RowStreamPlan):
            return self._execute_row_stream(plan, parameters)
        return self._execute_partial_aggregate(plan, parameters)

    def close(self) -> None:
        """Shut the scatter worker pool down (the shards are closed elsewhere)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    # -- scatter -------------------------------------------------------------

    def _scatter(
        self,
        statement: ast.Select,
        shard_ids: tuple[int, ...],
        parameters: Optional[Sequence[Any]],
    ) -> list[QueryResult]:
        """Execute one statement on several shards, results in shard order."""
        if len(shard_ids) == 1:
            return [self._shards[shard_ids[0]].query(statement, parameters=parameters)]
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._shards[shard].query, statement, parameters=parameters)
            for shard in shard_ids
        ]
        return [future.result() for future in futures]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(2, len(self._shards)),
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    # -- gather: row streams -------------------------------------------------

    def _execute_row_stream(
        self, plan: RowStreamPlan, parameters: Optional[Sequence[Any]]
    ) -> QueryResult:
        split = plan.split
        results = self._scatter(split.shard_query, plan.shards, parameters)
        rows: list[tuple] = []
        for result in results:
            rows.extend(result.rows)
        if split.distinct:
            # per-shard DISTINCT leaves cross-shard duplicates; drop them the
            # way the engine does (first occurrence wins) before ordering
            rows = distinct_rows(rows)
        rows = sort_rows(rows, split.sort_columns)
        if split.limit is not None:
            rows = rows[: split.limit]
        if split.visible_width < len(split.shard_query.items):
            rows = [row[: split.visible_width] for row in rows]
        columns = [_output_name(item) for item in plan.statement.items]
        return QueryResult(columns=columns, rows=rows)

    # -- gather: partial aggregates ------------------------------------------

    def _execute_partial_aggregate(
        self, plan: PartialAggregatePlan, parameters: Optional[Sequence[Any]]
    ) -> QueryResult:
        split = plan.split
        results = self._scatter(split.shard_query, plan.shards, parameters)
        # shard order, then each shard's row order: the merge query's SUMs add
        # in this order, which keeps float results reproducible
        gathered: list[tuple] = []
        for result in results:
            gathered.extend(result.rows)
        query = copy.copy(split.merge_query)
        query.from_items = [
            ast.RowsRef(
                columns=tuple(item.alias for item in split.shard_query.items),
                rows=gathered,
                alias=MERGE_RELATION,
            )
        ]
        if parameters:
            query = bind_parameters(query, parameters)
        merged = self.merge_database.query(query)
        columns = [_output_name(item) for item in plan.statement.items]
        return QueryResult(columns=columns, rows=merged.rows)


def _output_name(item: ast.SelectItem) -> str:
    """Result-column naming, matching the engine's convention."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.Column):
        return item.expr.name
    return to_sql(item.expr)
