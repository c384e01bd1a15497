"""The scatter-gather coordinator: execute a cluster plan and merge results.

Given a :mod:`plan <repro.cluster.planner>` the coordinator

* **scatters** the per-shard query to every shard in the plan (concurrently,
  one worker per shard — shards are independent databases),
* **gathers** the shard results in shard order (so repeated executions are
  deterministic), and
* **merges**: the gathered rows become the input relation of the plan's
  *merge query*, which an engine :class:`~repro.engine.database.Database`
  owned by the coordinator executes.  For partial aggregates that query is
  the outer half of the paper's aggregation distribution (§4.2.2), so
  re-aggregation, ``HAVING``, projection, ``ORDER BY`` and ``LIMIT`` are the
  engine's own; for row streams it re-applies ``DISTINCT`` / ``ORDER BY`` /
  ``LIMIT`` over the union the same way (a row stream with none of them has
  no merge query: the union is the answer).

Engine plans live on the cluster plan (``plan.attachments``): every shard
is sent the statement through ``execute_scoped`` with the plan as its
owner (``compiled=plan``), so an engine shard prepares the shard statement
once per plan; the merge engine prepares the merge query once per plan, its
input an inline relation each run binds to its own gathered rows.  Bind
parameters travel as values, to the shards and into the merge run, so a
parameterized execution reuses the same plans (one per value types).

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
from ..engine.executor import output_name
from ..engine.functions import BUILTIN_SCALARS
from ..result import QueryResult
from ..sql import ast
from ..sql.transform import MERGE_RELATION
from .planner import PartialAggregatePlan, Plan, RowStreamPlan, SingleShardPlan


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
            return self._query_shard(plan.shard, plan.statement, parameters, plan)
        return self._merge(plan, parameters)

    def close(self) -> None:
        """Shut the scatter worker pool down (the shards are closed elsewhere)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    # -- scatter -------------------------------------------------------------

    def _query_shard(
        self,
        shard: int,
        statement: ast.Select,
        parameters: Optional[Sequence[Any]],
        owner: Plan,
    ) -> QueryResult:
        """Run ``statement`` on one shard; ``owner`` (the cluster plan that
        holds the statement) keeps the shard's plan of it in its
        ``attachments``."""
        return self._shards[shard].execute_scoped(
            statement, parameters=parameters, compiled=owner
        )

    def _scatter(
        self,
        statement: ast.Select,
        shard_ids: tuple[int, ...],
        parameters: Optional[Sequence[Any]],
        owner: Plan,
    ) -> list[QueryResult]:
        """Execute one statement on several shards, results in shard order."""
        if len(shard_ids) == 1:
            return [self._query_shard(shard_ids[0], statement, parameters, owner)]
        pool = self._ensure_pool()
        futures = [
            pool.submit(self._query_shard, shard, statement, parameters, owner)
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

    # -- gather ----------------------------------------------------------------

    def _merge(
        self,
        plan: Union[RowStreamPlan, PartialAggregatePlan],
        parameters: Optional[Sequence[Any]],
    ) -> QueryResult:
        """Scatter the shard query, then run the merge query over the union."""
        split = plan.split
        results = self._scatter(split.shard_query, plan.shards, parameters, plan)
        # shard order, then each shard's row order: the merge query's SUMs add
        # (and its stable sorts break ties) in this order, which keeps results
        # reproducible
        gathered: list[tuple] = []
        for result in results:
            gathered.extend(result.rows)
        columns = [output_name(item) for item in plan.statement.items]
        if split.merge_query is None:  # a plain row stream: the union is the answer
            return QueryResult(columns=columns, rows=gathered)
        query = plan.attachments.get("merge-query")
        if query is None:
            query = copy.copy(split.merge_query)
            query.from_items = [
                ast.RowsRef(
                    columns=tuple(item.alias for item in split.shard_query.items),
                    alias=MERGE_RELATION,
                )
            ]
            # racing first runs agree on one query, so on one memoized plan
            query = plan.attachments.setdefault("merge-query", query)
        merged = self.merge_database.query(
            query,
            plans=plan.attachments,
            relations={MERGE_RELATION: gathered},
            parameters=parameters or (),
        )
        return QueryResult(columns=columns, rows=merged.rows)

