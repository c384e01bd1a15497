"""The distributed query planner: choose how a statement runs on a cluster.

The input is a *rewritten* statement — plain SQL, exactly what the MTBase
middleware would send to a single backend.  Because tenant-specific tables
are partitioned by ttid (and global tables replicated), most rewritten
queries decompose into per-shard work plus a cheap coordinator merge.  The
planner picks the cheapest sound strategy:

1. :class:`SingleShardPlan` — the query references no partitioned table, or
   ``D'`` lands on a single shard (the fast path): execute there unchanged.
2. :class:`RowStreamPlan` — a non-aggregate query whose row stream provably
   partitions across shards: plain UNION of the shard streams, with
   ``ORDER BY``/``LIMIT``/``DISTINCT`` re-applied by the coordinator.
3. :class:`PartialAggregatePlan` — an aggregate query over a partitioned row
   stream: shards compute partial aggregates per group (``SUM``/``COUNT``/
   ``MIN``/``MAX``, ``AVG`` as ``SUM``÷``COUNT``), the coordinator's engine
   runs the merge query that re-aggregates and re-applies ``HAVING``/
   ``ORDER BY``/``LIMIT``.
4. :class:`FederatedPlan` — everything else: the coordinator pulls the
   referenced base rows into a scratch backend and executes the original
   query there.  Slow but always correct; it is the safety net that makes
   the planner's static analysis allowed to be conservative.

**Soundness** of strategies 2 and 3 is proven by the shardability analysis in
:mod:`repro.compile.analysis` (see its module docstring for the rules).  The
analysis runs *once per statement*: when the statement arrives from the
middleware it carries a precomputed
:class:`~repro.compile.analysis.QueryAnalysis` inside its
:class:`~repro.compile.artifact.CompiledQuery`, and the planner consumes that
artifact instead of re-walking the AST (``stats.analyses_reused`` vs.
``stats.analyses_recomputed`` counts both paths).  Bare statements — direct
``backend.execute()`` calls that never went through the compiler — fall back
to the planner's own :class:`~repro.compile.analysis.ShardabilityAnalyzer`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Collection, Optional, Union

# Re-exported for backward compatibility: the partitioning catalog moved to
# repro.compile.analysis so the compiler and the planner share one analysis.
from ..compile.analysis import (  # noqa: F401  (ClusterCatalog/PartitionInfo re-export)
    ClusterCatalog,
    PartitionInfo,
    QueryAnalysis,
    ShardabilityAnalyzer,
)
from ..compile.cost import (
    CostConfig,
    TablePrefilter,
    derive_pull_columns,
    derive_table_prefilters,
)
from ..errors import SplitError
from ..sql import ast
from ..sql.printer import to_sql
from ..sql.transform import (
    AggregateSplit,
    RowStreamSplit,
    split_partial_aggregates,
    split_row_stream,
)

# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleShardPlan:
    """Run the statement unchanged on one shard and relay its result."""

    shard: int
    statement: ast.Select

    def describe(self) -> str:
        """One-line plan summary for logs and examples."""
        return f"single-shard(shard={self.shard})"


@dataclass(frozen=True)
class RowStreamPlan:
    """Scatter the per-shard stream, gather by UNION + re-sort at the top."""

    shards: tuple[int, ...]
    split: RowStreamSplit
    statement: ast.Select

    def describe(self) -> str:
        """One-line plan summary for logs and examples."""
        return f"row-stream(shards={list(self.shards)})"


@dataclass(frozen=True)
class PartialAggregatePlan:
    """Scatter partial aggregates, run the merge query at the coordinator."""

    shards: tuple[int, ...]
    split: AggregateSplit
    statement: ast.Select

    def describe(self) -> str:
        """One-line plan summary for logs and examples."""
        return (
            f"partial-aggregate(shards={list(self.shards)}, "
            f"partials={len(self.split.aggregate_texts)})"
        )


@dataclass(frozen=True)
class FederatedPlan:
    """Pull the referenced base rows into a scratch backend and run there.

    ``tables`` lists the base tables to synchronize; ``None`` means the
    statement references a view or unknown relation, so every known table
    must be pulled.

    The costed planner decorates the pull with two reductions (both empty in
    uncosted mode, restoring the historic pull-everything behavior):

    * ``prefilters`` — per-table predicates proven sound for *every*
      occurrence of the table in the statement
      (:func:`repro.compile.cost.derive_table_prefilters`), evaluated by the
      shards at pull time so fewer rows ship;
    * ``pull_columns`` — per-table column subsets covering every column the
      statement (and the registered SQL UDF bodies) can reference, so
      narrower rows ship.
    """

    statement: ast.Select
    tables: Optional[tuple[str, ...]]
    prefilters: tuple[TablePrefilter, ...] = ()
    pull_columns: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def describe(self) -> str:
        """One-line plan summary for logs and examples."""
        pulled = "all" if self.tables is None else list(self.tables)
        parts = [f"tables={pulled}"]
        if self.prefilters:
            summary = ", ".join(prefilter.describe() for prefilter in self.prefilters)
            parts.append(f"prefilter=[{summary}]")
        if self.pull_columns:
            narrowed = ", ".join(
                f"{table}:{len(columns)}" for table, columns in self.pull_columns
            )
            parts.append(f"columns=[{narrowed}]")
        return f"federated({', '.join(parts)})"


Plan = Union[SingleShardPlan, RowStreamPlan, PartialAggregatePlan, FederatedPlan]


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


@dataclass
class PlannerStats:
    """Planner counters, read by the compile-once acceptance tests."""

    #: total plan() calls
    plans: int = 0
    #: statements planned from a precomputed CompiledQuery analysis
    analyses_reused: int = 0
    #: bare statements whose analysis the planner had to run itself
    analyses_recomputed: int = 0

    def reset(self) -> None:
        """Zero the counters."""
        self.plans = 0
        self.analyses_reused = 0
        self.analyses_recomputed = 0


_EVAL_BINARY_OPS = frozenset(
    {"+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}
)


class ClusterPlanner:
    """Plans rewritten SELECT statements against a partitioning catalog."""

    def __init__(
        self,
        catalog: ClusterCatalog,
        scatter_gather: bool = True,
        functions: Optional[Collection[str]] = None,
        cost: Optional[CostConfig] = None,
        columns_of: Optional[dict] = None,
        statistics_provider=None,
        udf_statements_provider=None,
    ) -> None:
        self.catalog = catalog
        #: the shared shardability analysis, run only for bare statements
        self.analyzer = ShardabilityAnalyzer(catalog)
        #: when False, every multi-shard query uses the federated strategy
        #: (escape hatch for workloads that break the co-location assumption)
        self.scatter_gather = scatter_gather
        #: lower-cased names of the scalar functions a merge query may call
        #: (shared, mutable: the coordinator adds Python UDFs as they register)
        self.functions = functions if functions is not None else frozenset()
        #: cost-model configuration gating the federated pushdown derivation
        self.cost = cost if cost is not None else CostConfig.from_env()
        #: table → ordered column names (shared, mutable: the owning
        #: connection records every CREATE TABLE); empty disables pushdown
        self.columns_of = columns_of if columns_of is not None else {}
        #: zero-argument callable returning the cluster's merged
        #: StatisticsCatalog (or None), consulted per federated plan
        self.statistics_provider = statistics_provider
        #: zero-argument callable returning the parsed SELECT bodies of the
        #: registered SQL UDFs — their column references must survive
        #: projection pushdown because pull-time prefilters may call them
        self.udf_statements_provider = udf_statements_provider
        #: analysis reuse counters (gateway sessions plan concurrently)
        self.stats = PlannerStats()
        self._stats_lock = threading.Lock()

    def reset_stats(self) -> None:
        """Zero the planner counters, under the same lock the increments take."""
        with self._stats_lock:
            self.stats.reset()

    # -- entry point ---------------------------------------------------------

    def plan(
        self,
        select: ast.Select,
        shards: tuple[int, ...],
        analysis: Optional[QueryAnalysis] = None,
        column_owners: Optional[dict[int, str]] = None,
    ) -> Plan:
        """Choose the execution strategy for one SELECT over ``shards``.

        ``analysis`` is the statement's precomputed shardability analysis
        (``CompiledQuery.analysis``); when given, the planner performs no AST
        walk of its own.  Exception: the compiler's catalog may not know
        tables created behind the middleware's back (backend-level meta
        tables) — if any name it reported unknown is a relation of *this*
        cluster, the precomputed verdicts (``partition_safe`` above all) are
        stale-conservative, so the planner re-analyses against its own
        catalog rather than silently downgrade scatter-gather to federated.

        ``column_owners`` is the static analyzer's column-provenance map for
        ``select`` (``CompiledQuery.facts.column_owners``): when the planner
        does have to re-analyse, the walk resolves unqualified columns
        through it instead of the any-binding heuristic.
        """
        if analysis is not None and set(analysis.unknown) & self.catalog.relations:
            analysis = None  # compiled against a catalog missing our tables
        reused = analysis is not None
        if analysis is None:
            if column_owners:
                analysis = ShardabilityAnalyzer(
                    self.catalog, column_owners=column_owners
                ).analyze(select)
            else:
                analysis = self.analyzer.analyze(select)
        with self._stats_lock:
            self.stats.plans += 1
            if reused:
                self.stats.analyses_reused += 1
            else:
                self.stats.analyses_recomputed += 1

        partitioned = set(analysis.partitioned)
        unknown = set(analysis.unknown)
        known = set(analysis.known)

        if not partitioned and not (unknown & self.catalog.views):
            # global tables are replicated: any single shard answers; unknown
            # non-view relations will raise the backend's own catalog error
            return SingleShardPlan(shard=shards[0], statement=select)
        if len(shards) == 1:
            return SingleShardPlan(shard=shards[0], statement=select)
        if unknown:
            # a view (or a relation this connection never saw DDL for) hides
            # its base tables: pull everything and execute federated
            return FederatedPlan(statement=select, tables=None)
        if not self.scatter_gather:
            return self._federated(select, known)

        if not analysis.partition_safe:
            return self._federated(select, known)
        if analysis.has_aggregation:
            plan = self._plan_partial_aggregate(select, shards)
        else:
            plan = self._plan_row_stream(select, shards)
        return plan if plan is not None else self._federated(select, known)

    def _federated(self, select: ast.Select, tables: set[str]) -> FederatedPlan:
        prefilters: tuple[TablePrefilter, ...] = ()
        pull_columns: tuple[tuple[str, tuple[str, ...]], ...] = ()
        if self.cost.enabled and self.columns_of:
            statistics = (
                self.statistics_provider() if self.statistics_provider else None
            )
            prefilters = derive_table_prefilters(
                select,
                self.catalog,
                self.columns_of,
                statistics=statistics,
                config=self.cost,
            )
            statements = [select]
            if self.udf_statements_provider is not None:
                statements.extend(self.udf_statements_provider())
            always_keep = {
                table: (info.ttid_column,)
                for table, info in self.catalog.partitioned.items()
            }
            pulls = derive_pull_columns(
                statements, self.columns_of, always_keep=always_keep
            )
            if pulls:
                pull_columns = tuple(sorted(pulls.items()))
        return FederatedPlan(
            statement=select,
            tables=tuple(sorted(tables)),
            prefilters=prefilters,
            pull_columns=pull_columns,
        )

    # -- scatter-gather strategies -------------------------------------------

    def _plan_row_stream(
        self, select: ast.Select, shards: tuple[int, ...]
    ) -> Optional[RowStreamPlan]:
        try:
            split = split_row_stream(select)
        except SplitError:
            return None
        return RowStreamPlan(shards=shards, split=split, statement=select)

    def _plan_partial_aggregate(
        self, select: ast.Select, shards: tuple[int, ...]
    ) -> Optional[PartialAggregatePlan]:
        try:
            split = split_partial_aggregates(select)
        except SplitError:
            return None
        texts = set(split.key_texts) | set(split.aggregate_texts)
        aliases = {
            item.alias.lower() for item in select.items if item.alias is not None
        }
        for item in select.items:
            if not self._evaluable(item.expr, texts, frozenset()):
                return None
        if not self._evaluable(select.having, texts, aliases):
            return None
        for order in select.order_by:
            if not self._evaluable(order.expr, texts, aliases):
                return None
        return PartialAggregatePlan(shards=shards, split=split, statement=select)

    def _evaluable(
        self,
        expr: Optional[ast.Expression],
        texts: set[str],
        aliases: frozenset[str],
    ) -> bool:
        """Whether ``expr`` may appear in a merge query.

        The one whitelist of residual shapes: ``texts`` (group keys and
        aggregate calls) become columns and combine forms of the merge
        query, ``aliases`` are the SELECT aliases visible at this position.
        """
        if expr is None:
            return True
        if to_sql(expr) in texts:
            return True
        if isinstance(expr, ast.Column):
            return expr.table is None and expr.name.lower() in aliases
        if isinstance(expr, ast.Literal):
            return True
        if isinstance(expr, ast.BinaryOp):
            return (
                expr.op.upper() in _EVAL_BINARY_OPS
                and self._evaluable(expr.left, texts, aliases)
                and self._evaluable(expr.right, texts, aliases)
            )
        if isinstance(expr, ast.UnaryOp):
            return self._evaluable(expr.operand, texts, aliases)
        if isinstance(expr, ast.Case):
            return all(
                self._evaluable(when.condition, texts, aliases)
                and self._evaluable(when.result, texts, aliases)
                for when in expr.whens
            ) and self._evaluable(expr.else_result, texts, aliases)
        if isinstance(expr, ast.IsNull):
            return self._evaluable(expr.expr, texts, aliases)
        if isinstance(expr, ast.Between):
            return (
                self._evaluable(expr.expr, texts, aliases)
                and self._evaluable(expr.low, texts, aliases)
                and self._evaluable(expr.high, texts, aliases)
            )
        if isinstance(expr, ast.InList):
            return self._evaluable(expr.expr, texts, aliases) and all(
                self._evaluable(item, texts, aliases) for item in expr.items
            )
        if isinstance(expr, ast.FunctionCall):
            # non-aggregate scalar call (aggregates were bound by text above):
            # evaluable when the coordinator's engine holds the function
            return expr.name.lower() in self.functions and all(
                self._evaluable(argument, texts, aliases) for argument in expr.args
            )
        return False
