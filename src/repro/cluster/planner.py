"""The distributed query planner: choose how a statement runs on a cluster.

The input is a *rewritten* statement — plain SQL, exactly what the MTBase
middleware would send to a single backend.  Because tenant-specific tables
are partitioned by ttid (and global tables replicated), most rewritten
queries decompose into per-shard work plus a cheap coordinator merge.  The
planner picks the cheapest sound strategy:

1. :class:`SingleShardPlan` — the query references no partitioned table, or
   ``D'`` lands on a single shard (the fast path): execute there unchanged.
2. :class:`RowStreamPlan` — a non-aggregate query whose row stream provably
   partitions across shards: the shards stream rows, the coordinator's engine
   runs the merge query that re-applies ``DISTINCT``/``ORDER BY``/``LIMIT``
   over their union.
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
:mod:`repro.compile.analysis` (see its module docstring for the rules), which
the planner runs against its own catalog — the one the owning sharded backend
builds from the DDL it broadcasts, so it knows every table of the cluster,
backend-created meta tables included.  A statement compiled by the middleware
brings the static analyzer's column-provenance map
(``CompiledQuery.facts.column_owners``), which resolves unqualified columns
for the walk; the backend memoizes the plan on the statement's artifact, so
the walk runs once per (statement, shard set, catalog version).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Collection, Optional, Union

from ..compile.analysis import ClusterCatalog, ShardabilityAnalyzer
from ..compile.cost import TablePrefilter, derive_pull_columns, derive_table_prefilters
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
class _Plan:
    """What every plan kind carries besides its strategy."""

    #: memo space for what runs the plan's statements, freed with the plan:
    #: each engine's prepared plan of them (see
    #: :class:`repro.engine.executor.Executor`), the merge query's
    #: inline-relation form
    attachments: dict = field(
        default_factory=dict, repr=False, compare=False, kw_only=True
    )


@dataclass(frozen=True)
class SingleShardPlan(_Plan):
    """Run the statement unchanged on one shard and relay its result."""

    shard: int
    statement: ast.Select

    def describe(self) -> str:
        """One-line plan summary for logs and examples."""
        return f"single-shard(shard={self.shard})"


@dataclass(frozen=True)
class RowStreamPlan(_Plan):
    """Scatter the per-shard stream, run the merge query over their union."""

    shards: tuple[int, ...]
    split: RowStreamSplit
    statement: ast.Select

    def describe(self) -> str:
        """One-line plan summary for logs and examples."""
        return f"row-stream(shards={list(self.shards)})"


@dataclass(frozen=True)
class PartialAggregatePlan(_Plan):
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
class FederatedPlan(_Plan):
    """Pull the referenced base rows into a scratch backend and run there.

    ``tables`` lists the base tables to synchronize; ``None`` means the
    statement references a view or unknown relation, so every known table
    must be pulled.

    The planner decorates a pull of known tables with two reductions (both
    empty when it knows no table's columns):

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


_EVAL_BINARY_OPS = frozenset(
    {"+", "-", "*", "/", "%", "||", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}
)
#: shapes a merge query evaluates whenever their children are evaluable
_EVAL_PASS_THROUGH = (ast.UnaryOp, ast.Case, ast.IsNull, ast.Between, ast.InList)


class ClusterPlanner:
    """Plans rewritten SELECT statements against a partitioning catalog."""

    def __init__(
        self,
        catalog: ClusterCatalog,
        scatter_gather: bool = True,
        functions: Optional[Collection[str]] = None,
        columns_of: Optional[dict] = None,
        statistics_provider=None,
        udf_statements_provider=None,
    ) -> None:
        self.catalog = catalog
        #: when False, every multi-shard query uses the federated strategy
        #: (escape hatch for workloads that break the co-location assumption)
        self.scatter_gather = scatter_gather
        #: lower-cased names of the scalar functions a merge query may call
        #: (shared, mutable: the coordinator adds Python UDFs as they register)
        self.functions = functions if functions is not None else frozenset()
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
        #: plan() calls; gateway sessions plan concurrently, so increments
        #: and :meth:`reset_stats` take ``_stats_lock``
        self.plans = 0
        self._stats_lock = threading.Lock()

    def reset_stats(self) -> None:
        """Zero the plan counter (between benchmark runs)."""
        with self._stats_lock:
            self.plans = 0

    # -- entry point ---------------------------------------------------------

    def plan(
        self,
        select: ast.Select,
        shards: tuple[int, ...],
        column_owners: Optional[dict[int, str]] = None,
    ) -> Plan:
        """Choose the execution strategy for one SELECT over ``shards``.

        The shardability walk runs here, against this planner's catalog.
        ``column_owners`` is the static analyzer's column-provenance map for
        ``select`` (``CompiledQuery.facts.column_owners``): the walk resolves
        unqualified columns through it instead of the any-binding heuristic.
        A bare statement (no compilation) has none.
        """
        analysis = ShardabilityAnalyzer(self.catalog, column_owners).analyze(select)
        with self._stats_lock:
            self.plans += 1

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
        if self.columns_of:
            statistics = (
                self.statistics_provider() if self.statistics_provider else None
            )
            prefilters = derive_table_prefilters(
                select,
                self.catalog,
                self.columns_of,
                statistics=statistics,
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
        Any other node must be of an evaluable shape over evaluable children.
        """
        if expr is None or isinstance(expr, ast.Literal) or to_sql(expr) in texts:
            return True
        if isinstance(expr, ast.Column):
            return expr.table is None and expr.name.lower() in aliases
        if isinstance(expr, ast.BinaryOp):
            shape_ok = expr.op.upper() in _EVAL_BINARY_OPS
        elif isinstance(expr, ast.FunctionCall):
            # non-aggregate scalar call (aggregates were bound by text above):
            # evaluable when the coordinator's engine holds the function
            shape_ok = expr.name.lower() in self.functions
        else:
            shape_ok = isinstance(expr, _EVAL_PASS_THROUGH)
        return shape_ok and all(
            self._evaluable(child, texts, aliases) for child in expr.children()
        )
