"""Static shardability / tenant-local-key analysis of rewritten queries.

One statement, one analysis: :class:`ShardabilityAnalyzer` walks a rewritten
(plain-SQL) ``SELECT`` once against a :class:`ClusterCatalog` of partitioning
facts and produces a :class:`QueryAnalysis` — the verdict the distributed
planner (:mod:`repro.cluster.planner`) chooses a strategy from.  The catalog
is the cluster's own: a sharded backend records every relation from the DDL
it broadcasts and every partitioned table (its ttid column plus ``SPECIFIC``
attributes as tenant-local keys) from the middleware's registration hook, so
tables created behind the middleware's back are known too.  The planner runs
the analyzer once per (compiled statement, shard set, catalog version); the
plan memo on the statement's artifact makes a repeat execution skip it.

**Soundness.**  The scatter-gather strategies require that every
pre-aggregation row is produced by exactly one shard.  The analyzer proves
this from the catalog: a FROM clause is *anchored* when it joins at least one
partitioned table (or a shard-local derived table) and global tables;
sub-queries must be *shard-local* — either global-only, or grouped/DISTINCT
on a tenant-specific key column, whose groups therefore never span shards.
Joins between two partitioned tables are assumed co-located (MTBase extends
global referential integrity with the ttid, Appendix A.1); queries that join
partitioned rows of *different* tenants on non-key attributes must disable
scatter-gather (see :class:`repro.backends.sharded.ShardedBackend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sql import ast
from ..sql.transform import (
    iter_select_expressions,
    referenced_table_names,
    select_aggregate_calls,
    walk_expression,
)

# ---------------------------------------------------------------------------
# Partitioning catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionInfo:
    """How one table is partitioned across a cluster.

    ``local_keys`` are the lower-cased columns whose values never span
    tenants — the ttid column itself plus the table's tenant-specific (MTSQL
    ``SPECIFIC``) attributes.  Grouping by any of them keeps every group on a
    single shard, which is what makes nested aggregation decomposable.
    """

    table: str
    ttid_column: str
    local_keys: frozenset[str] = frozenset()

    @property
    def key(self) -> str:
        """Lower-cased catalog key."""
        return self.table.lower()

    def all_local_keys(self) -> frozenset[str]:
        """The local keys including the ttid column itself."""
        return self.local_keys | {self.ttid_column.lower()}


@dataclass
class ClusterCatalog:
    """The partitioning facts one analysis runs against.

    A sharded backend maintains one from the DDL it broadcasts.  ``version``
    is bumped by every mutator, so consumers that memoize per-catalog
    artifacts (the sharded backend's per-statement plan cache) can detect
    staleness cheaply.
    """

    #: partitioned tables by lower-cased name
    partitioned: dict[str, PartitionInfo] = field(default_factory=dict)
    #: every base table created on the cluster (lower-cased)
    relations: set[str] = field(default_factory=set)
    #: every view created on the cluster (lower-cased)
    views: set[str] = field(default_factory=set)
    #: bumped on every mutation (plan-memo staleness token)
    version: int = 0

    # -- queries --------------------------------------------------------------

    def is_partitioned(self, name: str) -> bool:
        """Whether ``name`` is a tenant-partitioned base table."""
        return name.lower() in self.partitioned

    def is_replicated_table(self, name: str) -> bool:
        """Whether ``name`` is a known base table replicated on every shard."""
        lowered = name.lower()
        return lowered in self.relations and lowered not in self.partitioned

    # -- mutators (bump the version) -------------------------------------------

    def add_relation(self, name: str) -> None:
        """Record a base table."""
        self.relations.add(name.lower())
        self.version += 1

    def drop_relation(self, name: str) -> None:
        """Forget a base table (and its partitioning, if any)."""
        lowered = name.lower()
        self.relations.discard(lowered)
        self.partitioned.pop(lowered, None)
        self.version += 1

    def add_view(self, name: str) -> None:
        """Record a view."""
        self.views.add(name.lower())
        self.version += 1

    def drop_view(self, name: str) -> None:
        """Forget a view."""
        self.views.discard(name.lower())
        self.version += 1

    def set_partitioned(self, info: PartitionInfo) -> None:
        """Record (or update) the partitioning of one table."""
        self.partitioned[info.key] = info
        self.version += 1


# ---------------------------------------------------------------------------
# Analysis artifacts
# ---------------------------------------------------------------------------


@dataclass
class StreamInfo:
    """Result of analysing one SELECT's FROM/WHERE row stream.

    ``ok`` — every FROM item and nested sub-query is shard-local by the rules
    above; ``anchored`` — the stream joins at least one partitioned source
    (an un-anchored stream is replicated, not partitioned); ``bindings`` maps
    each FROM binding to its tenant-local key columns.
    """

    ok: bool
    anchored: bool
    bindings: dict[str, frozenset[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class QueryAnalysis:
    """The per-statement shardability verdict the cluster planner reads.

    All table names are lower-cased.  ``partition_safe`` is the headline
    verdict: the statement's pre-aggregation rows provably partition across
    shards (``StreamInfo.ok and StreamInfo.anchored``), so the decomposed
    scatter-gather strategies are sound.  ``local_keys`` is the tenant-local
    key analysis of the top-level FROM bindings (binding name → columns whose
    values never span tenants).
    """

    #: every relation name the statement references
    tables: tuple[str, ...]
    #: referenced names present in the catalog's relations
    known: tuple[str, ...]
    #: referenced tenant-partitioned tables
    partitioned: tuple[str, ...]
    #: referenced names absent from the catalog's relations — views resolve
    #: here (consumers decide view-ness against their own catalog's views)
    unknown: tuple[str, ...]
    #: pre-aggregation rows provably partition by shard
    partition_safe: bool
    #: the statement aggregates (GROUP BY or aggregate calls)
    has_aggregation: bool
    #: tenant-local key columns per top-level FROM binding
    local_keys: dict[str, frozenset[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------


class ShardabilityAnalyzer:
    """Analyses rewritten SELECT statements against a partitioning catalog.

    ``column_owners`` is the static analyzer's provenance map (``id(Column
    node) -> owning FROM binding``, see :mod:`repro.compile.typecheck`): when
    provided, unqualified column references resolve through it instead of the
    any-binding heuristic, so a column name shared by a partitioned and a
    replicated table is attributed to the binding that actually owns it.
    """

    def __init__(
        self,
        catalog: ClusterCatalog,
        column_owners: Optional[dict[int, str]] = None,
    ) -> None:
        self.catalog = catalog
        self.column_owners = column_owners or {}

    # -- entry points ----------------------------------------------------------

    def analyze(self, select: ast.Select) -> QueryAnalysis:
        """One full walk of ``select``, summarized as a :class:`QueryAnalysis`."""
        tables = referenced_table_names(select)
        known = {name for name in tables if name in self.catalog.relations}
        unknown = tables - known
        partitioned = {name for name in tables if name in self.catalog.partitioned}
        info = self.stream_info(select)
        has_aggregation = bool(select.group_by) or bool(select_aggregate_calls(select))
        return QueryAnalysis(
            tables=tuple(sorted(tables)),
            known=tuple(sorted(known)),
            partitioned=tuple(sorted(partitioned)),
            unknown=tuple(sorted(unknown)),
            partition_safe=info.ok and info.anchored,
            has_aggregation=has_aggregation,
            local_keys=dict(info.bindings),
        )

    def stream_info(self, select: ast.Select) -> StreamInfo:
        """Analyse whether a SELECT's pre-aggregation rows partition by shard."""
        bindings: dict[str, frozenset[str]] = {}
        anchored = False
        for item in select.from_items:
            item_ok, item_anchored = self._from_item_info(item, bindings)
            if not item_ok:
                return StreamInfo(ok=False, anchored=False)
            anchored = anchored or item_anchored
        for expr in iter_select_expressions(select):
            if not self._expression_subqueries_ok(expr, bindings):
                return StreamInfo(ok=False, anchored=False)
        return StreamInfo(ok=True, anchored=anchored, bindings=bindings)

    # -- row-partitioning analysis -------------------------------------------

    def _from_item_info(
        self, item: ast.FromItem, bindings: dict[str, frozenset[str]]
    ) -> tuple[bool, bool]:
        """Register a FROM item's bindings; returns ``(ok, anchored)``."""
        if isinstance(item, ast.TableRef):
            lowered = item.name.lower()
            binding = (item.alias or item.name).lower()
            if lowered in self.catalog.partitioned:
                bindings[binding] = self.catalog.partitioned[lowered].all_local_keys()
                return True, True
            if self.catalog.is_replicated_table(lowered):
                bindings[binding] = frozenset()
                return True, False
            return False, False  # view / unknown relation
        if isinstance(item, ast.SubqueryRef):
            shape, local_out = self._select_shape(item.query)
            if shape == "opaque":
                return False, False
            bindings[item.alias.lower()] = local_out
            return True, shape in ("stream", "grouped")
        if isinstance(item, ast.Join):
            left_ok, left_anchored = self._from_item_info(item.left, bindings)
            right_ok, right_anchored = self._from_item_info(item.right, bindings)
            if not (left_ok and right_ok):
                return False, False
            if item.join_type is ast.JoinType.LEFT and right_anchored and not left_anchored:
                # a replicated left side would be NULL-extended on every
                # shard, duplicating its rows across the union
                return False, False
            return True, left_anchored or right_anchored
        return False, False

    def _select_shape(self, select: ast.Select) -> tuple[str, frozenset[str]]:
        """Classify a sub-query: ``global`` (replicated result), ``stream`` /
        ``grouped`` (result rows partition by shard) or ``opaque``."""
        tables = referenced_table_names(select)
        if any(name not in self.catalog.relations for name in tables):
            return "opaque", frozenset()
        if not any(name in self.catalog.partitioned for name in tables):
            return "global", frozenset()

        info = self.stream_info(select)
        if not info.ok or not info.anchored:
            return "opaque", frozenset()
        if select.limit is not None:
            # a per-shard LIMIT is not the global LIMIT
            return "opaque", frozenset()

        aggregates = select_aggregate_calls(select)
        if select.group_by:
            if not any(
                self._is_local_key(expr, info.bindings) for expr in select.group_by
            ):
                return "opaque", frozenset()
            shape = "grouped"
        elif aggregates:
            return "opaque", frozenset()  # a global aggregate needs all shards
        elif select.distinct:
            if not any(
                self._is_local_key(item.expr, info.bindings) for item in select.items
            ):
                return "opaque", frozenset()
            shape = "grouped"
        else:
            shape = "stream"
        return shape, self._local_output_keys(select, info.bindings)

    def _local_output_keys(
        self, select: ast.Select, bindings: dict[str, frozenset[str]]
    ) -> frozenset[str]:
        """Output columns of a sub-query that pass a local key through."""
        keys = set()
        for item in select.items:
            if self._is_local_key(item.expr, bindings):
                name = item.alias or item.expr.name  # type: ignore[union-attr]
                keys.add(name.lower())
        return frozenset(keys)

    def _is_local_key(
        self, expr: ast.Expression, bindings: dict[str, frozenset[str]]
    ) -> bool:
        """Whether an expression is a column whose values never span shards."""
        if not isinstance(expr, ast.Column):
            return False
        name = expr.name.lower()
        if expr.table is not None:
            return name in bindings.get(expr.table.lower(), frozenset())
        owner = self.column_owners.get(id(expr))
        if owner is not None:
            # provenance proven by the static analyzer: resolve against the
            # owning binding only (it may not appear in ``bindings`` when the
            # owner is a sibling level's binding — then the key is not local)
            return name in bindings.get(owner, frozenset())
        return any(name in keys for keys in bindings.values())

    def _expression_subqueries_ok(
        self, expr: ast.Expression, bindings: dict[str, frozenset[str]]
    ) -> bool:
        """Check the sub-queries nested inside one expression tree."""
        for node in walk_expression(expr):
            if isinstance(node, (ast.ScalarSubquery, ast.Exists)):
                # must yield the same value/verdict on every shard
                if self._select_shape(node.query)[0] != "global":
                    return False
            elif isinstance(node, ast.InSubquery):
                if not self._in_subquery_ok(node, bindings):
                    return False
        return True

    def _in_subquery_ok(
        self, node: ast.InSubquery, bindings: dict[str, frozenset[str]]
    ) -> bool:
        """A membership test decomposes when probe and members are co-located.

        Either the sub-query is global (identical member set everywhere), or
        both sides are tenant-local keys: the probed rows and the member rows
        then live on the same shard, so the per-shard verdict is the global
        verdict.
        """
        shape, local_out = self._select_shape(node.query)
        if shape == "global":
            return True
        if shape == "opaque":
            return False
        if len(node.query.items) != 1:
            return False
        item = node.query.items[0]
        member = (item.alias or getattr(item.expr, "name", "")).lower()
        if member not in local_out:
            return False
        return self._is_local_key(node.expr, bindings)
