"""Sharded scatter-gather execution: tenant-partitioned backend clusters.

A single backend caps how many tenants MTBase can serve; this package scales
the reproduction out by partitioning tenants across N shards — each a full
:class:`~repro.backends.base.Backend` — and executing rewritten statements by
scatter-gather:

* :mod:`repro.cluster.placement`   — which shard owns which tenant,
* :mod:`repro.cluster.planner`     — choose the execution strategy per query
  (single-shard fast path, UNION row stream, partial-aggregate
  re-aggregation, federated fallback),
* :mod:`repro.cluster.coordinator` — scatter the per-shard queries, gather
  the results in shard order and merge them: the gathered rows are the input
  of the plan's *merge query* (for aggregates the outer half of the paper's
  §4.2.2 aggregation distribution; built by
  :func:`repro.sql.transform.split_partial_aggregates` /
  :func:`~repro.sql.transform.split_row_stream`), which the coordinator's own
  engine database executes — the cluster has no expression evaluator and no
  row sorter of its own.

The planner owns the shardability analysis
(:class:`~repro.compile.analysis.ShardabilityAnalyzer`) and runs it against
the catalog the sharded backend builds from its DDL; the compiler hands over
only the static analyzer's column provenance.

The user-facing entry point is :class:`repro.backends.sharded.ShardedBackend`,
which implements the ordinary backend protocol on top of these pieces — the
middleware and the gateway work unchanged over a cluster.
"""

from __future__ import annotations

from .coordinator import ShardCoordinator
from .placement import ExplicitPlacement, HashPlacement, PlacementPolicy
from .planner import (
    ClusterPlanner,
    FederatedPlan,
    PartialAggregatePlan,
    Plan,
    RowStreamPlan,
    SingleShardPlan,
)

__all__ = [
    "ClusterPlanner",
    "ExplicitPlacement",
    "FederatedPlan",
    "HashPlacement",
    "PartialAggregatePlan",
    "Plan",
    "PlacementPolicy",
    "RowStreamPlan",
    "ShardCoordinator",
    "SingleShardPlan",
]
