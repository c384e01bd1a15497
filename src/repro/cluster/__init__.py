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
  the results in shard order and merge them: a partial-aggregate plan's
  gathered rows are the input of its *merge query* (the outer half of the
  paper's §4.2.2 aggregation distribution, built by
  :func:`repro.sql.transform.split_partial_aggregates`), which the
  coordinator's own engine database executes — the cluster has no
  expression evaluator of its own,
* :mod:`repro.cluster.merge`       — ``DISTINCT`` / ``ORDER BY`` over
  gathered row streams.

The user-facing entry point is :class:`repro.backends.sharded.ShardedBackend`,
which implements the ordinary backend protocol on top of these pieces — the
middleware and the gateway work unchanged over a cluster.
"""

from __future__ import annotations

from .coordinator import ShardCoordinator
from .merge import distinct_rows, sort_rows
from .placement import ExplicitPlacement, HashPlacement, PlacementPolicy
from .planner import (
    ClusterCatalog,
    ClusterPlanner,
    FederatedPlan,
    PartialAggregatePlan,
    PartitionInfo,
    Plan,
    RowStreamPlan,
    SingleShardPlan,
)

__all__ = [
    "ClusterCatalog",
    "ClusterPlanner",
    "ExplicitPlacement",
    "FederatedPlan",
    "HashPlacement",
    "PartialAggregatePlan",
    "PartitionInfo",
    "Plan",
    "PlacementPolicy",
    "RowStreamPlan",
    "ShardCoordinator",
    "SingleShardPlan",
    "distinct_rows",
    "sort_rows",
]
