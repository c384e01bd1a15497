"""Shard-invariance differential suite: MT-H on clusters vs. a single backend.

The acceptance bar for the sharded execution layer: every MT-H query returns
*row-set-identical* results on a tenant-partitioned cluster — for shards ∈
{1, 2, 4}, both benchmark scenarios (business alliance/uniform, research
institution/zipf) and ``D' = {single, subset, all}`` — compared to the same
data loaded into one backend.  The grid covers every planner strategy:
single-shard fast path, row streams, partial-aggregate re-aggregation and
the federated fallback.
"""

from __future__ import annotations

import pytest

from repro.backends import normalized_rows
from repro.cluster import FederatedPlan, SingleShardPlan
from repro.mth.loader import load_mth
from repro.mth.queries import ALL_QUERY_IDS, CONVERSION_INTENSIVE, query_text

TENANTS = 4
CLIENT = 1
SHARD_COUNTS = (1, 2, 4)

#: the three D' shapes of the acceptance grid
DATASETS = {
    "single": "IN (2)",
    "subset": "IN (1, 3)",
    "all": "IN ()",
}

#: the paper's two scenarios: business alliance (uniform), research (zipf)
SCENARIOS = ("uniform", "zipf")


@pytest.fixture(scope="module", params=SCENARIOS)
def shard_grid(request, tiny_tpch_data):
    """The same MT-H data on one backend and on 1/2/4-shard clusters."""
    single = load_mth(
        data=tiny_tpch_data, tenants=TENANTS, distribution=request.param
    )
    clusters = {
        shard_count: load_mth(
            data=tiny_tpch_data,
            tenants=TENANTS,
            distribution=request.param,
            shards=shard_count,
        )
        for shard_count in SHARD_COUNTS
    }
    yield single, clusters
    for instance in clusters.values():
        instance.middleware.backend.close()


def _connection(instance, scope: str, optimization: str = "o4"):
    connection = instance.middleware.connect(CLIENT, optimization=optimization)
    connection.set_scope(scope)
    return connection


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_mth_query_shard_invariant(shard_grid, query_id):
    single, clusters = shard_grid
    text = query_text(query_id)
    for name, scope in DATASETS.items():
        reference = _connection(single, scope).query(text)
        expected = normalized_rows(reference)
        for shard_count, cluster in clusters.items():
            result = _connection(cluster, scope).query(text)
            plan = cluster.middleware.backend.last_plan
            assert len(result.columns) == len(reference.columns), (
                f"Q{query_id} D'={name} shards={shard_count}: column counts differ"
            )
            assert normalized_rows(result) == expected, (
                f"Q{query_id} D'={name} shards={shard_count} "
                f"({plan.describe() if plan else 'no plan'}): row sets differ"
            )


def test_plan_mix_matches_query_taxonomy(shard_grid):
    """Pin the planner's strategy per query (at 4 shards, D' = all).

    This guards plan *quality*: a regression that silently pushed decomposable
    queries onto the federated fallback would stay row-set-correct but lose
    the scatter-gather scaling the layer exists for.
    """
    _single, clusters = shard_grid
    cluster = clusters[4]
    backend = cluster.middleware.backend
    single_shard, federated, scatter = set(), set(), set()
    for query_id in ALL_QUERY_IDS:
        _connection(cluster, "IN ()").query(query_text(query_id))
        plan = backend.last_plan
        if isinstance(plan, SingleShardPlan):
            single_shard.add(query_id)
        elif isinstance(plan, FederatedPlan):
            federated.add(query_id)
        else:
            scatter.add(query_id)
    # Q2/Q11/Q16 touch only global (replicated) tables; Q15/Q17/Q20 aggregate
    # nested on non-colocated keys (suppkey/partkey) and Q22 compares against
    # a global scalar AVG — exactly the shapes that need the federated path
    assert single_shard == {2, 11, 16}
    assert federated == {15, 17, 20, 22}
    assert scatter == set(ALL_QUERY_IDS) - single_shard - federated


@pytest.mark.parametrize("level", ["canonical", "o1"])
def test_conversion_udf_path_shard_invariant(shard_grid, level):
    """Low optimization levels route conversions through the Listings-4-7 SQL
    UDFs; the cluster broadcasts them to every shard (and the federated
    scratch backend syncs their meta tables)."""
    single, clusters = shard_grid
    cluster = clusters[2]
    for query_id in CONVERSION_INTENSIVE:
        text = query_text(query_id)
        expected = normalized_rows(_connection(single, "IN (1, 3)", level).query(text))
        assert normalized_rows(
            _connection(cluster, "IN (1, 3)", level).query(text)
        ) == expected, f"Q{query_id} at {level}: row sets differ"


def test_gateway_over_cluster_matches_direct_connection(shard_grid):
    """Gateway sessions on a sharded backend serve byte-identical results and
    hit the cache on repeat executions."""
    _single, clusters = shard_grid
    cluster = clusters[2]
    gateway = cluster.middleware.gateway(cache_size=32)
    try:
        session = gateway.session(CLIENT, optimization="o4", scope="IN ()")
        for query_id in (1, 6, 18):
            text = query_text(query_id)
            direct = _connection(cluster, "IN ()").query(text)
            assert session.query(text).rows == direct.rows
        # warm path: repeat executions hit the cache
        before = gateway.cache_stats.hits
        session.query(query_text(6))
        assert gateway.cache_stats.hits == before + 1
    finally:
        gateway.close()


def test_tenant_data_is_disjoint_across_shards(shard_grid):
    """Every tenant-specific row lives on exactly one shard; global tables
    are fully replicated."""
    _single, clusters = shard_grid
    cluster = clusters[4]
    connection = cluster.middleware.backend
    for table in ("customer", "orders", "lineitem"):
        per_shard = [
            shard.table_rowcount(table) for shard in connection.shard_connections
        ]
        assert sum(per_shard) == connection.table_rowcount(table)
    for table in ("region", "nation", "supplier", "part", "partsupp"):
        counts = {
            shard.table_rowcount(table) for shard in connection.shard_connections
        }
        assert len(counts) == 1  # identical replicas
    assert connection.check_integrity() == []
