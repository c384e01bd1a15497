"""Shard-count scaling: cross-tenant MT-H over 1/2/4-shard clusters.

Extends the paper's tenant-scaling experiments (Figures 5/6) past what one
backend holds: the same cross-tenant queries execute by scatter-gather over a
tenant-partitioned cluster, and the single-tenant point exercises the
single-shard fast path.  Timings are reported next to the single-backend
execution on the same data (``extra_info`` carries shards/dataset/plan).
"""


import pytest

from mth_workload import WorkloadConfig, env_full, load_workload
from repro.mth.queries import query_text

SHARD_COUNTS = (1, 2, 4, 8) if env_full() else (1, 2, 4)

#: scatter-gather (1, 6, 18), single-shard resident (11), federated (22)
QUERY_IDS = (1, 6, 11, 18, 22)

DATASETS = ("all", "single")


@pytest.fixture(scope="module")
def single_workload():
    """The unsharded reference on the same generated data."""
    return load_workload(WorkloadConfig.scenario1())


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def sharded_workload(request, single_workload):
    """An N-shard cluster loaded with the reference workload's data."""
    config = WorkloadConfig.scenario1()
    config.shards = request.param
    return load_workload(config), request.param


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_single_backend_reference(benchmark, single_workload, query_id):
    text = query_text(query_id)
    connection = single_workload.connection(client=1, optimization="o4", dataset="all")
    single_workload.reset_caches()
    benchmark.extra_info.update({"shards": 0, "dataset": "all"})
    benchmark.pedantic(lambda: connection.query(text), rounds=1, iterations=1)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_sharded_scaling(benchmark, sharded_workload, query_id, dataset):
    workload, shards = sharded_workload
    scope = "IN ()" if dataset == "all" else "IN (1)"
    connection = workload.connection(client=1, optimization="o4", dataset=scope)
    text = query_text(query_id)
    workload.reset_caches()
    benchmark.pedantic(lambda: connection.query(text), rounds=1, iterations=1)
    plan = workload.backend.last_plan
    benchmark.extra_info.update(
        {
            "shards": shards,
            "dataset": dataset,
            "plan": plan.describe() if plan is not None else "?",
        }
    )
