"""Figure 6: tenant scaling on the System-C-like profile (no UDF result caching).

Response time of the conversion-intensive queries Q1, Q6 and Q22 (relative to
plain TPC-H on the same data) for the o4 and inlining-only optimization
levels while the number of tenants grows.  The paper sweeps 1 .. 100 000
tenants at sf = 100; the micro-scale default sweeps 1 .. 100.
"""


import pytest

from mth_workload import WorkloadConfig, env_full, load_workload
from repro.mth.queries import CONVERSION_INTENSIVE, query_text

PROFILE = "system_c"
TENANT_COUNTS = (1, 10, 100, 1000) if env_full() else (1, 10, 100)
LEVELS = ("o4", "inl-only")


@pytest.fixture(scope="module", params=TENANT_COUNTS)
def scaling_workload(request):
    config = WorkloadConfig.scenario2(tenants=request.param, profile=PROFILE)
    return load_workload(config), request.param


@pytest.mark.parametrize("query_id", CONVERSION_INTENSIVE)
def test_tpch_baseline(benchmark, scaling_workload, query_id):
    workload, tenants = scaling_workload
    text = query_text(query_id)
    workload.reset_caches()
    benchmark.extra_info.update({"tenants": tenants, "level": "tpch"})
    benchmark.pedantic(lambda: workload.baseline.query(text), rounds=1, iterations=1)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("query_id", CONVERSION_INTENSIVE)
def test_mth_scaling(benchmark, scaling_workload, level, query_id):
    workload, tenants = scaling_workload
    connection = workload.connection(client=1, optimization=level, dataset="all")
    text = query_text(query_id)
    workload.reset_caches()
    benchmark.extra_info.update({"tenants": tenants, "level": level})
    benchmark.pedantic(lambda: connection.query(text), rounds=1, iterations=1)
