"""Ablation: effect of immutable-UDF result caching (postgres vs System C).

The appendix experiments of the paper attribute the System-C blow-up of the
canonical / o1 / o2 levels to the missing UDF result cache.  This ablation
isolates that single factor: the same canonically rewritten query is executed
on both back-end profiles over identical data.
"""

import pytest

from mth_workload import WorkloadConfig, load_workload
from repro.mth.queries import query_text

QUERY_IDS = (1, 22)
PROFILES = ("postgres", "system_c")


@pytest.fixture(scope="module", params=PROFILES)
def profiled_workload(request):
    config = WorkloadConfig.scenario1(profile=request.param)
    return load_workload(config), request.param


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_canonical_with_and_without_udf_cache(benchmark, profiled_workload, query_id):
    workload, profile = profiled_workload
    connection = workload.connection(client=1, optimization="canonical", dataset="all")
    text = query_text(query_id)
    workload.reset_caches()
    benchmark.extra_info.update({"profile": profile, "level": "canonical"})
    benchmark.pedantic(lambda: connection.query(text), rounds=1, iterations=1)
