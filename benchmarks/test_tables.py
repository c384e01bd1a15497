"""Tables 3–9: the paper's response-time grids, one parametrized module.

Each table is one engine profile and one dataset ``D``:

* Table 3 — PostgreSQL profile, D = {1} (the client's own data);
* Table 4 — PostgreSQL profile, D = {2} (another single tenant's data);
* Table 5 — PostgreSQL profile, D = {1..T} (all tenants);
* Table 7 — System-C profile (no UDF caching), D = {1};
* Table 8 — System-C profile, D = {2};
* Table 9 — System-C profile, D = {1..T}.

Every parametrized benchmark is one (table, optimization level, query)
cell; the tpch benchmarks are the single-tenant baseline the paper
compares against.  A table's workload is loaded once and shared by its
cells.  Select tables with ``-k``, e.g. ``-k "table3 or table7"``; run with
REPRO_BENCH_FULL=1 for all 22 queries and all six levels.
"""

import pytest

from mth_workload import LEVELS, QUERY_IDS, run_baseline_query, run_mth_query, table_workload

TABLE_IDS = ("3", "4", "5", "7", "8", "9")


@pytest.fixture(scope="module", params=TABLE_IDS, ids=[f"table{i}" for i in TABLE_IDS])
def workload_and_spec(request):
    return table_workload(request.param)


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_tpch_baseline(benchmark, workload_and_spec, query_id):
    workload, _ = workload_and_spec
    run_baseline_query(benchmark, workload, query_id)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_mth_query(benchmark, workload_and_spec, level, query_id):
    workload, spec = workload_and_spec
    run_mth_query(benchmark, workload, spec, level, query_id)
