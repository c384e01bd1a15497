"""Ablation: cost of the MTSQL→SQL rewrite itself (middleware overhead).

The paper argues the middleware adds negligible overhead compared to query
execution.  This ablation measures (a) compiling alone — parse, type check,
canonical rewrite, optimization passes, SQL printing — and (b)
executing the already-compiled statement, for a representative query mix,
plus (c) the staged compiler's per-pass timing breakdown
(``CompiledQuery.passes``), which attributes the compile cost to the
canonical rewrite vs. each optimization pass.

The connections use the workload's default optimization level, so
``REPRO_BENCH_LEVEL`` sweeps the whole ablation across Table-6 levels.  The
execution benchmark carries the statement's compile time in ``extra_info``,
so one ``--benchmark-json`` report separates compile cost from execution
cost.
"""

import time

import pytest

from repro.bench.workload import WorkloadConfig, load_workload
from repro.mth.queries import query_text

QUERY_IDS = (1, 3, 6, 22)


@pytest.fixture(scope="module")
def workload():
    return load_workload(WorkloadConfig.scenario1())


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_rewrite_only(benchmark, workload, query_id):
    connection = workload.connection(client=1, dataset="all")
    text = query_text(query_id)
    benchmark(lambda: connection.rewrite_sql(text))


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_execute_prerewritten(benchmark, workload, query_id):
    """The benchmarked unit is one execution of the pre-rewritten statement;
    ``extra_info`` carries the compile time of the same statement
    (milliseconds), so the report shows where the middleware's time goes."""
    connection = workload.connection(client=1, dataset="all")
    text = query_text(query_id)
    start = time.perf_counter()
    compiled = connection.compile(text)
    compile_seconds = time.perf_counter() - start
    rewritten = connection.rewrite(text)
    workload.reset_caches()
    benchmark.pedantic(
        lambda: workload.backend.execute(rewritten), rounds=1, iterations=1
    )
    benchmark.extra_info["level"] = compiled.level.value
    benchmark.extra_info["compile_ms"] = round(compile_seconds * 1000.0, 4)


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_per_pass_timing_breakdown(benchmark, workload, query_id):
    """Attribute the compile cost to individual stages.

    The benchmarked unit is one full compilation; the per-stage breakdown of
    a representative run is attached to the benchmark's ``extra_info`` (in
    milliseconds) so ``--benchmark-json`` reports carry it.
    """
    connection = workload.connection(client=1, dataset="all")
    text = query_text(query_id)

    compiled = benchmark(lambda: connection.compile(text))

    assert compiled.pass_trace[0] == "canonical"
    total_staged = 0.0
    breakdown = {}
    for record in compiled.passes:
        assert record.seconds >= 0.0
        assert record.nodes_before > 0 and record.nodes_after > 0
        breakdown[record.name] = round(record.seconds * 1000.0, 4)
        total_staged += record.seconds
    # the stages are timed inside the total compile time
    assert total_staged <= compiled.seconds
    benchmark.extra_info["pass_ms"] = breakdown
    benchmark.extra_info["level"] = compiled.level.value
