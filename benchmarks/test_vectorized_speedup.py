"""Ablation: typed-column kernels vs. generic batch kernels.

The engine's hot path runs typed-column kernels (``repro.engine.columns`` +
the specialized paths in ``repro.engine.vector``); below them sit the
generic object-list batch kernels (``REPRO_ENGINE_TYPED=0``).  This ablation
times the *same* rewritten statement with both on the same loaded engine
database and attaches the ratio to ``extra_info`` — scan-heavy aggregations
(Q1/Q6-class) are where specialization pays off most, so those are the
measured mix.

The ratio is reported, not asserted: wall-clock multiples are hardware- and
load-dependent, and a flaky threshold would hide real regressions behind
retries.  Result rows ARE asserted identical across both legs — a speedup
measured against a wrong answer is meaningless.
"""

import time

import pytest

from conftest import record_benchmark
from repro.bench.workload import WorkloadConfig, load_workload
from repro.mth.queries import query_text

#: scan-dominated aggregation queries, where kernel specialization matters most
QUERY_IDS = (1, 6)
#: single-shot timing repeated this many times; the minimum is reported
ROUNDS = 3


@pytest.fixture(scope="module")
def workload():
    return load_workload(WorkloadConfig.scenario1())


def _best_of(fn, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _ratio(slow: float, fast: float) -> float:
    return round(slow / fast if fast > 0 else float("inf"), 3)


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_typed_kernel_speedup(benchmark, workload, query_id):
    """Measure generic-batch vs. typed execution of one MT-H query."""
    database = getattr(workload.backend, "engine_database", None)
    if database is None:
        pytest.skip("the speedup ablation needs the in-memory engine backend")
    connection = workload.connection(client=1, dataset="all")
    rewritten = connection.rewrite(query_text(query_id))

    was_typed = database.vector.typed

    def _measure():
        workload.reset_caches()
        return _best_of(lambda: workload.backend.execute(rewritten))

    try:
        database.set_typed(False)
        generic_seconds, generic_result = _measure()

        database.set_typed(True)
        typed_seconds, typed_result = _measure()
        # the benchmarked unit is one more typed run, for the report
        benchmark.pedantic(
            lambda: workload.backend.execute(rewritten), rounds=1, iterations=1
        )
    finally:
        database.set_typed(was_typed)

    assert typed_result.rows == generic_result.rows
    benchmark.extra_info["execute_generic_ms"] = round(generic_seconds * 1000.0, 4)
    benchmark.extra_info["execute_typed_ms"] = round(typed_seconds * 1000.0, 4)
    benchmark.extra_info["typed_speedup"] = _ratio(generic_seconds, typed_seconds)
    record_benchmark(benchmark, "typed-speedup", query=query_id)
