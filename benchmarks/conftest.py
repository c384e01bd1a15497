"""Shared fixtures and helpers for the MT-H benchmark suite.

Every pytest-benchmark module regenerates one of the paper's tables or
figures.  Because the engine is pure Python, the default configuration uses a
micro scale factor and a representative subset of queries; set

* ``REPRO_BENCH_SF``   — scale factor (default 0.002),
* ``REPRO_BENCH_FULL`` — ``1`` to run all 22 queries and all six levels,

to run the full grids (slower, but exactly the paper's tables).

``--bench-json=PATH`` additionally writes a
machine-readable summary at session end: one record per benchmarked query
with its median timing in milliseconds plus whatever the module attached to
``benchmark.extra_info`` (speedup ratios, per-mode timings, ...).  CI and
tracking scripts diff these files across commits instead of scraping the
terminal table.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.tables import TABLE_CONFIGS, time_query
from repro.bench.workload import (
    WorkloadConfig,
    env_full,
    env_scale_factor,
    load_workload,
)
from repro.mth.queries import ALL_QUERY_IDS, query_text

FULL = env_full()

#: records accumulated by :func:`record_benchmark`, flushed at session end
_BENCH_RECORDS: list[dict] = []


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help="write per-query median timings as JSON to PATH",
    )


def _bench_json_path(config) -> str | None:
    return config.getoption("--bench-json", default=None)


def record_benchmark(benchmark, name: str, **fields) -> None:
    """Add one JSON record for a completed ``benchmark`` run.

    ``median_ms`` comes from pytest-benchmark's own statistics for the
    measured unit; ``fields`` label the cell (query id, level, mode) and
    ``benchmark.extra_info`` rides along verbatim.  Harmless no-op when the
    benchmark never ran (skipped cell) or JSON output is not requested —
    the list is simply never flushed.
    """
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    record = dict(fields)
    record["name"] = name
    if stats is not None:
        record["median_ms"] = round(stats.median * 1000.0, 4)
        record["rounds"] = len(stats.data)
    if benchmark.extra_info:
        record["extra_info"] = dict(benchmark.extra_info)
    _BENCH_RECORDS.append(record)


def pytest_sessionfinish(session, exitstatus):
    path = _bench_json_path(session.config)
    if not path or not _BENCH_RECORDS:
        return
    payload = {
        "full": FULL,
        "scale_factor": env_scale_factor(default=None),
        "records": _BENCH_RECORDS,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

#: representative queries: conversion heavy (1, 6, 22), join heavy (3, 10),
#: global-table only (11), CASE/aggregation (14)
DEFAULT_QUERY_IDS = (1, 3, 6, 10, 11, 14, 22)
QUERY_IDS = ALL_QUERY_IDS if FULL else DEFAULT_QUERY_IDS

DEFAULT_LEVELS = ("canonical", "o1", "o4", "inl-only")
LEVELS = ("canonical", "o1", "o2", "o3", "o4", "inl-only") if FULL else DEFAULT_LEVELS


def table_workload(table_id: str):
    """Load (once per session) the scenario-1 workload for a table experiment."""
    spec = TABLE_CONFIGS[table_id]
    config = WorkloadConfig.scenario1(profile=spec["profile"])
    return load_workload(config), spec


def run_mth_query(benchmark, workload, spec, level: str, query_id: int) -> None:
    """Benchmark one (level, query) cell of a response-time table."""
    connection = workload.connection(
        client=spec["client"], optimization=level, dataset=spec["dataset"]
    )
    text = query_text(query_id)
    workload.reset_caches()
    benchmark.pedantic(lambda: connection.query(text), rounds=1, iterations=1, warmup_rounds=0)
    record_benchmark(benchmark, "mth", query=query_id, level=level)


def run_baseline_query(benchmark, workload, query_id: int) -> None:
    text = query_text(query_id)
    workload.reset_caches()
    benchmark.pedantic(
        lambda: workload.baseline.query(text), rounds=1, iterations=1, warmup_rounds=0
    )
    record_benchmark(benchmark, "baseline", query=query_id)


@pytest.fixture(scope="session")
def scenario1_postgres():
    workload, _ = table_workload("5")
    return workload


@pytest.fixture(scope="session")
def scenario1_systemc():
    workload, _ = table_workload("9")
    return workload
