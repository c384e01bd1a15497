"""Shared fixtures and the ``--bench-json`` option of the MT-H benchmark suite.

Every pytest-benchmark module regenerates one of the paper's tables or
figures.  Because the engine is pure Python, the default configuration uses a
micro scale factor and a representative subset of queries; set

* ``REPRO_BENCH_SF``   — scale factor (default 0.002),
* ``REPRO_BENCH_FULL`` — ``1`` to run all 22 queries and all six levels,

to run the full grids (slower, but exactly the paper's tables).

``--bench-json=PATH`` additionally writes a
machine-readable summary at session end: one record per benchmarked query
(``mth_workload.record_benchmark``) with its median timing in milliseconds
plus whatever the module attached to ``benchmark.extra_info`` (speedup
ratios, per-mode timings, ...).  CI and
tracking scripts diff these files across commits instead of scraping the
terminal table.
"""

from __future__ import annotations

import json

from mth_workload import BENCH_RECORDS, FULL, env_scale_factor


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


def pytest_sessionfinish(session, exitstatus):
    path = _bench_json_path(session.config)
    if not path or not BENCH_RECORDS:
        return
    payload = {
        "full": FULL,
        "scale_factor": env_scale_factor(default=None),
        "records": BENCH_RECORDS,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

