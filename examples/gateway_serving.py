#!/usr/bin/env python3
"""Gateway demo: tenant sessions served cold, then warm, by the rewrite cache.

Loads a micro MT-H instance, opens one gateway session per tenant plus a
cross-tenant "research" session, and runs a mixed query workload through
every session in two passes:

* the cold pass pays parse + rewrite + optimization for every statement,
* the warm passes are served from the rewrite cache.

The script prints each pass's mean per-statement latency and the cache hit
rate, and verifies that warm results equal the cold ones.  Serving many
tenants concurrently is the network tier's job: see
``examples/network_serving.py``.

Run with ``PYTHONPATH=src python examples/gateway_serving.py``; pass
``--backend sqlite`` to serve the workload from the SQLite execution backend
instead of the in-memory engine.
"""

import argparse
import statistics
import time

from repro.backends import BACKEND_NAMES
from repro.mth import load_mth, query_text

TENANTS = 4
SCALE_FACTOR = 0.001
QUERY_IDS = (1, 3, 6, 10, 22)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="engine",
        help="execution backend serving the workload (default: engine)",
    )
    return parser.parse_args()


def open_sessions(gateway, tenants):
    """One session per tenant (own scope) plus one all-tenant research session."""
    sessions = [
        gateway.session(ttid, optimization="o4", scope=f"IN ({ttid})")
        for ttid in range(1, tenants + 1)
    ]
    sessions.append(gateway.session(1, optimization="o4", scope="IN ()"))
    return sessions


def run_pass(sessions, statements):
    """Every statement on every session: ``(rows per statement, mean seconds)``."""
    rows, latencies = [], []
    for session in sessions:
        for sql in statements:
            began = time.perf_counter()
            result = session.query(sql)
            latencies.append(time.perf_counter() - began)
            rows.append(result.rows)
    return rows, statistics.fmean(latencies)


def main() -> None:
    args = parse_args()
    print(f"loading MT-H: sf={SCALE_FACTOR}, {TENANTS} tenants, backend={args.backend} ...")
    instance = load_mth(scale_factor=SCALE_FACTOR, tenants=TENANTS, backend=args.backend)
    gateway = instance.middleware.gateway(cache_size=512)
    sessions = open_sessions(gateway, TENANTS)
    statements = [query_text(query_id) for query_id in QUERY_IDS]
    backend = instance.middleware.backend
    print(
        f"{len(sessions)} sessions x {len(statements)} queries, O4, "
        f"served by the {backend.name!r} backend ({backend.dialect.name} dialect)\n"
    )

    cold_rows, cold_mean = run_pass(sessions, statements)
    print(f"cold (parse + rewrite + execute): mean {cold_mean * 1e3:.2f}ms per statement")

    # micro-scale passes are scheduler-noisy; report the median of three warm
    # passes (benchmarks/test_ablation_gateway_cache.py has controlled numbers)
    warm_passes = sorted((run_pass(sessions, statements) for _ in range(3)),
                         key=lambda warm: warm[1])
    warm_rows, warm_mean = warm_passes[1]
    print(f"warm (rewrite cache hits):        mean {warm_mean * 1e3:.2f}ms per statement")

    for rows, _ in warm_passes:
        if rows != cold_rows:
            raise SystemExit("warm/cold mismatch: a cached rewrite changed the rows")
    print("\nwarm results identical to cold results: ok")

    stats = gateway.cache_stats
    print(
        f"cache: {stats.hits} hits / {stats.lookups} lookups "
        f"(hit rate {stats.hit_rate:.1%}), {stats.misses} misses, "
        f"{stats.evictions} evictions"
    )
    speedup = cold_mean / warm_mean if warm_mean else float("inf")
    print(f"mean per-statement latency: cold {cold_mean * 1e3:.2f}ms -> "
          f"warm {warm_mean * 1e3:.2f}ms ({speedup:.1f}x)")
    for session in sessions:
        print(f"  {session!r}")
        session.close()
    gateway.close()


if __name__ == "__main__":
    main()
