#!/usr/bin/env python3
"""Serving demo: N concurrent tenant sessions through the query gateway.

Loads a micro MT-H instance, opens one gateway session per tenant plus a
cross-tenant "research" session, and pushes two rounds of a mixed query
workload through the concurrent executor:

* round 1 is cold — every statement pays parse + rewrite + optimization,
* round 2 is warm — the rewrite cache serves every statement.

The script prints per-round throughput/latency and the cache hit rate, and
verifies that warm results equal the cold ones.

Run with ``PYTHONPATH=src python examples/gateway_serving.py``; pass
``--backend sqlite`` to serve the workload from the SQLite execution backend
instead of the in-memory engine.
"""

import argparse

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


def build_batches(gateway, tenants):
    """One session per tenant (own scope) plus one all-tenant research session."""
    batches = []
    for ttid in range(1, tenants + 1):
        session = gateway.session(ttid, optimization="o4", scope=f"IN ({ttid})")
        batches.append((session, [query_text(query_id) for query_id in QUERY_IDS]))
    research = gateway.session(1, optimization="o4", scope="IN ()")
    batches.append((research, [query_text(query_id) for query_id in QUERY_IDS]))
    return batches


def main() -> None:
    args = parse_args()
    print(f"loading MT-H: sf={SCALE_FACTOR}, {TENANTS} tenants, backend={args.backend} ...")
    instance = load_mth(scale_factor=SCALE_FACTOR, tenants=TENANTS, backend=args.backend)
    gateway = instance.middleware.gateway(cache_size=512)
    batches = build_batches(gateway, TENANTS)
    sessions = len(batches)
    backend = instance.middleware.backend
    print(
        f"{sessions} sessions x {len(QUERY_IDS)} queries, O4, concurrent, "
        f"served by the {backend.name!r} backend ({backend.dialect.name} dialect)\n"
    )

    cold = gateway.run_concurrent(batches)
    print(f"cold (parse + rewrite + execute): {cold.describe()}")

    # micro-scale rounds are scheduler-noisy; report the median of three warm
    # rounds (benchmarks/test_ablation_gateway_cache.py has controlled numbers)
    warm_rounds = [gateway.run_concurrent(batches) for _ in range(3)]
    warm = sorted(warm_rounds, key=lambda report: report.latency.mean)[1]
    print(f"warm (rewrite cache hits):        {warm.describe()}")

    for session, _ in batches:
        for first, second in zip(cold.outcomes_for(session), warm.outcomes_for(session)):
            if first.error is not None or second.error is not None:
                raise SystemExit(f"statement failed on {session!r}: {first.error or second.error}")
            if first.result.rows != second.result.rows:
                raise SystemExit(f"warm/cold mismatch on {session!r}: {first.statement[:60]}")
    print("\nwarm results identical to cold results: ok")

    stats = gateway.cache_stats
    print(
        f"cache: {stats.hits} hits / {stats.lookups} lookups "
        f"(hit rate {stats.hit_rate:.1%}), {stats.misses} misses, "
        f"{stats.evictions} evictions"
    )
    speedup = cold.latency.mean / warm.latency.mean if warm.latency.mean else float("inf")
    print(f"mean per-statement latency: cold {cold.latency.mean * 1e3:.2f}ms -> "
          f"warm {warm.latency.mean * 1e3:.2f}ms ({speedup:.1f}x)")
    for session in gateway.sessions:
        print(f"  {session!r}")


if __name__ == "__main__":
    main()
