#!/usr/bin/env python3
"""Sharded cluster demo: the gateway serving MT-H over a 4-shard cluster.

Loads a micro MT-H instance onto a tenant-partitioned cluster of four
in-memory engine backends, then drives cross-tenant queries through the
query gateway and shows, per query, which execution strategy the cluster
planner picked:

* ``single-shard``      — ``D'`` lands on one shard (or only global tables),
* ``row-stream``        — scatter + DISTINCT/ORDER BY/LIMIT over the union,
* ``partial-aggregate`` — scatter + SUM/COUNT/MIN/MAX (AVG = SUM÷COUNT)
  re-aggregation,
* ``federated``         — pull base rows into a scratch backend (the
  always-correct fallback for non-decomposable queries).

Each result is verified row-set-identical against a single-backend load of
the same data.

Run with ``PYTHONPATH=src python examples/sharded_cluster.py``; pass
``--shards N`` to change the cluster size and ``--backend sqlite`` to build
the cluster out of SQLite shards.
"""

import argparse

from repro.backends import normalized_rows
from repro.mth.dbgen import generate
from repro.mth.loader import load_mth
from repro.mth.queries import query_text

TENANTS = 8
SCALE_FACTOR = 0.001
QUERY_IDS = (1, 3, 6, 11, 18, 22)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=4, help="shard count (default: 4)")
    parser.add_argument(
        "--backend",
        choices=("engine", "sqlite"),
        default="engine",
        help="backend family of each shard (default: engine)",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    print(
        f"loading MT-H: sf={SCALE_FACTOR}, {TENANTS} tenants, "
        f"{args.shards} x {args.backend} shards ..."
    )
    data = generate(scale_factor=SCALE_FACTOR, seed=7)
    cluster = load_mth(
        data=data, tenants=TENANTS, distribution="uniform",
        backend=args.backend, shards=args.shards,
    )
    reference = load_mth(data=data, tenants=TENANTS, distribution="uniform")
    backend = cluster.middleware.backend
    print(f"cluster: {backend!r}")
    for table in ("customer", "orders", "lineitem"):
        per_shard = [
            shard.table_rowcount(table) for shard in backend.shard_connections
        ]
        print(f"  {table:9s} rows per shard: {per_shard} (total {sum(per_shard)})")

    gateway = cluster.middleware.gateway(cache_size=128)
    research = gateway.session(1, optimization="o4", scope="IN ()")  # all tenants
    tenant_session = gateway.session(2, optimization="o4", scope="IN (2)")

    print("\ncross-tenant research session (D' = all tenants):")
    for query_id in QUERY_IDS:
        result = research.query(query_text(query_id))
        plan = backend.last_plan
        check = reference.middleware.connect(1, optimization="o4")
        check.set_scope("IN ()")
        expected = check.query(query_text(query_id))
        verdict = "ok" if normalized_rows(result) == normalized_rows(expected) else "MISMATCH"
        print(f"  Q{query_id:<2} {len(result.rows):>5} rows  {plan.describe():<55} {verdict}")

    print("\nsingle-tenant session (D' = {2} -> single-shard fast path):")
    for query_id in (1, 6):
        result = tenant_session.query(query_text(query_id))
        print(f"  Q{query_id:<2} {len(result.rows):>5} rows  {backend.last_plan.describe()}")

    warm = gateway.cache_stats
    research.query(query_text(1))  # warm repeat
    print(
        f"\ngateway cache: {gateway.cache_stats.hits} hits "
        f"({gateway.cache_stats.hits - warm.hits} from the warm repeat), "
        f"dialect key = {backend.dialect.name!r}"
    )
    gateway.close()
    backend.close()


if __name__ == "__main__":
    main()
