#!/usr/bin/env python3
"""Per-query cost of MT-H against plain TPC-H on the same data and engine.

Run with the checkout to measure on ``PYTHONPATH`` (``PYTHONPATH=src python
tools/probe_mth_queries.py``); it uses only calls every revision has, so the
same file measures a parent checkout and a change (``--indexes`` alone needs
``TableData.indexes``, PR 22).  In process, one client: each of the 22
queries runs as MT-H (C = 1, D = all — or the ``--scope`` given, e.g.
``"IN (1,2,3)"``: a subset puts a ``ttid IN (…)`` filter on every
tenant-specific scan —, o4, through the gateway's statement cache, statistics
collected) and as plain TPC-H
(``load_tpch_baseline``) on one generated data set.  Per query it prints the
best of ``--best-of`` wall times in ms for both sides, their ratio and a
digest of the MT-H row list (equal digests = equal rows in equal order, float
bits included); below the table the round totals, the time-weighted and the
geomean overhead, and the queries that carry the geomean.  ``--indexes`` adds
the hash indexes the table versions hold once the queries have run: what the
joins and look-ups of the mix cost in memory.  With ``--shards`` it also
prints each query's cluster plan (``last_plan.describe()``) and the tally of
plan kinds — the single-shard / row-stream / partial-aggregate / federated
taxonomy a cluster change must keep.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from time import perf_counter_ns

from repro.mth import ALL_QUERY_IDS, generate, load_mth, load_tpch_baseline, query_text

#: plan kinds in tally order, as ``describe()`` spells them
PLAN_KINDS = ("single-shard", "row-stream", "partial-aggregate", "federated")


def best_ms(run, text: str, best_of: int) -> tuple[float, list]:
    """Best wall time of ``run(text)`` over ``best_of`` calls (after one
    warm-up), and the rows of the last call."""
    rows = run(text).rows
    best = math.inf
    for _ in range(best_of):
        began = perf_counter_ns()
        rows = run(text).rows
        best = min(best, perf_counter_ns() - began)
    return best / 1e6, rows


def digest(rows: list) -> str:
    """Order- and bit-sensitive digest of a row list (``repr`` round-trips
    floats exactly)."""
    return hashlib.sha256(repr([tuple(row) for row in rows]).encode()).hexdigest()[:12]


def index_table(instance) -> list[dict]:
    """One entry per hash index a table version of ``instance`` holds (every
    shard's, on a cluster): columns, keys, rows, uniqueness and the
    ``sys.getsizeof`` sum of what the index allocated — its dict, the key
    tuples of a multi-column key, the buckets of a non-unique one."""
    backend = instance.middleware.backend
    entries = []
    for shard, connection in enumerate(getattr(backend, "shard_connections", (backend,))):
        for table in connection.engine_database.catalog.tables():
            names = table.schema.column_names
            for columns, index in table.data.indexes.items():
                allocated = [index.table]
                if len(columns) > 1:
                    allocated.extend(index.table)
                if not index.unique:
                    allocated.extend(index.table.values())
                entries.append(
                    {
                        "shard": shard,
                        "table": table.schema.name,
                        "columns": [names[column] for column in columns],
                        "keys": len(index.table),
                        "rows": index.size,
                        "unique": index.unique,
                        "bytes": sum(map(sys.getsizeof, allocated)),
                    }
                )
    return entries


def probe(
    scale_factor: float,
    tenants: int,
    best_of: int,
    shards: int | None,
    scope: str = "IN ()",
    indexes: bool = False,
) -> dict:
    """Measure every query on both sides; the dict ``--json`` prints."""
    data = generate(scale_factor=scale_factor)
    instance = load_mth(data=data, tenants=tenants, shards=shards)  # engine backend(s)
    baseline = load_tpch_baseline(data=data, backend="engine")
    gateway = instance.middleware.gateway(cache_size=256)
    session = gateway.session(1, optimization="o4", scope=scope)
    backend = instance.middleware.backend
    queries = {}
    try:
        for query_id in ALL_QUERY_IDS:
            text = query_text(query_id)
            mth_ms, rows = best_ms(session.query, text, best_of)
            tpch_ms, _ = best_ms(baseline.query, text, best_of)
            entry = {
                "mth_ms": round(mth_ms, 3),
                "tpch_ms": round(tpch_ms, 3),
                "ratio": round(mth_ms / tpch_ms, 3),
                "rows": len(rows),
                "digest": digest(rows),
            }
            plan = getattr(backend, "last_plan", None)  # a cluster's, after the MT-H run
            if plan is not None:
                entry["plan"] = plan.describe()
            queries[f"Q{query_id}"] = entry
        held = index_table(instance) if indexes else None
    finally:
        session.close()
        gateway.close()
        baseline.close()
    mth_round = sum(entry["mth_ms"] for entry in queries.values())
    tpch_round = sum(entry["tpch_ms"] for entry in queries.values())
    log_ratios = {name: math.log(entry["ratio"]) for name, entry in queries.items()}
    carriers = sorted(log_ratios, key=log_ratios.get, reverse=True)[:5]
    table = {
        "scale_factor": scale_factor,
        "tenants": tenants,
        "shards": shards,
        "scope": scope,
        "best_of": best_of,
        "queries": queries,
        "mth_round_ms": round(mth_round, 1),
        "tpch_round_ms": round(tpch_round, 1),
        "overhead_time_weighted": round(mth_round / tpch_round, 3),
        "overhead_geomean": round(math.exp(sum(log_ratios.values()) / len(log_ratios)), 3),
        "geomean_carriers": carriers,
    }
    if held is not None:
        table["indexes"] = held
    return table


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=float, default=0.01, help="TPC-H scale factor")
    parser.add_argument("--tenants", type=int, default=10)
    parser.add_argument("--best-of", type=int, default=5)
    parser.add_argument("--shards", type=int, default=None, help="MT-H side on a sharded engine cluster")
    parser.add_argument("--scope", default="IN ()", help='the MT-H session\'s D, e.g. "IN (1,2,3)"; default all')
    parser.add_argument("--indexes", action="store_true", help="list the hash indexes held afterwards")
    parser.add_argument("--json", action="store_true", help="print the table as JSON")
    args = parser.parse_args(argv)
    table = probe(args.sf, args.tenants, args.best_of, args.shards, args.scope, args.indexes)
    if args.json:
        print(json.dumps(table, indent=1))
        return
    print(f"{'query':<6}{'mth ms':>10}{'tpch ms':>10}{'ratio':>8}{'rows':>7}  digest")
    for name, entry in table["queries"].items():
        print(
            f"{name:<6}{entry['mth_ms']:>10.2f}{entry['tpch_ms']:>10.2f}"
            f"{entry['ratio']:>8.2f}{entry['rows']:>7}  {entry['digest']}"
        )
    print(
        f"round: MT-H {table['mth_round_ms']} ms, TPC-H {table['tpch_round_ms']} ms; "
        f"overhead time-weighted {table['overhead_time_weighted']}, "
        f"geomean {table['overhead_geomean']} (carried by {', '.join(table['geomean_carriers'])})"
    )
    plans = {name: entry["plan"] for name, entry in table["queries"].items() if "plan" in entry}
    if plans:
        for name, plan in plans.items():
            print(f"  {name:<5}{plan}")
        kinds = [plan.split("(")[0] for plan in plans.values()]
        print("plans: " + " / ".join(f"{kinds.count(kind)} {kind}" for kind in PLAN_KINDS))
    if args.indexes:
        held = table["indexes"]
        print(f"indexes: {len(held)}, {sum(entry['bytes'] for entry in held) / 1e6:.1f} MB")
        for entry in held:
            print(
                f"  shard {entry['shard']} {entry['table']}({', '.join(entry['columns'])}): "
                f"{entry['keys']} keys, {entry['rows']} rows, "
                f"{'unique' if entry['unique'] else 'buckets'}, {entry['bytes']} bytes"
            )


if __name__ == "__main__":
    main()
