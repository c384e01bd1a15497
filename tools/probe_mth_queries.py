#!/usr/bin/env python3
"""Per-query cost of MT-H against plain TPC-H on the same data and engine.

Run with the checkout to measure on ``PYTHONPATH`` (``PYTHONPATH=src python
tools/probe_mth_queries.py``); it uses only calls the parent revision has
too, so the same file measures a parent checkout and a change.  In
process, one client: each of the 22 queries runs as plain TPC-H
(``load_tpch_baseline``) and then as MT-H (C = 1, D = all — or the
``--scope`` given, e.g. ``"IN (1,2,3)"``: a subset puts a ``ttid IN (…)``
filter on every tenant-specific scan —, through the gateway's statement
cache, statistics collected) at each of ``--levels`` (default o4), one
generated data set, both sides under one ``--profile`` (``postgres``
memoizes immutable UDFs, ``system_c`` does not).  Levels are interleaved per
query, so machine drift hits every level alike.  Each cell is the best of
``--best-of`` wall times in ms after one warm-up; the warm-up runs on
cleared function caches and counts the UDF bodies it executes.

With one level it prints, per query, both sides' ms, their ratio and a
digest of the MT-H row list (equal digests = equal rows in equal order,
float bits included); below the table the round totals, the time-weighted
and the geomean overhead, and the queries that carry the geomean.  With
``--shards`` it also prints each query's cluster plan
(``last_plan.describe()``) and the tally of plan kinds — the single-shard /
row-stream / partial-aggregate / federated taxonomy a cluster change must
keep.  With several levels (``--levels all`` is a paper table: Tables 3–5
are ``--profile postgres``, 7–9 ``--profile system_c``, with ``--scope "IN
(1)"``, ``"IN (2)"`` or all) it prints the ratio and the UDF executions per
query and level, and per level the round, both overheads, the UDF total and
how many queries return o4's rows under ``results_match`` (digests differ
across levels where o3/o4's two-level aggregation adds floats in another
order); the JSON nests the single-level shape under ``levels``, each entry
with ``udf_executions`` and ``matches_o4``.  ``--indexes`` adds the hash
indexes the table versions hold once the queries have run: what the joins
and look-ups of the mix cost in memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from time import perf_counter_ns

from repro.core import OptimizationLevel
from repro.mth import ALL_QUERY_IDS, generate, load_mth, load_tpch_baseline, query_text, results_match

#: plan kinds in tally order, as ``describe()`` spells them
PLAN_KINDS = ("single-shard", "row-stream", "partial-aggregate", "federated")
#: the optimization levels in the order of the paper's tables
LEVELS = OptimizationLevel.levels()
#: UDF-caching profiles: Tables 3–5 are ``postgres``, Tables 7–9 ``system_c``
PROFILES = ("postgres", "system_c")


def best_ms(run, text: str, best_of: int, backend=None) -> tuple[float, object, int | None]:
    """Best wall time of ``run(text)`` over ``best_of`` calls (after one
    warm-up), the result of the last call, and — given the ``backend`` that
    runs it — the UDF bodies the warm-up executed on cleared function caches
    (a cluster counts them on its shards)."""
    if backend is not None:
        backend.clear_function_caches()
        backend.reset_stats()
    result = run(text)
    executions = None
    if backend is not None:
        aggregate = getattr(backend, "aggregate_stats", None)
        executions = (aggregate() if aggregate is not None else backend.stats).udf_executions
    best = math.inf
    for _ in range(best_of):
        began = perf_counter_ns()
        result = run(text)
        best = min(best, perf_counter_ns() - began)
    return best / 1e6, result, executions


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


def summarize(queries: dict) -> dict:
    """One level's entries with their round totals, the time-weighted and
    the geomean overhead, and the five queries that carry the geomean."""
    mth_round = sum(entry["mth_ms"] for entry in queries.values())
    tpch_round = sum(entry["tpch_ms"] for entry in queries.values())
    log_ratios = {name: math.log(entry["ratio"]) for name, entry in queries.items()}
    return {
        "queries": queries,
        "mth_round_ms": round(mth_round, 1),
        "tpch_round_ms": round(tpch_round, 1),
        "overhead_time_weighted": round(mth_round / tpch_round, 3),
        "overhead_geomean": round(math.exp(sum(log_ratios.values()) / len(log_ratios)), 3),
        "geomean_carriers": sorted(log_ratios, key=log_ratios.get, reverse=True)[:5],
    }


def probe(
    scale_factor: float,
    tenants: int,
    best_of: int,
    shards: int | None,
    scope: str = "IN ()",
    indexes: bool = False,
    levels: tuple[str, ...] = ("o4",),
    profile: str = "postgres",
) -> dict:
    """Measure every query as TPC-H and then at each level in turn; the dict
    ``--json`` prints."""
    data = generate(scale_factor=scale_factor)
    instance = load_mth(data=data, tenants=tenants, profile=profile, shards=shards)  # engine backend(s)
    baseline = load_tpch_baseline(data=data, profile=profile, backend="engine")
    gateway = instance.middleware.gateway(cache_size=256)
    sessions = {level: gateway.session(1, optimization=level, scope=scope) for level in levels}
    backend = instance.middleware.backend
    grid: dict[str, dict] = {level: {} for level in levels}
    several = len(levels) > 1  # else the flat single-level shape of every revision
    try:
        for query_id in ALL_QUERY_IDS:
            name = f"Q{query_id}"
            text = query_text(query_id)
            tpch_ms, _, _ = best_ms(baseline.query, text, best_of)
            results = {}
            for level, session in sessions.items():
                mth_ms, results[level], executions = best_ms(session.query, text, best_of, backend)
                rows = results[level].rows
                entry = grid[level][name] = {
                    "mth_ms": round(mth_ms, 3),
                    "tpch_ms": round(tpch_ms, 3),
                    "ratio": round(mth_ms / tpch_ms, 3),
                    "rows": len(rows),
                    "digest": digest(rows),
                }
                plan = getattr(backend, "last_plan", None)  # a cluster's, after the MT-H run
                if plan is not None:
                    entry["plan"] = plan.describe()
                if several:
                    entry["udf_executions"] = executions
            if several and "o4" in results:
                for level, result in results.items():
                    grid[level][name]["matches_o4"] = results_match(result, results["o4"]) is None
        held = index_table(instance) if indexes else None
    finally:
        for session in sessions.values():
            session.close()
        gateway.close()
        baseline.close()
    table = {
        "scale_factor": scale_factor,
        "tenants": tenants,
        "shards": shards,
        "scope": scope,
        "best_of": best_of,
    }
    if several:
        table["profile"] = profile
        table["levels"] = {}
        for level, queries in grid.items():
            summary = table["levels"][level] = summarize(queries)
            summary["udf_executions"] = sum(entry["udf_executions"] for entry in queries.values())
    else:
        table.update(summarize(grid[levels[0]]))
    if held is not None:
        table["indexes"] = held
    return table


def parse_levels(value: str) -> tuple[str, ...]:
    """``--levels``: ``all`` or a comma list of level names."""
    if value == "all":
        return LEVELS
    levels = tuple(dict.fromkeys(name.strip() for name in value.split(",")))
    unknown = [name for name in levels if name not in LEVELS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown level {', '.join(map(repr, unknown))}; levels are {', '.join(LEVELS)} or all"
        )
    return levels


def print_queries(table: dict) -> None:
    """The text form of a single-level run: one line per query, the round,
    and on a cluster each query's plan and the tally of plan kinds."""
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


def print_grid(table: dict) -> None:
    """The text form of a run over several levels: MT-H / TPC-H per query and
    level, UDF executions per query and level, and one summary line per level."""
    levels = table["levels"]
    print(
        f"profile {table['profile']}, scope {table['scope']}, sf {table['scale_factor']}, "
        f"{table['tenants']} tenants, best of {table['best_of']}: ratio MT-H / TPC-H"
    )
    first = next(iter(levels.values()))["queries"]
    print(f"{'query':<6}{'tpch ms':>10}" + "".join(f"{level:>10}" for level in levels))
    for name, entry in first.items():
        ratios = "".join(f"{summary['queries'][name]['ratio']:>10.2f}" for summary in levels.values())
        print(f"{name:<6}{entry['tpch_ms']:>10.2f}{ratios}")
    print("UDF executions, one run on cleared function caches")
    for name in first:
        counts = "".join(f"{summary['queries'][name]['udf_executions']:>10}" for summary in levels.values())
        print(f"{name:<16}{counts}")
    print(f"{'level':<10}{'mth ms':>10}{'time-w.':>9}{'geomean':>9}{'UDF exec.':>11}  rows match o4")
    for level, summary in levels.items():
        matches = [entry.get("matches_o4") for entry in summary["queries"].values()]
        agreed = f"{matches.count(True)}/{len(matches)}" if None not in matches else "-"
        print(
            f"{level:<10}{summary['mth_round_ms']:>10.1f}{summary['overhead_time_weighted']:>9.3f}"
            f"{summary['overhead_geomean']:>9.3f}{summary['udf_executions']:>11}  {agreed}"
        )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=float, default=0.01, help="TPC-H scale factor")
    parser.add_argument("--tenants", type=int, default=10)
    parser.add_argument("--best-of", type=int, default=5)
    parser.add_argument("--shards", type=int, default=None, help="MT-H side on a sharded engine cluster")
    parser.add_argument("--scope", default="IN ()", help='the MT-H session\'s D, e.g. "IN (1,2,3)"; default all')
    parser.add_argument(
        "--levels", type=parse_levels, default=("o4",), help=f"comma list of {', '.join(LEVELS)}, or all; default o4"
    )
    parser.add_argument("--profile", choices=PROFILES, default="postgres", help="UDF-caching profile of both sides")
    parser.add_argument("--indexes", action="store_true", help="list the hash indexes held afterwards")
    parser.add_argument("--json", action="store_true", help="print the table as JSON")
    args = parser.parse_args(argv)
    table = probe(
        args.sf, args.tenants, args.best_of, args.shards, args.scope, args.indexes, args.levels, args.profile
    )
    if args.json:
        print(json.dumps(table, indent=1))
        return
    if "levels" in table:
        print_grid(table)
    else:
        print_queries(table)
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
