#!/usr/bin/env python3
"""Network serving demo: concurrent async clients against a repro.server.

Loads a micro MT-H instance onto a 2-shard tenant-partitioned cluster,
boots the asyncio serving tier in front of a query gateway, and drives it
with a fleet of concurrent network clients issuing **parameterized**
Q1/Q6-class statements over the wire protocol (one compiled artifact per
statement shape serves every binding).  The fleet is deliberately larger
than the admission capacity, so some requests are shed with a retryable
``SERVER_BUSY`` and retried after a backoff — the script reports

* aggregate throughput and p50/p95/p99 client-observed latency,
* the admission counters: admitted, shed, peak in-flight / peak queued,
* a demand-sized streaming FETCH draining a scan batch by batch.

Run with ``PYTHONPATH=src python examples/network_serving.py``; pass
``--clients N`` to change the fleet size and ``--shards N`` for the
cluster width.
"""

import argparse
import asyncio
import statistics
import time

from repro.errors import ServerBusyError
from repro.mth.loader import load_mth
from repro.server import ServerConfig, SyncSession, serve
from repro.server.client import AsyncSession

TENANTS = 4
SCALE_FACTOR = 0.001
REQUESTS_EACH = 3

#: parameterized Q6: revenue change for a discount/quantity band
Q6 = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_discount BETWEEN ? AND ? AND l_quantity < ?"
)
#: parameterized Q1-class pricing summary with a bound quantity filter
Q1 = (
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "COUNT(*) AS count_ord FROM lineitem WHERE l_quantity < ? "
    "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=24,
                        help="concurrent network clients (default: 24)")
    parser.add_argument("--shards", type=int, default=2,
                        help="shards in the backing cluster (default: 2)")
    return parser.parse_args()


def bindings(index: int) -> tuple[str, tuple]:
    """Deterministic per-request statement + parameter vector."""
    if index % 2 == 0:
        return Q6, (0.02 + (index % 5) * 0.01, 0.08, 20 + index % 10)
    return Q1, (15 + index % 15,)


async def run_fleet(host: str, port: int, clients: int) -> tuple[list, int]:
    """Drive the server with ``clients`` concurrent async sessions."""
    latencies: list[float] = []
    sheds = 0

    async def one_client(index: int) -> None:
        nonlocal sheds
        session = await AsyncSession.open(
            host, port, client=1 + index % TENANTS, optimization="o4"
        )
        try:
            for request in range(REQUESTS_EACH):
                sql, parameters = bindings(index + request)
                began = time.perf_counter()
                while True:
                    try:
                        result = await session.execute(sql, parameters=parameters)
                        break
                    except ServerBusyError:
                        sheds += 1  # retryable: back off and try again
                        await asyncio.sleep(0.005)
                latencies.append(time.perf_counter() - began)
                assert result.columns
        finally:
            await session.close()

    await asyncio.gather(*(one_client(i) for i in range(clients)))
    return latencies, sheds


def stream_demo(host: str, port: int) -> None:
    """Drain a scan through demand-sized FETCH batches (bounded memory)."""
    session = SyncSession(host, port, client=1, scope="IN ()", optimization="o4")
    try:
        stream = session.execute_incremental("SELECT * FROM lineitem")
        batches = rows = 0
        while True:
            batch = stream.fetchmany(64)
            if not batch:
                break
            batches += 1
            rows += len(batch)
        print(f"streaming fetch: {rows} rows in {batches} batches of <= 64 "
              f"(neither side ever held the full result)")
    finally:
        session.close()


def main() -> None:
    args = parse_args()
    print(f"loading MT-H: sf={SCALE_FACTOR}, {TENANTS} tenants, "
          f"{args.shards}-shard cluster ...")
    mth = load_mth(
        scale_factor=SCALE_FACTOR, tenants=TENANTS,
        distribution="uniform", shards=args.shards,
    )
    gateway = mth.middleware.gateway(cache_size=256)
    # a tiny admission budget so the demo visibly sheds under the burst
    # (fleet-per-tenant exceeds concurrency + queue_depth)
    config = ServerConfig(concurrency=2, queue_depth=1, workers=8,
                          request_timeout=30.0)
    with serve(gateway, config=config) as server:
        host, port = server.address
        total = args.clients * REQUESTS_EACH
        print(f"server on {host}:{port} — {args.clients} concurrent clients x "
              f"{REQUESTS_EACH} parameterized Q1/Q6 requests "
              f"(admission: {config.concurrency} in flight + "
              f"{config.queue_depth} queued per tenant)\n")

        began = time.perf_counter()
        latencies, client_sheds = asyncio.run(
            run_fleet(host, port, args.clients)
        )
        elapsed = time.perf_counter() - began

        assert len(latencies) == total  # every request answered eventually
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        print(f"throughput: {total / elapsed:.1f} requests/s "
              f"({total} requests in {elapsed:.2f}s)")
        print(f"latency: p50 {cuts[49] * 1e3:.2f}ms, "
              f"p95 {cuts[94] * 1e3:.2f}ms, p99 {cuts[98] * 1e3:.2f}ms")

        snapshot = server.admission_snapshot()
        print(f"admission: {snapshot.describe()}")
        print(f"clients saw {client_sheds} retryable SERVER_BUSY answers; "
              f"every one retried successfully\n")

        stream_demo(host, port)
    gateway.close()


if __name__ == "__main__":
    main()
