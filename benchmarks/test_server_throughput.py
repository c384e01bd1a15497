"""Network serving tier: throughput, tail latency and bounded-memory streaming.

Drives the asyncio :class:`~repro.server.ReproServer` with a fleet of
concurrent network clients issuing parameterized Q1/Q6-class MT-H queries,
and reports:

* aggregate **throughput** and the **p50/p95/p99** client-observed latency,
* **shed/timeout counts** from the admission controller (overload answers
  are structured and retryable, so clients back off and retry),
* that incremental FETCH keeps client-side memory **bounded** while
  draining a result far larger than any one batch.

Default scale keeps the tier-1 run fast; ``REPRO_BENCH_FULL=1`` raises the
fleet to 1024 concurrent connections (and ``REPRO_BENCH_SF`` scales the
data) for the paper-style load experiment.
"""

from __future__ import annotations

import asyncio
import statistics
import time
import tracemalloc

import pytest

from mth_workload import env_full, env_scale_factor
from repro.errors import ServerBusyError
from repro.mth.loader import load_mth
from repro.server import ReproServer, ServerConfig, SyncSession
from repro.server.client import AsyncSession

FULL = env_full()
SCALE = env_scale_factor(0.001)
TENANTS = 4
#: concurrent network connections (the paper-style run uses >= 1k)
CONNECTIONS = 1024 if FULL else 32
#: statements per connection
REQUESTS_EACH = 2 if FULL else 1

#: parameterized Q6: one compiled artifact serves every binding
Q6 = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_discount BETWEEN ? AND ? AND l_quantity < ?"
)
#: parameterized Q1-class aggregation (pricing summary with a bound filter)
Q1 = (
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "COUNT(*) AS count_ord FROM lineitem WHERE l_quantity < ? "
    "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
)


def bindings(index: int) -> tuple[str, tuple]:
    """Deterministic per-request statement + parameter vector."""
    if index % 2 == 0:
        return Q6, (0.02 + (index % 5) * 0.01, 0.08, 20 + index % 10)
    return Q1, (15 + index % 15,)


@pytest.fixture(scope="module")
def mth():
    return load_mth(scale_factor=SCALE, tenants=TENANTS, distribution="uniform")


@pytest.fixture(scope="module")
def gateway(mth):
    gateway = mth.middleware.gateway(cache_size=256)
    yield gateway
    gateway.close()


def test_network_throughput(benchmark, mth, gateway):
    """The headline numbers: throughput and tail latency of the network tier."""
    config = ServerConfig(concurrency=8, queue_depth=32, workers=8,
                          request_timeout=60.0)
    server = ReproServer(gateway, config=config).start()
    host, port = server.address
    latencies: list[float] = []
    total = CONNECTIONS * REQUESTS_EACH

    async def client(index: int) -> int:
        session = await AsyncSession.open(
            host, port, client=1 + index % TENANTS, optimization="o4"
        )
        done = 0
        try:
            for request in range(REQUESTS_EACH):
                sql, parameters = bindings(index + request)
                began = time.perf_counter()
                while True:
                    try:
                        result = await session.execute(sql, parameters=parameters)
                        break
                    except ServerBusyError:
                        await asyncio.sleep(0.002)  # retryable: back off
                latencies.append(time.perf_counter() - began)
                assert result.columns
                done += 1
        finally:
            await session.close()
        return done

    async def fleet() -> int:
        counts = await asyncio.gather(*(client(i) for i in range(CONNECTIONS)))
        return sum(counts)

    def run() -> int:
        latencies.clear()
        return asyncio.run(fleet())

    # warm the rewrite cache so the measured run is the serving steady state
    for client_id in range(1, TENANTS + 1):
        session = gateway.session(client_id, optimization="o4")
        for index in range(2):
            sql, parameters = bindings(index)
            session.execute(sql, parameters=parameters)
        session.close()

    started = time.perf_counter()
    completed = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    assert completed == total  # every request answered, none hung

    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    p50, p95, p99 = cuts[49], cuts[94], cuts[98]
    snapshot = server.admission_snapshot()

    benchmark.extra_info.update(
        {
            "connections": CONNECTIONS,
            "requests": total,
            "throughput_rps": round(completed / elapsed, 1),
            "p50_ms": round(p50 * 1e3, 2),
            "p95_ms": round(p95 * 1e3, 2),
            "p99_ms": round(p99 * 1e3, 2),
            "shed": snapshot.shed,
            "timeouts": server.timeouts,
            "peak_in_flight": snapshot.load.peak_in_flight,
            "peak_queued": snapshot.load.peak_queued,
        }
    )
    server.stop()
    assert len(latencies) == total
    assert p99 >= p95 >= p50 > 0
    # the server-wide peak is a true concurrent peak, not a sum of tenant peaks
    assert 0 < snapshot.load.peak_in_flight <= min(CONNECTIONS, TENANTS * config.concurrency)


def test_streaming_fetch_keeps_client_memory_bounded(benchmark, mth):
    """Draining a big scan in small FETCH batches never holds the result."""
    server = ReproServer(mth.middleware).start()
    host, port = server.address
    batch = 64
    session = SyncSession(host, port, client=1, scope="IN ()", optimization="o4")
    expected = len(session.query("SELECT COUNT(*) AS n FROM lineitem").rows) and (
        session.query("SELECT COUNT(*) AS n FROM lineitem").rows[0][0]
    )

    def drain() -> int:
        stream = session.execute_incremental("SELECT * FROM lineitem")
        seen = 0
        while True:
            rows = stream.fetchmany(batch)
            if not rows:
                break
            assert len(rows) <= batch
            seen += len(rows)
        return seen

    tracemalloc.start()
    seen = benchmark.pedantic(drain, rounds=1, iterations=1)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert seen == expected > batch  # the scan dwarfs any single batch
    # bounded: the drain holds batches, not the materialized result set
    assert peak < 16 * 1024 * 1024
    benchmark.extra_info.update(
        {"rows": seen, "batch": batch, "peak_bytes": peak}
    )
    session.close()
    server.stop()
