#!/usr/bin/env python3
"""Microsecond probe of one served round trip, by how far it travels.

Run with the checkout to measure on ``PYTHONPATH`` (``PYTHONPATH=src python
tools/probe_roundtrip.py``); it uses only calls every protocol revision has,
so the same file measures a parent checkout and a change.  One idle client
against the perf harness's server settings, MT-H on sqlite, the cached point
read ``SELECT … FROM nation WHERE n_nationkey = ?``; each line is the p50 of
``--rounds`` trips in µs:

* ``loop_only``   — a ``set_scope`` reset: a trip answered without backend
  work,
* ``pool``        — a PREPARE of a cached text (both key names date from the
  asyncio server and are kept, so one file measures every server revision),
* ``select``      — the served point read, rows fetched,
* ``in_process``  — the same statement through a ``GatewaySession``,
* ``select_busy`` — ``select`` while a second client hammers the same server,
* ``drain``       — ``SELECT * FROM lineitem`` as tenant 1 through
  ``repro.api`` over an engine-backed server (MT-H sf ``DRAIN_SCALE``, 10
  tenants), ``fetchmany(256)`` until drained; the p50 of ``DRAINS`` drains,
  with the requests one drain costs (``drain_requests``, counted by the
  server), the reply frame bytes it reads (``drain_reply_bytes``) and the
  rows it returns (``drain_rows``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
from time import perf_counter_ns

import repro.api
import repro.server.server as server_module
from repro.backends import SQLiteBackend
from repro.mth import load_mth
from repro.server import ReproServer, ServerConfig, SyncSession

SQL = "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = ?"
DRAIN_SQL = "SELECT * FROM lineitem"
#: MT-H scale of the ``drain`` server, and the drains its p50 is taken over
DRAIN_SCALE = 0.01
DRAINS = 100


def p50_us(fn, rounds: int) -> float:
    """Median wall time of ``fn()`` over ``rounds`` calls, in µs."""
    samples = []
    for _ in range(rounds):
        began = perf_counter_ns()
        fn()
        samples.append(perf_counter_ns() - began)
    return round(statistics.median(samples) / 1e3, 1)


def drain() -> dict:
    """The ``drain`` lines: one served scan paged with ``fetchmany(256)``."""
    mth = load_mth(scale_factor=DRAIN_SCALE, tenants=10)
    gateway = mth.middleware.gateway(cache_size=256)
    server = ReproServer(gateway, config=ServerConfig(concurrency=2, workers=2)).start()
    host, port = server.address
    connection = repro.api.connect(f"server://{host}:{port}", client=1, optimization="o4")
    cursor = connection.cursor()
    # every reply frame the server writes goes through this module's encoder
    replies = []
    encode_frame = server_module.encode_frame

    def counted(message):
        frame = encode_frame(message)
        replies.append(len(frame))
        return frame

    def run() -> int:
        cursor.execute(DRAIN_SQL)
        rows = 0
        while page := cursor.fetchmany(256):
            rows += len(page)
        return rows

    rows = run()  # warm: the statement is prepared and cached
    server_module.encode_frame = counted
    try:
        before = server.requests_served
        assert run() == rows
        table = {"drain_requests": server.requests_served - before,
                 "drain_reply_bytes": sum(replies), "drain_rows": rows}
    finally:
        server_module.encode_frame = encode_frame
    table = {"drain": p50_us(run, DRAINS), **table}
    connection.close()
    server.stop()
    gateway.close()
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2000)
    rounds = parser.parse_args().rounds
    factory = SQLiteBackend()
    mth = load_mth(scale_factor=0.001, tenants=4, backend=factory)
    gateway = mth.middleware.gateway(cache_size=256)
    config = ServerConfig(concurrency=2, queue_depth=8, workers=2)
    server = ReproServer(gateway, config=config).start()
    host, port = server.address
    session = SyncSession(host, port, client=1, optimization="o4")
    local = gateway.session(1, optimization="o4")
    handle, local_handle = session.prepare(SQL), local.prepare(SQL)

    def select() -> None:
        assert len(session.execute(handle, parameters=(3,)).rows) == 1

    table = {
        "loop_only": p50_us(session.reset_scope, rounds),
        "pool": p50_us(lambda: session.prepare(SQL), rounds),
        "select": p50_us(select, rounds),
        "in_process": p50_us(
            lambda: local.execute(local_handle, parameters=(3,)), rounds
        ),
    }
    stop = threading.Event()

    def hammer() -> None:
        with SyncSession(host, port, client=2, optimization="o4") as busy:
            busy_handle = busy.prepare(SQL)
            while not stop.is_set():
                busy.execute(busy_handle, parameters=(5,))

    thread = threading.Thread(target=hammer, daemon=True)
    thread.start()
    table["select_busy"] = p50_us(select, rounds)
    stop.set()
    thread.join()
    session.close()
    server.stop()
    gateway.close()
    factory.close()
    table.update(drain())
    print(json.dumps(table))


if __name__ == "__main__":
    main()
