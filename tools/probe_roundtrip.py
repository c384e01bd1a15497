#!/usr/bin/env python3
"""Microsecond probe of one served round trip, by how far it travels.

Run with the checkout to measure on ``PYTHONPATH`` (``PYTHONPATH=src python
tools/probe_roundtrip.py``); it uses only calls every protocol revision has,
so the same file measures a parent checkout and a change.  One idle client
against the perf harness's server settings, MT-H on sqlite, the cached point
read ``SELECT … FROM nation WHERE n_nationkey = ?``; each line is the p50 of
``--rounds`` trips in µs:

* ``loop_only``   — ``set_scope`` reset: answered on the event loop,
* ``pool``        — ``prepare`` of a cached text: one hop to the worker pool,
* ``select``      — the served point read, rows fetched,
* ``in_process``  — the same statement through a ``GatewaySession``,
* ``select_busy`` — ``select`` while a second client hammers the same server.
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
from time import perf_counter_ns

from repro.backends import SQLiteBackend
from repro.mth import load_mth
from repro.server import ReproServer, ServerConfig, SyncSession

SQL = "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = ?"


def p50_us(fn, rounds: int) -> float:
    """Median wall time of ``fn()`` over ``rounds`` calls, in µs."""
    samples = []
    for _ in range(rounds):
        began = perf_counter_ns()
        fn()
        samples.append(perf_counter_ns() - began)
    return round(statistics.median(samples) / 1e3, 1)


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
    print(json.dumps(table))


if __name__ == "__main__":
    main()
