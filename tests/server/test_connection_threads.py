"""The thread-per-connection server: exact shared counters, the server-wide
``workers`` bound, deadlines past running work, drain, and disconnects.

Every test holds at most four connections and starts at most four threads
of its own.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.errors import RequestTimeoutError
from repro.gateway.session import GatewaySession
from repro.result import RowStream
from repro.server import ReproServer, ServerConfig, SyncSession, serve
from repro.server.protocol import PROTOCOL_VERSION, encode_frame, read_frame_blocking

from tests.conftest import build_paper_example

SQL = "SELECT E_name FROM Employees ORDER BY E_name"


def recorded_execution(monkeypatch, seconds, on_close=None):
    """Make every gateway execution sleep ``seconds`` and yield a two-row
    stream; the returned list gets each execution's ``[start, end]`` as it
    starts, ``end`` ``None`` until it returns."""
    runs = []

    def execute_incremental(self, statement, scope=None, parameters=None):
        runs.append(run := [time.monotonic(), None])
        time.sleep(seconds)
        run[1] = time.monotonic()
        return RowStream(["a"], iter([(1,), (2,)]), on_close=on_close)

    monkeypatch.setattr(GatewaySession, "execute_incremental", execute_incremental)
    return runs


def until(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def joined(*threads, seconds=10.0):
    """Join ``threads`` within ``seconds``; true once every one has ended."""
    for thread in threads:
        thread.join(seconds)
    return not any(thread.is_alive() for thread in threads)


def server_threads(before):
    """The live threads a server started since ``before`` was taken."""
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-server") and thread not in before
    ]


def test_counters_are_exact_under_four_racing_connections():
    rounds = 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: a lost update shows
    try:
        served_exactly(rounds)
    finally:
        sys.setswitchinterval(interval)


def served_exactly(rounds):
    with serve(build_paper_example()) as live:
        host, port = live.address
        sessions = [SyncSession(host, port, client=0) for _ in range(4)]
        served, admitted = live.requests_served, live.admission_snapshot().admitted
        start = threading.Barrier(len(sessions))
        failures = []

        def hammer(session):
            start.wait()
            try:
                for _ in range(rounds):
                    assert len(session.query(SQL).rows) == 3
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        clients = [threading.Thread(target=hammer, args=(s,)) for s in sessions]
        for client in clients:
            client.start()
        assert joined(*clients, seconds=60.0)
        assert failures == []
        assert live.requests_served - served == 4 * rounds
        snapshot = live.admission_snapshot()
        assert snapshot.admitted - admitted == 4 * rounds and snapshot.shed == 0
        assert snapshot.load.in_flight == 0
        assert live.connections_accepted == 4
        for session in sessions:
            session.close()


def test_one_worker_never_overlaps_two_tenants_executions(monkeypatch):
    runs = recorded_execution(monkeypatch, 0.15)
    with serve(build_paper_example(), config=ServerConfig(workers=1)) as live:
        host, port = live.address
        sessions = [SyncSession(host, port, client=t) for t in (0, 1)]
        clients = [
            threading.Thread(target=lambda s=s: [s.query(SQL) for _ in range(3)])
            for s in sessions
        ]
        for client in clients:
            client.start()
        assert joined(*clients)
        assert len(runs) == 6
        runs.sort()
        assert all(end <= began for (_, end), (began, _) in zip(runs, runs[1:]))
        for session in sessions:
            session.close()


def test_a_request_still_waiting_for_the_worker_at_its_deadline_never_runs(monkeypatch):
    runs = recorded_execution(monkeypatch, 0.8)
    config = ServerConfig(workers=1, request_timeout=0.4, drain_timeout=2.0)
    with serve(build_paper_example(), config=config) as live:
        host, port = live.address
        running, waiting = (SyncSession(host, port, client=t) for t in (0, 1))
        first = []
        holder = threading.Thread(
            target=lambda: first.append(pytest.raises(RequestTimeoutError, running.query, SQL))
        )
        holder.start()
        until(lambda: len(runs) == 1)  # the first request holds the worker
        began = time.monotonic()
        with pytest.raises(RequestTimeoutError, match="free worker"):
            waiting.query(SQL)
        assert time.monotonic() - began < 0.4 + 0.5
        assert joined(holder)
        assert first and len(runs) == 1  # only the first request ever ran
        until(lambda: live.admission_snapshot().load.in_flight == 0)
        assert live.timeouts == 2
        running.close()
        waiting.close()


def test_a_timed_out_execute_is_answered_while_its_work_still_runs(monkeypatch):
    closed = threading.Event()
    runs = recorded_execution(monkeypatch, 1.5, on_close=closed.set)
    config = ServerConfig(request_timeout=0.3, drain_timeout=3.0)
    with serve(build_paper_example(), config=config) as live:
        host, port = live.address
        gate = live.admission.gate(0)
        with SyncSession(host, port, client=0) as session:
            began = time.monotonic()
            with pytest.raises(RequestTimeoutError, match="abandoned"):
                session.query(SQL)
            assert time.monotonic() - began < 0.3 + 0.5
            assert runs[0][1] is None and gate.in_flight == 1  # the work runs on
            assert closed.wait(5)  # the abandoned result is closed
            until(lambda: gate.in_flight == 0)
            monkeypatch.undo()
            assert len(session.query(SQL).rows) == 3  # the next request is served
        assert live.timeouts == 1


def test_stop_joins_every_thread_the_server_started(monkeypatch):
    runs = recorded_execution(monkeypatch, 0.5)
    before = threading.enumerate()
    drain = 2.0
    server = ReproServer(build_paper_example(), config=ServerConfig(drain_timeout=drain))
    server.start()
    host, port = server.address
    idle = SyncSession(host, port, client=0)
    busy = SyncSession(host, port, client=1)
    answers = []
    client = threading.Thread(target=lambda: answers.append(busy.query(SQL).rows))
    client.start()
    until(lambda: len(runs) == 1)
    assert len(server_threads(before)) == 4  # accept, watcher, two connections
    began = time.monotonic()
    server.stop()
    until(lambda: not server_threads(before), seconds=drain + 1.0 - (time.monotonic() - began))
    assert joined(client)
    assert answers == [[(1,), (2,)]]  # the busy connection answered in the drain
    idle.close()
    busy.close()


def test_a_disconnect_during_execute_releases_the_slot_and_closes_the_stream(monkeypatch):
    closed = threading.Event()
    runs = recorded_execution(monkeypatch, 0.4, on_close=closed.set)
    with serve(build_paper_example()) as live:
        gate = live.admission.gate(0)
        with socket.create_connection(live.address) as sock, sock.makefile("rwb") as stream:
            stream.write(encode_frame({"op": "hello", "protocol": PROTOCOL_VERSION, "client": 0}))
            stream.flush()
            assert read_frame_blocking(stream)["ok"]
            # fetch=1 of two rows: the result will hold a cursor and the slot
            stream.write(encode_frame({"op": "execute", "statement": SQL, "fetch": 1}))
            stream.flush()
            until(lambda: len(runs) == 1)
        assert not closed.is_set()  # the client left while the work ran
        assert closed.wait(5)
        until(lambda: gate.in_flight == 0)
        assert len(runs) == 1
