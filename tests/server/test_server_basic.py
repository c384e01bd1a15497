"""End-to-end serving: the DB-API surface and the async client over TCP."""

from __future__ import annotations

import asyncio
import contextlib
import socket
import struct
import threading

import pytest

import repro.api as api
from repro.errors import (
    InvalidStatementError,
    ParameterError,
    ProtocolError,
    ScopeError,
    ServerError,
)
from repro.server import ReproServer, ServerConfig, SyncSession, serve
from repro.server.client import AsyncSession, RemoteRowStream
from repro.server.loopback import loopback_server, shutdown_loopbacks
from repro.server.protocol import PROTOCOL_VERSION, encode_frame, read_frame_blocking

from tests.conftest import build_paper_example

SQL_BY_NAME = "SELECT E_name FROM Employees ORDER BY E_name"
SQL_SALARY = (
    "SELECT E_name, E_salary FROM Employees WHERE E_salary > ? ORDER BY E_name"
)


@pytest.fixture(scope="module")
def mt():
    """A read-only paper example shared by the query tests of this module."""
    return build_paper_example()


@pytest.fixture(scope="module")
def server(mt):
    with serve(mt) as live:
        yield live


@pytest.fixture(scope="module")
def spec(server):
    host, port = server.address
    return f"server://{host}:{port}"


def in_process_rows(mt, client, sql, scope="IN (0, 1)", parameters=None):
    connection = mt.connect(client, optimization="o4")
    connection.set_scope(scope)
    return connection.query(sql, parameters=parameters).rows


# ---------------------------------------------------------------------------
# the DB-API surface over the wire
# ---------------------------------------------------------------------------


def test_select_over_the_wire_matches_in_process(mt, spec):
    with api.connect(spec, client=0, optimization="o4", scope="IN (0, 1)") as conn:
        rows = conn.cursor().execute(SQL_BY_NAME).fetchall()
    assert rows == in_process_rows(mt, 0, SQL_BY_NAME)
    assert len(rows) == 6


def test_bind_parameters_travel_and_convert(mt, spec):
    with api.connect(spec, client=1, optimization="o4", scope="IN (0, 1)") as conn:
        cursor = conn.cursor()
        rows = cursor.execute(SQL_SALARY, (100_000,)).fetchall()
        assert rows == in_process_rows(mt, 1, SQL_SALARY, parameters=(100_000,))
        named = cursor.execute(
            "SELECT E_name FROM Employees WHERE E_salary > :floor ORDER BY E_name",
            {"floor": 100_000},
        ).fetchall()
        assert [row[0] for row in rows] == [row[0] for row in named]


def test_incremental_fetch_is_demand_sized(spec):
    with api.connect(spec, client=0, optimization="o4", scope="IN (0, 1)") as conn:
        cursor = conn.cursor().execute(SQL_BY_NAME)
        first = cursor.fetchmany(2)
        second = cursor.fetchmany(2)
        assert len(first) == 2 and len(second) == 2
        assert cursor.fetchone() is not None
        rest = cursor.fetchall()
        assert len(rest) == 1
        assert cursor.fetchone() is None
        assert cursor.rowcount == 6


def test_multiple_interleaved_cursors_on_one_connection(spec):
    with api.connect(spec, client=0, optimization="o4", scope="IN (0, 1)") as conn:
        a = conn.cursor().execute(SQL_BY_NAME)
        b = conn.cursor().execute("SELECT E_age FROM Employees ORDER BY E_age")
        assert a.fetchone() is not None
        assert b.fetchone() is not None
        assert len(a.fetchall()) == 5
        assert len(b.fetchall()) == 5


def test_errors_arrive_as_the_same_exception_classes(spec):
    with api.connect(spec, client=0, optimization="o4", scope="IN (0)") as conn:
        cursor = conn.cursor()
        with pytest.raises(InvalidStatementError):
            cursor.execute("SELEC nope")
        with pytest.raises(ParameterError):
            cursor.execute(SQL_SALARY)  # placeholder without a binding
        with pytest.raises(ScopeError):
            api.connect(spec, client=0, scope="NOT A SCOPE")
        # the connection survives statement errors
        assert len(cursor.execute(SQL_BY_NAME).fetchall()) == 3


def test_dml_through_the_wire_hits_the_mt_pipeline():
    mt = build_paper_example()
    with serve(mt) as live:
        host, port = live.address
        with api.connect(
            f"server://{host}:{port}", client=0, optimization="o4", scope="IN (0)"
        ) as conn:
            cursor = conn.cursor()
            cursor.execute(
                "INSERT INTO Employees VALUES (?, ?, ?, ?, ?, ?)",
                (7, "Zoe", 1, 3, 42_000, 33),
            )
            assert cursor.rowcount >= 1
            rows = cursor.execute(SQL_BY_NAME).fetchall()
            assert ("Zoe",) in rows
    # the write landed in the shared middleware, not in a network-side copy
    assert ("Zoe",) in in_process_rows(mt, 0, SQL_BY_NAME, scope="IN (0)")


def test_sync_session_ducktypes_a_gateway_session(mt, spec, server):
    host, port = server.address
    with SyncSession(host, port, client=0, scope="IN (0, 1)", optimization="o4") as session:
        assert session.session_id >= 0
        handle = session.prepare(SQL_BY_NAME)
        stream = session.execute_incremental(handle)
        assert isinstance(stream, RemoteRowStream)
        assert stream.fetchmany(3) == in_process_rows(mt, 0, SQL_BY_NAME)[:3]
        stream.close()  # early close frees the server-side cursor
        assert session.query(handle).rows == in_process_rows(mt, 0, SQL_BY_NAME)
        session.close_prepared(handle)
        assert "compilation" in session.explain(SQL_BY_NAME)
        session.set_scope("IN (0)")
        assert len(session.query(SQL_BY_NAME).rows) == 3
        session.reset_scope()


def test_server_spec_validation():
    with pytest.raises(Exception, match="requires a client"):
        api.connect("server://localhost:5433")
    for bad in ("server://nohost", "server://host:port", "server://host:0"):
        with pytest.raises(Exception, match="malformed|requires"):
            api.connect(bad, client=0)


# ---------------------------------------------------------------------------
# the async client
# ---------------------------------------------------------------------------


def test_async_session_full_surface(mt, server):
    host, port = server.address

    async def main():
        async with await AsyncSession.open(
            host, port, client=1, scope="IN (0, 1)", optimization="o4"
        ) as session:
            result = await session.execute(SQL_BY_NAME)
            assert result.rows == in_process_rows(mt, 1, SQL_BY_NAME)
            handle = await session.prepare(SQL_SALARY)
            bound = await session.execute(handle, parameters=(100_000,))
            assert bound.rows == in_process_rows(
                mt, 1, SQL_SALARY, parameters=(100_000,)
            )
            assert "compilation" in await session.explain(SQL_BY_NAME)
            await session.set_scope("IN (1)")
            scoped = await session.execute(SQL_BY_NAME)
            assert len(scoped.rows) == 3

    asyncio.run(main())


def test_async_incremental_cursor_protocol(server):
    host, port = server.address

    async def main():
        session = await AsyncSession.open(
            host, port, client=0, scope="IN (0, 1)", optimization="o4"
        )
        reply = await session.begin_execute(SQL_BY_NAME)
        assert reply["kind"] == "rows" and reply["columns"] == ["E_name"]
        rows, eof = await session.fetch(reply["cursor"], 4)
        assert len(rows) == 4 and not eof
        rows, eof = await session.fetch(reply["cursor"], 4)
        assert len(rows) == 2 and eof
        await session.close()

    asyncio.run(main())


# ---------------------------------------------------------------------------
# loopback rerouting (the CI mechanism)
# ---------------------------------------------------------------------------


def test_loopback_reroutes_middleware_and_gateway(monkeypatch):
    monkeypatch.setenv("REPRO_API_VIA_SERVER", "1")
    mt = build_paper_example()
    gateway = mt.gateway()
    try:
        with api.connect(mt, client=0, optimization="o4", scope="IN (0, 1)") as conn:
            target_session = conn._target._session
            assert isinstance(target_session, SyncSession)
            assert len(conn.cursor().execute(SQL_BY_NAME).fetchall()) == 6
        assert loopback_server(mt) is not None
        with api.connect(gateway, client=1, optimization="o4", scope="IN (1)") as conn:
            assert isinstance(conn._target._session, SyncSession)
            assert len(conn.cursor().execute(SQL_BY_NAME).fetchall()) == 3
        assert loopback_server(gateway) is not None
        # one server per target object, reused across connections
        first = loopback_server(mt)
        with api.connect(mt, client=1, optimization="o4") as conn:
            conn.cursor().execute("SELECT COUNT(*) FROM Employees").fetchall()
        assert loopback_server(mt) is first
        # missing client ids still fail fast, before any server boots
        with pytest.raises(Exception, match="requires a client"):
            api.connect(mt)
    finally:
        shutdown_loopbacks()
        gateway.close()


# ---------------------------------------------------------------------------
# paging: round trips per drain, and where a page is encoded
# ---------------------------------------------------------------------------


def test_fetchall_drains_in_pages_while_row_access_stays_exact_demand(server, spec):
    with api.connect(spec, client=0, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        cursor.execute(SQL_BY_NAME)  # prepares: later executes are one request
        assert len(cursor.fetchall()) == 6

        before = server.requests_served
        cursor.execute(SQL_BY_NAME)
        assert len(cursor.fetchall()) == 6
        # EXECUTE + one DRAIN_BATCH page (was one FETCH per row, plus the eof probe)
        assert server.requests_served - before == 2
        assert cursor.rowcount == 6

        before = server.requests_served
        cursor.execute(SQL_BY_NAME)
        assert cursor.fetchone() is not None
        assert len(list(cursor)) == 5
        # EXECUTE + six single-row FETCHes + the empty eof page: no read-ahead
        assert server.requests_served - before == 8


def test_fetch_replies_are_encoded_on_a_worker_thread(server, spec, monkeypatch):
    import repro.server.server as server_module

    encoders = []

    def recording(rows):
        encoders.append(threading.current_thread().name)
        return real(rows)

    real = server_module.encode_rows
    monkeypatch.setattr(server_module, "encode_rows", recording)
    with api.connect(spec, client=0, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        cursor.execute(SQL_BY_NAME)
        assert len(cursor.fetchmany(4)) == 4 and len(cursor.fetchmany(4)) == 2
    assert len(encoders) == 2
    # the pool's threads are "repro-server_<n>", the event loop "repro-server-loop"
    assert all(name.startswith("repro-server_") for name in encoders), encoders


# ---------------------------------------------------------------------------
# lifecycle and protocol robustness
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def scripted_server(*replies):
    """A one-connection peer answering each request with the next scripted reply."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        peer, _ = listener.accept()
        with peer, peer.makefile("rwb") as stream:
            for reply in replies:
                if read_frame_blocking(stream) is None:
                    return
                stream.write(encode_frame(reply))
                stream.flush()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


HELLO_OK = {"ok": True, "session_id": 1, "protocol": PROTOCOL_VERSION}
ROWS_CURSOR = {"ok": True, "kind": "rows", "cursor": 1, "columns": ["a", "b"]}


@pytest.mark.parametrize(
    "page",
    [
        {"cols": [[1, 2, 3], ["x", "y"]], "tags": []},  # ragged
        {"cols": [[1], [2]], "tags": [[5, "date"]]},  # tag index out of range
        {"cols": [[1], [2.5]], "tags": [[1, "date"]]},  # non-int day ordinal
        [[1, "x"]],  # the version-1 row list
        None,
    ],
)
def test_a_hostile_page_tears_the_sync_session_down(page):
    fetch = {"ok": True, "eof": False} if page is None else {"ok": True, "rows": page, "eof": False}
    with scripted_server(HELLO_OK, ROWS_CURSOR, fetch) as (host, port):
        session = SyncSession(host, port, client=0, timeout=5)
        stream = session.execute_incremental("SELECT a, b FROM t")
        with pytest.raises(ProtocolError):
            stream.fetchmany(3)
        with pytest.raises(ServerError, match="closed"):
            session.prepare("SELECT 1")


def test_a_hostile_page_tears_the_async_session_down():
    async def scenario(host, port):
        session = await AsyncSession.open(host, port, client=0)
        reply = await session.begin_execute("SELECT a, b FROM t")
        with pytest.raises(ProtocolError):
            await session.fetch(reply["cursor"], 3)
        with pytest.raises(ServerError, match="closed"):
            await session.prepare("SELECT 1")

    ragged = {"ok": True, "rows": {"cols": [[1, 2], [3]], "tags": []}, "eof": True}
    with scripted_server(HELLO_OK, ROWS_CURSOR, ragged) as (host, port):
        asyncio.run(scenario(host, port))


@pytest.mark.parametrize("hello", [{"protocol": PROTOCOL_VERSION - 1}, {}])
def test_server_refuses_a_client_of_another_protocol_version(server, hello):
    host, port = server.address
    with socket.create_connection((host, port)) as raw:
        stream = raw.makefile("rwb")
        stream.write(encode_frame({"op": "hello", "client": 0, **hello}))
        stream.flush()
        reply = read_frame_blocking(stream)
        assert reply["ok"] is False and reply["error"] == "PROTOCOL"
        assert "protocol" in reply["message"]
        assert stream.read(1) == b""  # and the connection is closed


def test_clients_refuse_a_server_of_another_protocol_version():
    other = {**HELLO_OK, "protocol": PROTOCOL_VERSION + 1}
    with scripted_server(other) as (host, port):
        with pytest.raises(ProtocolError, match="protocol"):
            SyncSession(host, port, client=0, timeout=5)
    with scripted_server(other) as (host, port):
        with pytest.raises(ProtocolError, match="protocol"):
            asyncio.run(AsyncSession.open(host, port, client=0))


def test_graceful_stop_drains_and_refuses_further_requests():
    mt = build_paper_example()
    server = ReproServer(mt, config=ServerConfig(drain_timeout=2.0))
    server.start()
    host, port = server.address
    session = SyncSession(host, port, client=0, scope="IN (0)", optimization="o4")
    assert len(session.query(SQL_BY_NAME).rows) == 3
    server.stop()
    server.stop()  # idempotent
    with pytest.raises(Exception):
        session.query(SQL_BY_NAME)
    session.close()


def test_request_before_hello_is_a_protocol_violation():
    mt = build_paper_example()
    with serve(mt) as live:
        host, port = live.address
        with socket.create_connection((host, port)) as raw:
            stream = raw.makefile("rwb")
            stream.write(encode_frame({"op": "prepare", "sql": "SELECT 1"}))
            stream.flush()
            reply = read_frame_blocking(stream)
            assert reply["ok"] is False and reply["error"] == "PROTOCOL"
            # the server closed the connection after the violation
            assert stream.read(1) == b""


def test_oversized_frame_closes_the_connection():
    mt = build_paper_example()
    with serve(mt) as live:
        host, port = live.address
        with socket.create_connection((host, port)) as raw:
            raw.sendall(struct.pack(">I", 1 << 30))
            stream = raw.makefile("rb")
            reply = read_frame_blocking(stream)
            assert reply["ok"] is False and reply["error"] == "PROTOCOL"
            assert stream.read(1) == b""


def test_hello_requires_an_integer_client():
    mt = build_paper_example()
    with serve(mt) as live:
        host, port = live.address
        with pytest.raises(ProtocolError, match="client"):
            SyncSession(host, port, client="zero")  # type: ignore[arg-type]
