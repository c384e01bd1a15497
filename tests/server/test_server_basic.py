"""End-to-end serving: the DB-API surface and the async client over TCP."""

from __future__ import annotations

import asyncio
import contextlib
import socket
import struct
import threading
import time

import pytest

import repro.api as api
from repro.core import MTBase
from repro.errors import (
    InvalidStatementError,
    ParameterError,
    ProtocolError,
    RequestTimeoutError,
    ScopeError,
    ServerError,
)
from repro.gateway.session import GatewaySession
from repro.result import RowStream
from repro.server import ReproServer, ServerConfig, SyncSession, serve
from repro.server.client import AsyncSession, RemoteRowStream
from repro.server.protocol import (
    PAGE_ROWS,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame_blocking,
)

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
# paging: round trips per drain, and where a page is encoded
# ---------------------------------------------------------------------------


def test_a_result_that_fits_the_first_page_is_one_request(server, spec):
    with api.connect(spec, client=0, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        before = server.requests_served
        cursor.execute(SQL_BY_NAME)  # a new text: prepared by this same request
        assert len(cursor.fetchall()) == 6
        assert server.requests_served - before == 1
        assert cursor.rowcount == 6

        before = server.requests_served
        cursor.execute(SQL_BY_NAME)
        assert cursor.fetchone() is not None
        assert len(list(cursor)) == 5
        assert cursor.fetchone() is None
        # every row came out of the page buffered with the EXECUTE reply
        assert server.requests_served - before == 1

        before = server.requests_served
        cursor.execute(SQL_BY_NAME)
        assert len(cursor.fetchmany(4)) == 4
        cursor.close()  # early close of an eof page: nothing to tell the server
        assert server.requests_served - before == 1


def test_one_row_past_the_first_page_costs_exactly_one_fetch(server, spec):
    sql = (
        "SELECT a.E_name FROM Employees a, Employees b, Employees c, Employees d "
        f"LIMIT {PAGE_ROWS + 1}"
    )
    with api.connect(spec, client=0, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        before = server.requests_served
        assert len(cursor.execute(sql).fetchall()) == PAGE_ROWS + 1
        assert server.requests_served - before == 2  # EXECUTE + one FETCH

        before = server.requests_served
        cursor.execute(sql)
        assert len(cursor.fetchmany(PAGE_ROWS - 6)) == PAGE_ROWS - 6
        assert server.requests_served - before == 1  # still inside the page
        # a short buffer is topped up with one FETCH of at least a page
        assert len(cursor.fetchmany(10)) == 7
        assert server.requests_served - before == 2
        assert cursor.fetchmany(10) == []
        assert server.requests_served - before == 2 and cursor.rowcount == PAGE_ROWS + 1

        before = server.requests_served
        cursor.execute(sql)
        cursor.close()  # the server still holds a cursor: CLOSE_CURSOR frees it
        assert server.requests_served - before == 2
    assert server.admission.tenant_snapshot(0).load.in_flight == 0


#: a 6⁵ = 7 776-row cross product of the six employees in scope IN (0, 1)
SQL_MANY = (
    "SELECT a.E_name, b.E_age FROM Employees a, Employees b, Employees c, "
    "Employees d, Employees e LIMIT {}"
)


@pytest.fixture
def fetches(monkeypatch):
    """The row count of every FETCH the blocking client sends, in order."""
    sent = []
    real = SyncSession._fetch

    def recording(self, cursor_id, n):
        sent.append(n)
        return real(self, cursor_id, n)

    monkeypatch.setattr(SyncSession, "_fetch", recording)
    return sent


def test_fetchmany_256_drains_3000_rows_in_one_execute_and_two_fetches(server, spec, fetches):
    with api.connect(spec, client=0, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        before = server.requests_served
        cursor.execute(SQL_MANY.format(3000))
        drained = []
        while page := cursor.fetchmany(256):
            drained += page
        assert len(drained) == 3000
        assert server.requests_served - before == 3  # EXECUTE + 2 FETCH
        assert fetches == [PAGE_ROWS, PAGE_ROWS]
    assert server.admission.tenant_snapshot(0).load.in_flight == 0


def test_fetchone_costs_one_fetch_per_page_not_per_row(server, spec, fetches):
    with api.connect(spec, client=0, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        before = server.requests_served
        cursor.execute(SQL_MANY.format(2000))
        count = 0
        while cursor.fetchone() is not None:
            count += 1
        assert count == 2000
        assert server.requests_served - before == 2  # EXECUTE + 1 FETCH
        assert fetches == [PAGE_ROWS]


def test_a_demand_beyond_the_page_is_one_fetch_of_the_shortfall(server, spec, fetches):
    with api.connect(spec, client=0, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        before = server.requests_served
        cursor.execute(SQL_MANY.format(6000))
        assert len(cursor.fetchmany(5000)) == 5000
        assert server.requests_served - before == 2
        assert fetches == [5000 - PAGE_ROWS]  # nothing read ahead past the demand
        assert len(cursor.fetchall()) == 1000
        assert fetches == [5000 - PAGE_ROWS, PAGE_ROWS]


def test_an_early_close_with_rows_buffered_sends_one_close_cursor(server, spec, fetches):
    with api.connect(spec, client=0, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        before = server.requests_served
        cursor.execute(SQL_MANY.format(3000))
        assert len(cursor.fetchmany(PAGE_ROWS + 10)) == PAGE_ROWS + 10
        assert server.admission.tenant_snapshot(0).load.in_flight == 1
        cursor.close()  # PAGE_ROWS - 10 rows still buffered, the cursor open
        assert server.requests_served - before == 3  # EXECUTE + FETCH + CLOSE_CURSOR
        assert fetches == [PAGE_ROWS]
    assert server.admission.tenant_snapshot(0).load.in_flight == 0


def test_pages_of_long_rows_shrink_to_fit_a_frame(fetches):
    # 1 024 rows of 20 KiB pass MAX_FRAME_BYTES: each page is cut in half
    # and the rows it left out wait on the server's cursor
    mt = MTBase()
    mt.create_table(
        "CREATE TABLE Docs GLOBAL (D_id INTEGER NOT NULL, D_body VARCHAR(20480) NOT NULL)"
    )
    bodies = [letter * 20480 for letter in "abcdefghijklm"]
    mt.backend.execute(
        "INSERT INTO Docs VALUES "
        + ", ".join(f"({key}, '{body}')" for key, body in enumerate(bodies))
    )
    mt.register_tenant(0, "t0")
    sql = "SELECT a.D_body FROM Docs a, Docs b, Docs c LIMIT 2000"
    expected = mt.connect(0).query(sql).rows
    assert len(expected) == 2000
    with serve(mt) as live:
        host, port = live.address
        with api.connect(f"server://{host}:{port}", client=0) as connection:
            cursor = connection.cursor()
            before = live.requests_served
            cursor.execute(sql)
            assert list(iter(cursor.fetchone, None)) == expected
            # 512 rows a frame: EXECUTE + 3 FETCH, the last one short at eof
            assert live.requests_served - before == 4
            assert fetches == [PAGE_ROWS] * 3
            assert cursor.execute(sql).fetchall() == expected
            # a demand the short pages cannot meet at once is met in full
            assert cursor.execute(sql).fetchmany(1500) == expected[:1500]
            assert cursor.execute("SELECT COUNT(*) FROM Docs").fetchall() == [(13,)]
        assert live.admission.tenant_snapshot(0).load.in_flight == 0


def test_a_dbapi_visit_is_one_frame_per_statement_plus_hello_and_close(server, spec):
    texts = [
        f"SELECT E_name FROM Employees WHERE E_age > ? AND E_salary > {floor}"
        for floor in range(8)
    ]
    before = server.requests_served
    with api.connect(spec, client=1, scope="IN (0, 1)") as connection:
        cursor = connection.cursor()
        for _ in range(5):
            for text in texts:
                assert len(cursor.execute(text, (0,)).fetchall()) == 6
    # no PREPARE, no FETCH, no CLOSE_PREPARED: 1 HELLO + 40 EXECUTE + 1 CLOSE
    assert server.requests_served - before == 42


def test_a_direct_prepare_stays_eager(server):
    host, port = server.address
    with SyncSession(host, port, client=0) as session:
        with pytest.raises(InvalidStatementError):
            session.prepare("SELEC nope")
        with pytest.raises(InvalidStatementError):
            session.prepare_execute("SELEC nope")
        handle, stream = session.prepare_execute(SQL_SALARY, parameters=(0,))
        assert len(stream.materialize().rows) == 3
        assert len(session.query(handle, parameters=(0,)).rows) == 3


def test_the_slot_is_free_once_an_eof_reply_is_written(server):
    host, port = server.address

    def in_flight():
        return server.admission.tenant_snapshot(1).load.in_flight

    async def main():
        async with await AsyncSession.open(host, port, client=1, scope="IN (0, 1)") as session:
            reply = await session.begin_execute(SQL_BY_NAME, fetch=PAGE_ROWS)
            assert reply["eof"] is True and "cursor" not in reply
            assert len(reply["rows"]["cols"][0]) == 6
            assert in_flight() == 0  # before any client fetch
            reply = await session.begin_execute(SQL_BY_NAME)  # fetch: 0
            assert reply["eof"] is False and reply["rows"] == {"cols": [], "tags": []}
            assert in_flight() == 1  # the open cursor pins the slot
            exact = await session.begin_execute(SQL_BY_NAME, fetch=6)
            assert exact["eof"] is False and in_flight() == 2  # eof is a short page
            await session.close_cursor(exact["cursor"])
            await session.close_cursor(reply["cursor"])
            assert in_flight() == 0

    asyncio.run(main())


def test_pages_are_encoded_on_a_worker_thread(server, spec, monkeypatch):
    import repro.server.protocol as protocol_module
    import repro.server.server as server_module

    encoders = []

    def recording(rows):
        encoders.append(threading.current_thread().name)
        return real(rows)

    real = server_module.encode_rows
    monkeypatch.setattr(server_module, "encode_rows", recording)  # FETCH pages
    monkeypatch.setattr(protocol_module, "encode_rows", recording)  # the first page
    monkeypatch.setattr("repro.server.client.PAGE_ROWS", 4)
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
EMPTY_PAGE = {"cols": [], "tags": []}
ROWS_CURSOR = {"ok": True, "kind": "rows", "columns": ["a", "b"],
               "rows": EMPTY_PAGE, "eof": False, "cursor": 1}


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


HOSTILE_ROWS_REPLIES = {
    "rows but no eof": {"rows": EMPTY_PAGE, "cursor": 1},
    "eof together with a cursor": {"rows": EMPTY_PAGE, "eof": True, "cursor": 1},
    "short of eof without a cursor": {"rows": EMPTY_PAGE, "eof": False},
    "a boolean cursor": {"rows": EMPTY_PAGE, "eof": False, "cursor": True},
    "eof as a number": {"rows": EMPTY_PAGE, "eof": 1},
    "no first page": {"eof": True},
    "a ragged first page": {"rows": {"cols": [[1, 2], [3]], "tags": []}, "eof": True},
    "the version-2 reply": {"cursor": 1},
}


@pytest.mark.parametrize("name", HOSTILE_ROWS_REPLIES)
def test_a_hostile_execute_reply_tears_both_clients_down(name):
    reply = {"ok": True, "kind": "rows", "columns": ["a", "b"], **HOSTILE_ROWS_REPLIES[name]}
    with scripted_server(HELLO_OK, reply) as (host, port):
        session = SyncSession(host, port, client=0, timeout=5)
        with pytest.raises(ProtocolError):
            session.execute_incremental("SELECT a, b FROM t")
        with pytest.raises(ServerError, match="closed"):
            session.prepare("SELECT 1")

    async def scenario(host, port):
        session = await AsyncSession.open(host, port, client=0)
        with pytest.raises(ProtocolError):
            await session.execute("SELECT a, b FROM t")
        with pytest.raises(ServerError, match="closed"):
            await session.prepare("SELECT 1")

    with scripted_server(HELLO_OK, reply) as (host, port):
        asyncio.run(scenario(host, port))


@pytest.mark.parametrize("handle", [None, "7", True, 1.5])
def test_a_preparing_execute_reply_must_name_its_handle(handle):
    reply = {"ok": True, "kind": "rows", "columns": ["a"], "rows": EMPTY_PAGE,
             "eof": True, "handle": handle}
    with scripted_server(HELLO_OK, reply) as (host, port):
        session = SyncSession(host, port, client=0, timeout=5)
        with pytest.raises(ProtocolError, match="handle"):
            session.prepare_execute("SELECT a FROM t")
        with pytest.raises(ServerError, match="closed"):
            session.prepare("SELECT 1")


def raw_request(server, *messages):
    """HELLO as tenant 0 on a raw socket, send ``messages``, return the replies
    (``None`` once the server has closed the connection)."""
    host, port = server.address
    with socket.create_connection((host, port)) as raw:
        stream = raw.makefile("rwb")
        replies = []
        for message in ({"op": "hello", "protocol": PROTOCOL_VERSION, "client": 0}, *messages):
            try:
                stream.write(encode_frame(message))
                stream.flush()
                replies.append(read_frame_blocking(stream))
            except ConnectionError:  # writing into a closed connection resets it
                replies.append(None)
        return replies[1:]


@pytest.mark.parametrize(
    "fields",
    [{}, {"fetch": -1}, {"fetch": True}, {"fetch": 2.0}, {"fetch": "2"}, {"fetch": None},
     {"fetch": 2, "prepare": "yes"}, {"fetch": 2, "prepare": 1}],
)
def test_execute_with_a_malformed_fetch_or_prepare_field_is_a_protocol_violation(server, fields):
    execute = {"op": "execute", "statement": SQL_BY_NAME, **fields}
    reply, after = raw_request(server, execute, {"op": "set_scope", "scope": None})
    assert reply["ok"] is False and reply["error"] == "PROTOCOL"
    assert "fetch" in reply["message"] or "prepare" in reply["message"]
    # the existing rule for protocol violations: answered, then disconnected —
    # and no slot was taken on the way
    assert after is None
    assert server.admission.tenant_snapshot(0).load.in_flight == 0


def test_execute_cannot_prepare_a_handle(server):
    (prepared,) = raw_request(server, {"op": "prepare", "sql": SQL_BY_NAME})
    (reply,) = raw_request(
        server, {"op": "execute", "statement": prepared["handle"], "fetch": 1, "prepare": True}
    )
    assert reply["ok"] is False and reply["error"] == "PROTOCOL"


def test_a_preparing_execute_answers_the_handle_and_a_failing_one_keeps_none(server):
    good = {"op": "execute", "statement": SQL_BY_NAME, "fetch": 2, "prepare": True}
    bad = {"op": "execute", "statement": SQL_SALARY, "fetch": 2, "prepare": True}
    first, failed = raw_request(server, good, bad)
    assert first["kind"] == "rows" and first["eof"] is False and type(first["handle"]) is int
    assert failed["ok"] is False and failed["error"] == "PARAMETER"
    # the handle of the failed execution was dropped again, not leaked
    by_handle = {"op": "execute", "statement": first["handle"] + 1, "fetch": 2}
    _first, _failed, orphan, reuse = raw_request(
        server, good, bad, by_handle, {**by_handle, "statement": first["handle"]}
    )
    assert orphan["ok"] is False and "unknown prepared-statement handle" in orphan["message"]
    assert reuse["kind"] == "rows" and "handle" not in reuse


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


@pytest.mark.parametrize("version", [2, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1])
def test_clients_refuse_a_server_of_another_protocol_version(version):
    other = {**HELLO_OK, "protocol": version}
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


def slow_execution(monkeypatch, seconds, on_close=None):
    """Make every gateway execution take ``seconds`` and yield a two-row stream."""

    def execute_incremental(self, statement, scope=None, parameters=None):
        time.sleep(seconds)
        return RowStream(["a"], iter([(1,), (2,)]), on_close=on_close)

    monkeypatch.setattr(GatewaySession, "execute_incremental", execute_incremental)


def test_a_timed_out_execute_frees_its_slot_only_when_the_worker_finishes(monkeypatch):
    closed = threading.Event()
    slow_execution(monkeypatch, 0.6, on_close=closed.set)
    config = ServerConfig(request_timeout=0.2, drain_timeout=2.0)
    with serve(build_paper_example(), config=config) as live:
        host, port = live.address
        gate = live.admission.gate(0)

        async def main():
            async with await AsyncSession.open(host, port, client=0) as session:
                with pytest.raises(RequestTimeoutError):
                    # fetch=1 of two rows: the worker will come back with an
                    # open stream nobody is going to read
                    await session.begin_execute(SQL_BY_NAME, fetch=1)
                assert gate.in_flight == 1 and not closed.is_set()  # still running
                assert closed.wait(5)
                for _ in range(100):
                    if gate.in_flight == 0:
                        break
                    await asyncio.sleep(0.01)
                assert gate.in_flight == 0
                await session.set_scope(None)  # the connection survived

        asyncio.run(main())
        assert live.timeouts == 1


def test_stop_cancels_idle_connections_while_a_busy_one_gets_its_answer(monkeypatch):
    slow_execution(monkeypatch, 0.5)
    server = ReproServer(build_paper_example(), config=ServerConfig(drain_timeout=5.0))
    server.start()
    host, port = server.address
    idle = SyncSession(host, port, client=0)
    busy = SyncSession(host, port, client=1)
    answers = []
    worker = threading.Thread(target=lambda: answers.append(busy.query(SQL_BY_NAME).rows))
    worker.start()
    time.sleep(0.1)  # the busy request is on its worker by now
    began = time.perf_counter()
    server.stop()
    elapsed = time.perf_counter() - began
    worker.join(timeout=5)
    assert answers == [[(1,), (2,)]]  # answered during the drain
    assert 0.2 < elapsed < 3.0  # waited for the busy one, not for drain_timeout
    with pytest.raises(Exception):
        idle.reset_scope()
    idle.close()
    busy.close()


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
