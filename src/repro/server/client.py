"""Network clients for the serving tier: an async client and a sync adapter.

Two clients over the same frame protocol:

* :class:`AsyncSession` — the native asyncio client (one coroutine-safe
  request pipeline per connection); what the load generator and the
  backpressure tests drive.
* :class:`SyncSession` — a blocking adapter that **duck-types**
  :class:`~repro.gateway.session.GatewaySession` (``prepare`` /
  ``prepare_execute`` / ``execute_incremental`` / ``close_prepared`` /
  ``set_scope`` / ``close``),
  so the DB-API layer's ``_GatewayTarget`` — and therefore the whole
  ``repro.api`` surface — runs unchanged over the network:
  ``api.connect("server://host:port", client=...)``.

SELECT results stay streams across the wire, paged in **one page size**,
:data:`~repro.server.protocol.PAGE_ROWS` (the engine's 1 024-row batch).  An
EXECUTE asks for a first page of that size with its reply (``fetch``), so a
result that fits the page is **one round trip**: the
:class:`RemoteRowStream` starts out holding the decoded page, the server
keeps no cursor and no admission slot for it, and ``fetchone`` /
``fetchmany`` / ``fetchall`` / ``close`` send nothing.  A longer result
leaves a server-side cursor behind; once the buffered rows run short, a
``fetchmany(n)`` holding ``k`` of them sends one FETCH for ``max(n - k,
PAGE_ROWS)`` rows and buffers what the caller did not ask for yet, so
``fetchone`` costs one FETCH per page, not per row.  The client's read-ahead
is therefore bounded by one page beyond what its caller asked for — past
that, server-side row production tracks client consumption, which is why a
stalled consumer exerts backpressure instead of filling a buffer.  Both ends
state their protocol revision in HELLO and refuse a peer of another one; a
malformed reply or page tears the session down.

Error frames reconstruct the server's exception class
(:func:`~repro.server.protocol.exception_from_frame`), so ``except
ParameterError`` behaves identically in-process and over the network.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
from typing import Any, Optional, Union

from ..errors import MTSQLError, ProtocolError, ServerError
from ..result import QueryResult, RowStream, StatementResult
from .protocol import (
    PAGE_ROWS,
    PROTOCOL_VERSION,
    decode_rows,
    decode_rows_reply,
    encode_frame,
    encode_parameters,
    exception_from_frame,
    read_frame,
    read_frame_blocking,
)


def _scope_text(scope) -> Optional[str]:
    """Normalize a scope argument (text or Scope object) for the wire."""
    if scope is None or isinstance(scope, str):
        return scope
    describe = getattr(scope, "describe", None)
    if callable(describe):
        return describe()
    raise ProtocolError(
        f"cannot send a {type(scope).__name__} scope over the wire; pass the "
        f"scope expression text"
    )


def _hello(client: int, scope, optimization: Optional[str]) -> dict[str, Any]:
    """The HELLO request binding tenant ``client`` at this protocol revision."""
    return {"op": "hello", "protocol": PROTOCOL_VERSION, "client": client,
            "scope": _scope_text(scope), "optimization": optimization}


def _check_protocol(hello: dict[str, Any]) -> None:
    """Refuse a server that answered HELLO with another protocol revision."""
    if hello.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"server speaks protocol {hello.get('protocol')!r}, this client "
            f"{PROTOCOL_VERSION}"
        )


def _execute_request(
    statement: Union[str, int], scope, parameters, fetch: int, prepare: bool = False
) -> dict[str, Any]:
    """The EXECUTE request: ``fetch`` rows wanted with the reply, and whether
    the server should register the statement text and answer its handle."""
    message = {
        "op": "execute",
        "statement": statement,
        "scope": _scope_text(scope),
        "parameters": encode_parameters(parameters),
        "fetch": fetch,
    }
    if prepare:
        message["prepare"] = True
    return message


def _statement_result(reply: dict[str, Any]) -> StatementResult:
    """The result of a non-``rows`` EXECUTE reply."""
    return StatementResult(
        statement_type=reply.get("type", "STATEMENT"),
        rowcount=int(reply.get("rowcount", 0)),
    )


class RemoteRowStream(RowStream):
    """A :class:`~repro.result.RowStream` fed by an EXECUTE reply's first page
    and, past it, by a server cursor.

    The stream starts out buffering the page that came with the reply; rows
    are handed out of the buffer first.  ``cursor_id`` is ``None`` when that
    page was the whole result — then nothing here ever touches the wire.
    Otherwise a demand the buffer cannot meet pulls one FETCH of the
    shortfall, but never fewer than ``PAGE_ROWS`` rows: ``fetchmany(n)`` over
    ``k`` buffered rows sends ``FETCH max(n - k, PAGE_ROWS)`` and keeps the
    surplus buffered for the next call, ``fetch()`` included (the server may
    cut a page of long rows short of its frame limit; then it asks again).
    The read-ahead beyond the caller's demand is thus at most one page.
    Closing the stream while the server still holds its cursor sends
    CLOSE_CURSOR so the server frees the admission slot.
    """

    def __init__(
        self,
        session: "SyncSession",
        columns: list[str],
        page: list[tuple],
        cursor_id: Optional[int],
    ) -> None:
        self._session = session
        self._buffer = page
        #: the server-side cursor; ``None`` once the server said eof
        self._cursor_id = cursor_id
        super().__init__(columns, (), on_close=self._release)

    def _take(self, size: int) -> tuple[list[tuple], bool]:
        # a page of long rows may come back short of eof: ask again
        while self._cursor_id is not None and len(self._buffer) < size:
            wanted = max(size - len(self._buffer), PAGE_ROWS)
            more, eof = self._session._fetch(self._cursor_id, wanted)
            self._buffer += more
            if eof:  # the server retired the cursor with its final batch
                self._cursor_id = None
        rows = self._buffer[:size]
        del self._buffer[:size]
        return rows, self._cursor_id is None and not self._buffer

    def fetch(self) -> Optional[tuple]:
        """The next row (buffered, else the first of a fresh page), or ``None``."""
        page = self.fetchmany(1)
        return page[0] if page else None

    def _release(self) -> None:
        # an early close must tell the server to free the cursor's slot
        self._buffer.clear()
        if self._cursor_id is not None:
            with contextlib.suppress(Exception):
                self._session._close_cursor(self._cursor_id)


class SyncSession:
    """A blocking network session, API-compatible with ``GatewaySession``.

    One TCP connection, one server-side gateway session (bound by HELLO at
    construction).  Requests are serialized with a lock — the same
    one-statement-at-a-time discipline a real ``GatewaySession`` enforces —
    so a ``SyncSession`` can safely sit under a shared DB-API connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client: int,
        scope=None,
        optimization: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self._lock = threading.RLock()
        self._closed = False
        self.host = host
        self.port = port
        try:
            self._socket = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServerError(f"cannot reach server at {host}:{port}: {exc}") from exc
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._socket.makefile("rwb")
        try:
            hello = self._request(_hello(client, scope, optimization))
            _check_protocol(hello)
        except BaseException:
            self._teardown()
            raise
        #: server-assigned gateway session id (mirrors ``GatewaySession``)
        self.session_id: int = hello["session_id"]
        #: the session's tenant C (mirrors ``GatewaySession``)
        self.client: int = client

    # -- wire ----------------------------------------------------------------

    def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip; error frames raise."""
        with self._lock:
            if self._closed:
                raise ServerError("this network session is closed")
            self._stream.write(encode_frame(message))
            self._stream.flush()
            reply = read_frame_blocking(self._stream)
        if reply is None:
            self._teardown()
            raise ProtocolError("server closed the connection")
        if not reply.get("ok"):
            raise exception_from_frame(reply)
        return reply

    def _fetch(self, cursor_id: int, n: int) -> tuple[list[tuple], bool]:
        reply = self._request({"op": "fetch", "cursor": cursor_id, "n": n})
        try:
            return decode_rows(reply.get("rows")), bool(reply.get("eof"))
        except ProtocolError:  # not a peer to keep talking to
            self._teardown()
            raise

    def _close_cursor(self, cursor_id: int) -> None:
        self._request({"op": "close_cursor", "cursor": cursor_id})

    # -- GatewaySession surface ----------------------------------------------

    def prepare(self, sql: str) -> int:
        """Parse ``sql`` server-side once; returns the statement handle."""
        return self._request({"op": "prepare", "sql": sql})["handle"]

    def close_prepared(self, handle: int) -> None:
        """Drop one server-side prepared-statement handle (idempotent)."""
        if self._closed:
            return
        with contextlib.suppress(ProtocolError):
            self._request({"op": "close_prepared", "handle": handle})

    def execute_incremental(
        self, statement: Union[str, int], scope=None, parameters=None
    ):
        """Execute text or a prepared handle; SELECTs return a live stream.

        The DB-API entry point: the returned :class:`RemoteRowStream` holds
        the reply's first page (``PAGE_ROWS``) and — only if the result
        is longer — a server-side cursor with its admission slot, until
        exhausted or closed.
        """
        request = _execute_request(statement, scope, parameters, PAGE_ROWS)
        return self._result(self._request(request))

    def prepare_execute(self, sql: str, scope=None, parameters=None):
        """Prepare ``sql`` and run its first execution in one round trip:
        ``(handle, result)``, as :meth:`GatewaySession.prepare_execute`."""
        request = _execute_request(sql, scope, parameters, PAGE_ROWS, prepare=True)
        reply = self._request(request)
        handle = reply.get("handle")
        if type(handle) is not int:
            self._teardown()
            raise ProtocolError("the reply to a preparing EXECUTE must name its handle")
        return handle, self._result(reply)

    def _result(self, reply: dict[str, Any]):
        """Turn an EXECUTE reply into a statement result or a row stream."""
        if reply.get("kind") != "rows":
            return _statement_result(reply)
        try:
            columns, page, cursor_id = decode_rows_reply(reply)
        except ProtocolError:  # not a peer to keep talking to
            self._teardown()
            raise
        return RemoteRowStream(self, columns, page, cursor_id)

    def execute(self, statement: Union[str, int], scope=None, parameters=None):
        """Execute and materialize (SELECT rows drained in large batches)."""
        result = self.execute_incremental(statement, scope=scope, parameters=parameters)
        if isinstance(result, RowStream):
            return result.materialize()
        return result

    def query(self, statement: Union[str, int], scope=None, parameters=None) -> QueryResult:
        """Execute a SELECT and materialize it (non-SELECTs are an error)."""
        result = self.execute(statement, scope=scope, parameters=parameters)
        if not isinstance(result, QueryResult):
            raise MTSQLError("query() expects a SELECT statement")
        return result

    def set_scope(self, scope) -> None:
        """``SET SCOPE`` for the server-side session."""
        self._request({"op": "set_scope", "scope": _scope_text(scope)})

    def reset_scope(self) -> None:
        """Restore the server-side session's default scope (D = {C})."""
        self._request({"op": "set_scope", "scope": None})

    def explain(self, sql: str) -> str:
        """The server's rendered compilation report for ``sql``."""
        return self._request({"op": "explain", "statement": sql})["text"]

    def close(self) -> None:
        """Announce CLOSE (best effort) and drop the connection; idempotent."""
        if self._closed:
            return
        with contextlib.suppress(Exception):
            self._request({"op": "close"})
        self._teardown()

    def _teardown(self) -> None:
        self._closed = True
        with contextlib.suppress(OSError):
            self._stream.close()
        with contextlib.suppress(OSError):
            self._socket.close()

    def __enter__(self) -> "SyncSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"SyncSession({self.host}:{self.port}, client={self.client}, "
            f"session={self.session_id}, {state})"
        )


class AsyncSession:
    """The native asyncio client: one connection, coroutine-safe requests.

    Create with :meth:`open`.  High-level :meth:`execute` drains SELECTs
    into a :class:`~repro.result.QueryResult`; the low-level
    :meth:`begin_execute` / :meth:`fetch` / :meth:`close_cursor` triple
    exposes the raw cursor protocol — what a load generator needs to hold
    many result streams open concurrently (and what the backpressure tests
    use to pin admission slots on purpose).
    """

    def __init__(self, reader, writer, client: int) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._closed = False
        self.client = client
        self.session_id: Optional[int] = None

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        client: int,
        scope=None,
        optimization: Optional[str] = None,
    ) -> "AsyncSession":
        """Connect, HELLO-bind tenant ``client`` and return the session."""
        reader, writer = await asyncio.open_connection(host, port)
        session = cls(reader, writer, client)
        try:
            hello = await session.request(_hello(client, scope, optimization))
            _check_protocol(hello)
        except BaseException:
            await session._teardown()
            raise
        session.session_id = hello["session_id"]
        return session

    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip; error frames raise."""
        async with self._lock:
            if self._closed:
                raise ServerError("this network session is closed")
            self._writer.write(encode_frame(message))
            await self._writer.drain()
            reply = await read_frame(self._reader)
        if reply is None:
            await self._teardown()
            raise ProtocolError("server closed the connection")
        if not reply.get("ok"):
            raise exception_from_frame(reply)
        return reply

    # -- low-level cursor protocol -------------------------------------------

    async def begin_execute(
        self, statement: Union[str, int], scope=None, parameters=None, fetch: int = 0
    ) -> dict[str, Any]:
        """Send EXECUTE and return the raw reply frame (cursor not drained).

        With the default ``fetch=0`` a ``rows`` reply carries no rows and
        always holds a server-side cursor — and its admission slot — until
        :meth:`fetch` hits eof or :meth:`close_cursor` runs.
        """
        return await self.request(_execute_request(statement, scope, parameters, fetch))

    async def fetch(self, cursor: int, n: int) -> tuple[list[tuple], bool]:
        """Fetch up to ``n`` rows from a cursor; returns ``(rows, eof)``."""
        reply = await self.request({"op": "fetch", "cursor": cursor, "n": n})
        try:
            return decode_rows(reply.get("rows")), bool(reply.get("eof"))
        except ProtocolError:  # not a peer to keep talking to
            await self._teardown()
            raise

    async def close_cursor(self, cursor: int) -> None:
        """Close a server-side cursor early, freeing its admission slot."""
        await self.request({"op": "close_cursor", "cursor": cursor})

    # -- high-level statements -------------------------------------------------

    async def prepare(self, sql: str) -> int:
        """Parse ``sql`` server-side once; returns the statement handle."""
        return (await self.request({"op": "prepare", "sql": sql}))["handle"]

    async def execute(
        self,
        statement: Union[str, int],
        scope=None,
        parameters=None,
        batch: int = 256,
    ):
        """Execute and materialize: the first ``batch`` rows arrive with the
        reply, the rest of a longer SELECT in ``batch``-row FETCHes."""
        reply = await self.begin_execute(
            statement, scope=scope, parameters=parameters, fetch=batch
        )
        if reply.get("kind") != "rows":
            return _statement_result(reply)
        try:
            columns, rows, cursor = decode_rows_reply(reply)
        except ProtocolError:  # not a peer to keep talking to
            await self._teardown()
            raise
        eof = cursor is None
        while not eof:
            chunk, eof = await self.fetch(cursor, batch)
            rows.extend(chunk)
        return QueryResult(columns=columns, rows=rows)

    async def set_scope(self, scope) -> None:
        """``SET SCOPE`` (or reset, with ``None``) for the server session."""
        await self.request({"op": "set_scope", "scope": _scope_text(scope)})

    async def explain(self, sql: str) -> str:
        """The server's rendered compilation report for ``sql``."""
        return (await self.request({"op": "explain", "statement": sql}))["text"]

    async def close(self) -> None:
        """Announce CLOSE (best effort) and drop the connection; idempotent."""
        if self._closed:
            return
        with contextlib.suppress(Exception):
            await self.request({"op": "close"})
        await self._teardown()

    async def _teardown(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()

    async def __aenter__(self) -> "AsyncSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"AsyncSession(client={self.client}, session={self.session_id}, {state})"
