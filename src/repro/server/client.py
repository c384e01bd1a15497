"""Network clients for the serving tier: an async client and a sync adapter.

Two clients over the same frame protocol:

* :class:`AsyncSession` — the native asyncio client (one coroutine-safe
  request pipeline per connection); what the load generator and the
  backpressure tests drive.
* :class:`SyncSession` — a blocking adapter that **duck-types**
  :class:`~repro.gateway.session.GatewaySession` (``prepare`` /
  ``execute_incremental`` / ``close_prepared`` / ``set_scope`` / ``close``),
  so the DB-API layer's ``_GatewayTarget`` — and therefore the whole
  ``repro.api`` surface — runs unchanged over the network:
  ``api.connect("server://host:port", client=...)``.

SELECT results stay streams across the wire: EXECUTE returns a
:class:`RemoteRowStream` holding a server-side cursor, and every
``fetchmany(n)`` turns into one FETCH frame asking for **exactly** ``n``
rows, whose column-major page is decoded once and handed over whole — the
client never over-fetches, so server-side row production tracks client
consumption (the property the streaming tests pin down, and the reason a
stalled consumer exerts backpressure instead of filling a buffer).  Only
``materialize()`` / ``Cursor.fetchall()``, which commit to draining, page in
``DRAIN_BATCH`` rows.  Both ends state their protocol revision in HELLO and
refuse a peer of another one; a malformed page tears the session down.

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
    PROTOCOL_VERSION,
    decode_rows,
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


class RemoteRowStream(RowStream):
    """A :class:`~repro.result.RowStream` whose producer is a server cursor.

    Rows are pulled with FETCH frames sized to the consumer's demand:
    ``fetchmany(n)`` is exactly one ``FETCH n`` whose decoded page is handed
    over as is, ``fetch()`` exactly one row — no read-ahead.
    :meth:`materialize` drains in ``DRAIN_BATCH`` batches since everything
    will be consumed anyway.  Closing the stream before exhaustion sends
    CLOSE_CURSOR so the server frees the admission slot.
    """

    def __init__(self, session: "SyncSession", cursor_id: int, columns: list[str]) -> None:
        self._session = session
        self._cursor_id = cursor_id
        super().__init__(columns, (), on_close=self._release)

    def _take(self, size: int) -> tuple[list[tuple], bool]:
        return self._session._fetch(self._cursor_id, size)

    def fetch(self) -> Optional[tuple]:
        """The next row (one single-row FETCH), or ``None`` when exhausted."""
        page = self.fetchmany(1)
        return page[0] if page else None

    def _release(self) -> None:
        # on eof the server already retired the cursor with the final batch;
        # an early close must tell it to free the cursor's admission slot
        if not self._exhausted:
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

        The DB-API entry point: the returned :class:`RemoteRowStream` pulls
        rows on demand, holding a server-side cursor (and its admission
        slot) until exhausted or closed.
        """
        reply = self._request(
            {
                "op": "execute",
                "statement": statement,
                "scope": _scope_text(scope),
                "parameters": encode_parameters(parameters),
            }
        )
        if reply.get("kind") == "rows":
            return RemoteRowStream(self, reply["cursor"], list(reply["columns"]))
        return StatementResult(
            statement_type=reply.get("type", "STATEMENT"),
            rowcount=int(reply.get("rowcount", 0)),
        )

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
        self, statement: Union[str, int], scope=None, parameters=None
    ) -> dict[str, Any]:
        """Send EXECUTE and return the raw reply frame (cursor not drained).

        A ``rows`` reply holds a server-side cursor — and its admission
        slot — until :meth:`fetch` hits eof or :meth:`close_cursor` runs.
        """
        return await self.request(
            {
                "op": "execute",
                "statement": statement,
                "scope": _scope_text(scope),
                "parameters": encode_parameters(parameters),
            }
        )

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
        """Execute and materialize: SELECTs drain in ``batch``-row FETCHes."""
        reply = await self.begin_execute(statement, scope=scope, parameters=parameters)
        if reply.get("kind") != "rows":
            return StatementResult(
                statement_type=reply.get("type", "STATEMENT"),
                rowcount=int(reply.get("rowcount", 0)),
            )
        rows: list[tuple] = []
        eof = False
        while not eof:
            chunk, eof = await self.fetch(reply["cursor"], batch)
            rows.extend(chunk)
        return QueryResult(columns=list(reply["columns"]), rows=rows)

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
