"""The asyncio TCP server fronting a query gateway.

:class:`ReproServer` turns the in-process serving stack (gateway → compile →
backend/cluster) into a network service.  One asyncio event loop accepts
connections and speaks the frame protocol of :mod:`repro.server.protocol`;
**all blocking backend work runs on a worker-thread pool behind the loop**
(``ThreadPoolExecutor``), so one slow tenant statement can never stall frame
handling for everybody else.

Per connection the server holds one
:class:`~repro.gateway.session.GatewaySession` (bound by HELLO) plus the
connection's open server-side cursors.  EXECUTE requests pass through
per-tenant admission gates (:mod:`repro.server.admission`): bounded queues,
concurrency caps, ``SERVER_BUSY`` shedding and per-request timeouts — an
admission slot is held for the whole life of a request *including its result
stream*, which is what gives slow consumers backpressure instead of
unbounded server-side buffering.

SELECT results stream: EXECUTE answers with the column names and the **first
page** — as many rows as the request's ``fetch`` field asked for, taken by the
worker that ran the statement.  A result that fits the page is complete in
that one reply: no cursor is registered and the admission slot is free before
the reply is written.  Otherwise the reply names a cursor, and FETCH frames
pull further row batches straight off the backend's
:class:`~repro.result.RowStream` — the server never materializes a result
set on behalf of a client.  The worker that produced a page also encodes it
to frame bytes, so the event loop only ever writes them.

The event loop spends no task or timer on a request that needs none: a
connection handler awaits its next frame directly, a free admission slot is
taken synchronously, and a worker call is one wrapped future with one
deadline handle.

The server runs on a background thread (:meth:`start`/:meth:`stop`, or the
:func:`serve` context manager), so synchronous programs and tests can embed
it; :meth:`stop` drains gracefully — in-flight requests finish (up to the
configured drain timeout) before the loop shuts down.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Union

from ..errors import (
    BackendError,
    ProtocolError,
    ReproError,
    RequestTimeoutError,
    ServerError,
)
from ..result import QueryResult, RowStream, StatementResult
from .admission import AdmissionController, AdmissionSnapshot, TenantGate
from .config import ServerConfig
from .protocol import (
    PROTOCOL_VERSION,
    decode_parameters,
    encode_frame,
    encode_rows,
    encode_rows_reply,
    error_frame,
    read_frame,
)

logger = logging.getLogger("repro.server")


class _ReleaseOnce:
    """Idempotent admission-slot release shared between paths of one request."""

    def __init__(self, gate: TenantGate) -> None:
        self._gate = gate
        self._released = False

    def release(self) -> None:
        """Release the slot (first call wins; later calls are no-ops)."""
        if not self._released:
            self._released = True
            self._gate.release()


class _Cursor:
    """One server-side open cursor: a row stream pinned to its tenant slot.

    ``held`` are rows already taken off the stream that a page too large for
    one frame left out; the next FETCH serves them first.
    """

    def __init__(
        self,
        cursor_id: int,
        stream: RowStream,
        release: Callable[[], None],
        held: list[tuple],
    ) -> None:
        self.cursor_id = cursor_id
        self.stream = stream
        self.release = release
        self.held = held


class _Connection:
    """Per-TCP-connection state: the bound session and its open cursors."""

    def __init__(self) -> None:
        self.session = None  # GatewaySession, set by HELLO
        self.gate: Optional[TenantGate] = None
        self.cursors: dict[int, _Cursor] = {}
        self.next_cursor = 1

    def reserve_cursor_id(self) -> int:
        """The id the next cursor will carry (known before its worker runs,
        so the worker can encode the whole reply; unused if the page hits eof)."""
        cursor_id = self.next_cursor
        self.next_cursor += 1
        return cursor_id


class ReproServer:
    """An asyncio TCP serving tier over a gateway (or a bare middleware).

    ``target`` is either a :class:`~repro.gateway.gateway.QueryGateway`
    (shared with in-process callers — cache counters and sessions are the
    same objects) or an :class:`~repro.core.middleware.MTBase`, for which the
    server opens (and owns) a gateway of its own.
    """

    def __init__(self, target, config: Optional[ServerConfig] = None) -> None:
        from ..core.middleware import MTBase
        from ..gateway.gateway import QueryGateway

        self.config = config or ServerConfig()
        self.host = self.config.host
        self.port = self.config.port
        if isinstance(target, QueryGateway):
            self.gateway = target
            self._owns_gateway = False
        elif isinstance(target, MTBase):
            self.gateway = target.gateway()
            self._owns_gateway = True
        else:
            raise BackendError(
                f"ReproServer cannot serve a {type(target).__name__}; expected "
                f"an MTBase or a QueryGateway"
            )
        self.admission = AdmissionController(
            concurrency=self.config.concurrency, queue_depth=self.config.queue_depth
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-server"
        )
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._handlers: set[asyncio.Task] = set()
        #: handlers waiting for their connection's next request frame
        self._idle: set[asyncio.Task] = set()
        self._stopped = False
        # monotonic counters (plain ints under the GIL: safe to read anywhere)
        self.connections_accepted = 0
        self.requests_served = 0
        self.timeouts = 0

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "ReproServer":
        """Boot the serving loop on a background thread; returns when bound.

        After this returns, :attr:`address` is the live ``(host, port)`` —
        with ``port=0`` the kernel-assigned ephemeral port is filled in.
        """
        if self._thread is not None:
            raise ServerError("this server has already been started")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-server-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            raise ServerError(f"server failed to start: {error}") from error
        return self

    def stop(self) -> None:
        """Gracefully drain and shut the server down; idempotent.

        New connections are refused immediately; requests already in flight
        get up to ``config.drain_timeout`` seconds to finish and answer.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=self.config.drain_timeout + 10.0)
        self._pool.shutdown(wait=False)
        if self._owns_gateway:
            self.gateway.close()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid once :meth:`start` returned)."""
        return (self.host, self.port)

    def admission_snapshot(self) -> AdmissionSnapshot:
        """Aggregate admission counters across all tenants (thread-safe)."""
        return self.admission.snapshot()

    def __enter__(self) -> "ReproServer":
        return self.start() if self._thread is None else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else ("live" if self._ready.is_set() else "new")
        return (
            f"ReproServer({self.host}:{self.port}, {state}, "
            f"served={self.requests_served}, timeouts={self.timeouts})"
        )

    # -- event loop ---------------------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - loop crash safety net
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                logger.exception("server loop crashed: %s", exc)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        await self._stop_event.wait()
        server.close()
        # graceful drain: handlers idle between requests are cancelled now,
        # busy ones answer their in-flight request and then see the stop event
        for task in list(self._idle):
            task.cancel()
        await server.wait_closed()
        pending = {task for task in self._handlers if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_timeout)
        for task in list(self._handlers):
            if not task.done():
                task.cancel()
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)

    def _on_connection(self, reader, writer) -> None:
        self.connections_accepted += 1
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _serve_connection(self, reader, writer) -> None:
        conn = _Connection()
        task = asyncio.current_task()
        try:
            while not self._stop_event.is_set():
                self._idle.add(task)  # stop() may cancel the wait below
                try:
                    frame = await read_frame(reader)  # a ProtocolError closes below
                finally:
                    self._idle.discard(task)
                if frame is None:  # clean EOF
                    break
                self.requests_served += 1
                try:
                    reply, close = await self._dispatch(conn, frame)
                except ProtocolError as exc:
                    reply, close = error_frame(exc), True
                except ReproError as exc:
                    reply, close = error_frame(exc), False
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - must answer the client
                    logger.exception("unexpected error handling %r", frame.get("op"))
                    reply, close = error_frame(ServerError(str(exc))), False
                # EXECUTE/FETCH replies arrive as frame bytes, encoded on their worker
                writer.write(reply if isinstance(reply, bytes) else encode_frame(reply))
                await writer.drain()
                if close:
                    break
        except ProtocolError as exc:
            # the byte stream is unusable: best-effort error frame, then close
            with contextlib.suppress(Exception):
                writer.write(encode_frame(error_frame(exc)))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._cleanup_connection(conn)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _cleanup_connection(self, conn: _Connection) -> None:
        """Release every resource a dropped/closed connection still holds."""
        for cursor in list(conn.cursors.values()):
            with contextlib.suppress(Exception):
                cursor.stream.close()
            cursor.release()
        conn.cursors.clear()
        if conn.session is not None:
            conn.session.close()
            conn.session = None

    # -- request dispatch ---------------------------------------------------------

    async def _dispatch(
        self, conn: _Connection, frame: dict[str, Any]
    ) -> tuple[Union[dict[str, Any], bytes], bool]:
        op = frame.get("op")
        if not isinstance(op, str):
            raise ProtocolError("request frame is missing its 'op' field")
        if op == "close":
            return {"ok": True, "bye": True}, True
        if conn.session is None and op != "hello":
            raise ProtocolError(f"request {op!r} before HELLO bound a session")
        handler = self._OPS.get(op)
        if handler is None:
            raise ProtocolError(f"unknown request op {op!r}")
        return await handler(self, conn, frame), False

    async def _op_hello(self, conn: _Connection, frame: dict) -> dict:
        if conn.session is not None:
            raise ProtocolError("duplicate HELLO on this connection")
        client = frame.get("client")
        if isinstance(client, bool) or not isinstance(client, int):
            raise ProtocolError("HELLO requires an integer 'client' tenant id")
        if frame.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"client speaks protocol {frame.get('protocol')!r}, this server "
                f"{PROTOCOL_VERSION}"
            )
        scope = frame.get("scope")
        optimization = frame.get("optimization")
        session = await self._call(
            lambda: self.gateway.session(
                client, optimization=optimization, scope=scope
            ),
            timeout=self.config.request_timeout,
        )
        conn.session = session
        conn.gate = self.admission.gate(client)
        return {
            "ok": True,
            "session_id": session.session_id,
            "protocol": PROTOCOL_VERSION,
        }

    async def _op_prepare(self, conn: _Connection, frame: dict) -> dict:
        sql = _required_str(frame, "sql")
        handle = await self._call(
            lambda: conn.session.prepare(sql), timeout=self.config.request_timeout
        )
        return {"ok": True, "handle": handle}

    async def _op_close_prepared(self, conn: _Connection, frame: dict) -> dict:
        handle = _required_int(frame, "handle")
        conn.session.close_prepared(handle)
        return {"ok": True}

    async def _op_set_scope(self, conn: _Connection, frame: dict) -> dict:
        scope = frame.get("scope")
        if scope is None:
            conn.session.reset_scope()
        else:
            await self._call(
                lambda: conn.session.set_scope(scope),
                timeout=self.config.request_timeout,
            )
        return {"ok": True}

    async def _op_execute(self, conn: _Connection, frame: dict) -> bytes:
        statement = frame.get("statement")
        if isinstance(statement, bool) or not isinstance(statement, (str, int)):
            raise ProtocolError("EXECUTE requires a 'statement' (SQL text or handle)")
        fetch = _required_int(frame, "fetch")
        if fetch < 0:
            raise ProtocolError("EXECUTE requires a non-negative first-page row count 'fetch'")
        prepare = frame.get("prepare", False)
        if not isinstance(prepare, bool) or (prepare and not isinstance(statement, str)):
            raise ProtocolError("EXECUTE 'prepare' is a boolean and needs statement text")
        parameters = decode_parameters(frame.get("parameters"))
        scope = frame.get("scope")
        session = conn.session
        cursor_id = conn.reserve_cursor_id()

        def run() -> tuple[bytes, Optional[RowStream], list[tuple]]:
            # the statement, its first page and the reply's encoding all stay
            # on this worker; the stream comes back only if rows remain
            handle = None
            if prepare:
                handle, result = session.prepare_execute(
                    statement, scope=scope, parameters=parameters
                )
            else:
                result = session.execute_incremental(
                    statement, scope=scope, parameters=parameters
                )
            try:
                return _execute_reply(result, fetch, cursor_id, handle)
            except BaseException:
                # the client never learns of this stream or handle
                if isinstance(result, RowStream):
                    result.close()
                if prepare:
                    session.close_prepared(handle)
                raise

        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.request_timeout
        await self._admit(conn.gate, deadline)
        release = _ReleaseOnce(conn.gate)
        try:
            reply, stream, held = await self._call(
                run,
                timeout=deadline - loop.time(),
                abandoned=lambda value: self._abandon_result(value, release),
            )
        except RequestTimeoutError as exc:
            # the worker is still running: the abandoned callback releases
            # the slot when it finishes — unless the work never started
            if not getattr(exc, "work_pending", False):
                release.release()
            raise
        except BaseException:
            release.release()
            raise
        if stream is None:
            # complete in this reply: the slot is free before it is written
            release.release()
        else:
            # the slot stays pinned until the cursor hits eof or is closed
            conn.cursors[cursor_id] = _Cursor(cursor_id, stream, release.release, held)
        return reply

    async def _op_fetch(self, conn: _Connection, frame: dict) -> bytes:
        cursor = self._cursor_for(conn, frame)
        n = _required_int(frame, "n")
        if n <= 0:
            raise ProtocolError("FETCH requires a positive row count 'n'")

        def page() -> tuple[bytes, bool]:
            # encoding a page is as blocking as producing it: both stay on
            # the worker, the event loop only writes the finished bytes
            rows = cursor.held[:n]
            del cursor.held[:n]
            if len(rows) < n:
                rows += cursor.stream.fetchmany(n - len(rows))
            reply, left = _fitted_frame(
                rows, len(rows) < n,
                lambda page, eof: {"ok": True, "rows": encode_rows(page), "eof": eof},
            )
            cursor.held[:0] = left
            return reply, len(rows) < n and not left

        try:
            reply, eof = await self._call(
                page,
                timeout=self.config.request_timeout,
                abandoned=lambda _value: self._abandon_cursor(cursor),
            )
        except RequestTimeoutError:
            # retire the cursor now so a retry cannot race the stuck worker;
            # the abandoned callback closes the stream and frees the slot
            conn.cursors.pop(cursor.cursor_id, None)
            raise
        except BaseException:
            # a failing producer poisons the cursor: release and drop it
            self._drop_cursor(conn, cursor)
            raise
        if eof:
            self._drop_cursor(conn, cursor)
        return reply

    async def _op_close_cursor(self, conn: _Connection, frame: dict) -> dict:
        cursor = self._cursor_for(conn, frame)
        await self._call(
            lambda: cursor.stream.close(), timeout=self.config.request_timeout
        )
        self._drop_cursor(conn, cursor)
        return {"ok": True}

    async def _op_explain(self, conn: _Connection, frame: dict) -> dict:
        sql = _required_str(frame, "statement")
        session = conn.session
        text = await self._call(
            lambda: session.connection.explain(sql).render(),
            timeout=self.config.request_timeout,
        )
        return {"ok": True, "text": text}

    #: request op -> handler; HELLO is the only one served before a session
    _OPS = {
        "hello": _op_hello,
        "prepare": _op_prepare,
        "execute": _op_execute,
        "fetch": _op_fetch,
        "close_cursor": _op_close_cursor,
        "close_prepared": _op_close_prepared,
        "set_scope": _op_set_scope,
        "explain": _op_explain,
    }

    # -- helpers ------------------------------------------------------------------

    def _cursor_for(self, conn: _Connection, frame: dict) -> _Cursor:
        cursor_id = _required_int(frame, "cursor")
        cursor = conn.cursors.get(cursor_id)
        if cursor is None:
            raise BackendError(f"unknown (or already closed) cursor {cursor_id}")
        return cursor

    def _drop_cursor(self, conn: _Connection, cursor: _Cursor) -> None:
        conn.cursors.pop(cursor.cursor_id, None)
        cursor.release()

    def _abandon_cursor(self, cursor: _Cursor) -> None:
        """A timed-out FETCH finally finished on its worker: retire the cursor."""
        with contextlib.suppress(Exception):
            cursor.stream.close()
        cursor.release()

    def _abandon_result(
        self,
        value: Optional[tuple[bytes, Optional[RowStream], list[tuple]]],
        release: _ReleaseOnce,
    ) -> None:
        """A timed-out EXECUTE finally produced a reply nobody will read."""
        if value is not None and value[1] is not None:
            with contextlib.suppress(Exception):
                value[1].close()
        release.release()

    async def _admit(self, gate: TenantGate, deadline: float) -> None:
        """Admission with the request deadline: shed fast, queue bounded."""
        if gate.try_admit():  # a free slot costs no task and no timer
            return
        loop = asyncio.get_running_loop()
        remaining = deadline - loop.time()
        if remaining <= 0:
            self.timeouts += 1
            raise RequestTimeoutError("request timed out before admission")
        try:
            await asyncio.wait_for(gate.admit(), timeout=remaining)
        except asyncio.TimeoutError:
            self.timeouts += 1
            raise RequestTimeoutError(
                f"request spent {self.config.request_timeout:.1f}s queued for "
                f"tenant {gate.ttid} without getting a slot"
            ) from None

    async def _call(
        self,
        fn: Callable[[], Any],
        timeout: float,
        abandoned: Optional[Callable[[Any], None]] = None,
    ) -> Any:
        """Run blocking backend work on the pool, bounded by ``timeout``.

        On timeout the worker thread cannot be killed — the call is
        *abandoned*: the client gets a ``REQUEST_TIMEOUT`` frame now, and
        ``abandoned(result)`` runs on the event loop when the work eventually
        finishes (to close streams / free admission slots), so a timeout can
        never leak a slot or over-admit.  The raised error carries
        ``work_pending=True`` when an abandoned callback will fire later.
        """
        loop = asyncio.get_running_loop()
        if timeout <= 0:
            self.timeouts += 1
            raise RequestTimeoutError("request deadline already passed")
        future = self._pool.submit(fn)
        wrapped = asyncio.wrap_future(future, loop=loop)
        timed_out = False

        def expire() -> None:
            # cancels the wait, never the work: the cancellation reaches a
            # still-queued work item (it then never runs), not a running one
            nonlocal timed_out
            timed_out = wrapped.cancel()

        deadline = loop.call_later(timeout, expire)
        try:
            return await wrapped
        except asyncio.CancelledError:
            if not timed_out:
                raise  # the handler itself was cancelled (drain, disconnect)
            self.timeouts += 1
            if abandoned is not None:

                def _on_done(done_future) -> None:
                    try:
                        value = done_future.result()
                    except BaseException:  # noqa: BLE001 - abandoned failure
                        value = None
                    loop.call_soon_threadsafe(abandoned, value)

                future.add_done_callback(_on_done)
            error = RequestTimeoutError(
                f"request exceeded the {self.config.request_timeout:.1f}s "
                f"per-request timeout; the backend work was abandoned"
            )
            error.work_pending = abandoned is not None
            raise error from None
        finally:
            deadline.cancel()


def _execute_reply(
    result, fetch: int, cursor_id: int, handle: Optional[int]
) -> tuple[bytes, Optional[RowStream], list[tuple]]:
    """The EXECUTE reply frame for one execution result, the stream that
    still holds rows past the first page (``None`` once the page ran it dry)
    and the page's rows that did not fit the frame (see :func:`_fitted_frame`).
    A preparing EXECUTE's reply names its ``handle``."""
    named = {} if handle is None else {"handle": handle}
    if isinstance(result, StatementResult):
        reply = {"ok": True, "kind": "statement",
                 "rowcount": result.rowcount, "type": result.statement_type}
        return encode_frame({**reply, **named}), None, []
    if isinstance(result, QueryResult):  # a shape that had to materialize
        result = RowStream(columns=result.columns, rows=result.rows)
    if not isinstance(result, RowStream):
        raise ServerError(f"unexpected execution result {type(result).__name__}")
    rows = result.fetchmany(fetch)
    reply, left = _fitted_frame(
        rows, len(rows) < fetch,
        lambda page, eof: {**encode_rows_reply(result.columns, page, eof, cursor_id), **named},
    )
    return reply, None if len(rows) < fetch and not left else result, left


def _fitted_frame(
    rows: list[tuple], eof: bool, reply: Callable[[list[tuple], bool], dict[str, Any]]
) -> tuple[bytes, list[tuple]]:
    """The frame of ``reply(page, eof)`` for the longest leading half, quarter, …
    of ``rows`` whose frame stays within ``MAX_FRAME_BYTES``, plus the rows it
    left out — so a page of long rows shrinks instead of failing; ``eof``
    holds only for a page that kept every row.  Only a single row too large
    for any frame raises :class:`ProtocolError`."""
    keep = len(rows)
    while True:
        page = rows if keep == len(rows) else rows[:keep]
        try:
            return encode_frame(reply(page, eof and page is rows)), rows[keep:]
        except ProtocolError:  # encode_frame's only error: the frame is too large
            if keep <= 1:
                raise
            keep //= 2


def _required_str(frame: dict, field: str) -> str:
    value = frame.get(field)
    if not isinstance(value, str):
        raise ProtocolError(f"request requires a string {field!r} field")
    return value


def _required_int(frame: dict, field: str) -> int:
    value = frame.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"request requires an integer {field!r} field")
    return value


@contextlib.contextmanager
def serve(target, config: Optional[ServerConfig] = None):
    """Context manager: a started :class:`ReproServer`, stopped on exit."""
    server = ReproServer(target, config=config)
    server.start()
    try:
        yield server
    finally:
        server.stop()
