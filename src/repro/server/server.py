"""The threaded TCP server fronting a query gateway.

:class:`ReproServer` turns the in-process serving stack (gateway → compile →
backend/cluster) into a network service speaking the frame protocol of
:mod:`repro.server.protocol`.  One accept thread starts **one thread per
connection**, and that thread serves the connection's requests itself: it
reads a frame, passes admission, runs the connection's
:class:`~repro.gateway.session.GatewaySession` and writes the reply, so a
served statement crosses no thread between its request and its reply.  A
slow statement stalls only its own connection, and at most ``workers``
requests run backend work at once, server-wide.

EXECUTE requests pass through per-tenant admission gates
(:mod:`repro.server.admission`): bounded queues, concurrency caps,
``SERVER_BUSY`` shedding and per-request timeouts — an admission slot is
held for the whole life of a request *including its result stream*, which is
what gives slow consumers backpressure instead of unbounded server-side
buffering.

SELECT results stream: EXECUTE answers with the column names and the **first
page** of ``fetch`` rows.  A result that fits the page is complete in that one
reply, its slot free before the reply is written; otherwise the reply names a
cursor, and FETCH frames pull further row batches straight off the backend's
:class:`~repro.result.RowStream` — the server never materializes a result set
on behalf of a client.

Deadlines cancel the wait, never the work.  A request still queued for an
admission slot or a worker at its deadline answers ``REQUEST_TIMEOUT`` and
never runs.  Running work cannot be stopped: one watcher thread per server
answers ``REQUEST_TIMEOUT`` for it at its deadline, and once the work
returns, the connection's thread closes what it produced, frees the slot,
writes nothing and reads the connection's next frame.

:meth:`ReproServer.stop` drains gracefully: idle connections close at once,
and requests in flight get up to the configured drain timeout to answer.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import logging
import socket
import threading
from time import monotonic
from typing import Any, Callable, Optional, Union

from ..errors import (
    BackendError, ProtocolError, ReproError, RequestTimeoutError, ServerBusyError,
    ServerError,
)
from ..result import QueryResult, RowStream, StatementResult
from .admission import AdmissionController, AdmissionSnapshot
from .config import ServerConfig
from .protocol import (
    PROTOCOL_VERSION,
    decode_parameters,
    encode_frame,
    encode_rows,
    encode_rows_reply,
    error_frame,
    read_frame_blocking,
)

logger = logging.getLogger("repro.server")

#: a request's states: waiting for a slot or a worker (it answers its own
#: timeout), running its work (the watcher answers one), answered, and
#: answered by the watcher while its work ran on
_WAITING, _RUNNING, _DONE, _ABANDONED = range(4)


class _Abandoned(Exception):
    """The watcher answered this request's timeout: write nothing for it."""


class _Connection:
    """Per-TCP-connection state: the socket, the bound session, open cursors."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")
        #: serializes the connection's replies with the watcher's timeouts
        self.write_lock = threading.Lock()
        #: between reading a request and answering it (``stop`` drains these)
        self.busy = False
        self.session = None  # GatewaySession, set by HELLO
        self.gate = None  # the tenant's TenantGate, set by HELLO
        self.cursors: dict[int, _Cursor] = {}
        self.next_cursor = 1

    def send(self, data: bytes) -> None:
        with self.write_lock:
            self.sock.sendall(data)

    def shutdown(self) -> None:
        """Wake a thread blocked on this socket: its read sees end of file."""
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)


class _Cursor:
    """One server-side open cursor: a row stream pinned to its tenant slot.

    ``held`` are rows already taken off the stream that a page too large for
    one frame left out; the next FETCH serves them first.
    """

    __slots__ = ("cursor_id", "stream", "release", "held")

    def __init__(self, cursor_id: int, stream: RowStream,
                 release: Callable[[], None], held: list[tuple]) -> None:
        self.cursor_id = cursor_id
        self.stream = stream
        self.release = release
        self.held = held


class _Request:
    """One request's deadline and state; ``_RUNNING`` ends under the
    connection's write lock, as ``_DONE`` (its thread) or ``_ABANDONED``
    (the watcher)."""

    __slots__ = ("conn", "deadline", "state")

    def __init__(self, conn: _Connection, deadline: float) -> None:
        self.conn = conn
        self.deadline = deadline
        self.state = _WAITING


class ReproServer:
    """A thread-per-connection TCP serving tier over a gateway (or a bare
    middleware).

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
        #: at most ``workers`` requests run backend work at once, server-wide
        self._workers = threading.BoundedSemaphore(self.config.workers)
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []  # the accept thread, the watcher
        #: guards the counters, ``_connections`` and ``_stopping``
        self._lock = threading.Lock()
        self._connections: dict[_Connection, threading.Thread] = {}
        self._stopping = False
        self._stopped = False
        #: ``(deadline, sequence, request)`` of every request with backend
        #: work, pushed under ``_watch``, which the watcher sleeps on
        self._deadlines: list[tuple[float, int, _Request]] = []
        self._sequence = itertools.count()
        self._watch = threading.Condition(threading.Lock())
        self._watching = True
        #: ``request_timeout`` within what a blocking wait accepts
        self._timeout = min(self.config.request_timeout, threading.TIMEOUT_MAX)
        # monotonic counters, incremented under ``_lock``
        self.connections_accepted = 0
        self.requests_served = 0
        self.timeouts = 0

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind the listener and start serving on background threads.

        After this returns, :attr:`address` is the live ``(host, port)`` —
        with ``port=0`` the kernel-assigned ephemeral port is filled in.
        """
        if self._listener is not None:
            raise ServerError("this server has already been started")
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        try:
            self._listener = socket.create_server((self.host, self.port), family=family)
        except OSError as exc:
            raise ServerError(f"server failed to start: {exc}") from exc
        self.port = self._listener.getsockname()[1]
        for target, name in ((self._accept, "accept"), (self._watch_deadlines, "watcher")):
            thread = threading.Thread(target=target, name=f"repro-server-{name}", daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Gracefully drain and shut the server down; idempotent.

        New connections are refused and idle ones closed immediately;
        requests already in flight get up to ``config.drain_timeout`` seconds
        to answer, and every thread the server started is joined.  A
        connection whose work outlives the drain has its socket shut down;
        its thread ends when that work returns.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._listener is not None:
            with self._lock:
                self._stopping = True
                idle = [conn for conn in self._connections if not conn.busy]
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            self._listener.close()
            for conn in idle:
                conn.shutdown()
            drain_until = monotonic() + self.config.drain_timeout
            accept, watcher = self._threads
            accept.join()
            with self._lock:
                draining = list(self._connections.items())
            for conn, thread in draining:
                thread.join(max(0.0, drain_until - monotonic()))
                if thread.is_alive():  # no answer within the drain
                    conn.shutdown()
            with self._watch:
                self._watching = False
                self._watch.notify()
            watcher.join()
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
        return self.start() if self._listener is None else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else ("live" if self._listener else "new")
        return (
            f"ReproServer({self.host}:{self.port}, {state}, "
            f"served={self.requests_served}, timeouts={self.timeouts})"
        )

    # -- threads ------------------------------------------------------------------

    def _accept(self) -> None:
        """Start one thread per accepted connection until ``stop``."""
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # stop() shut the listener down
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            with self._lock:
                if self._stopping:
                    sock.close()
                    return
                self.connections_accepted += 1
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True,
                    name=f"repro-server_{self.connections_accepted}",
                )
                self._connections[conn] = thread
            thread.start()

    def _serve_connection(self, conn: _Connection) -> None:
        """Serve one connection's requests in order, on this thread."""
        try:
            while (frame := read_frame_blocking(conn.reader)) is not None:
                with self._lock:
                    if self._stopping:
                        break
                    conn.busy = True
                    self.requests_served += 1
                try:
                    reply, close = self._dispatch(conn, frame)
                except _Abandoned:  # answered already; its results are closed
                    reply, close = None, False
                except ProtocolError as exc:
                    reply, close = error_frame(exc), True
                except ReproError as exc:
                    reply, close = error_frame(exc), False
                except Exception as exc:  # noqa: BLE001 - must answer the client
                    logger.exception("unexpected error handling %r", frame.get("op"))
                    reply, close = error_frame(ServerError(str(exc))), False
                if reply is not None:  # EXECUTE/FETCH replies are frame bytes already
                    conn.send(reply if isinstance(reply, bytes) else encode_frame(reply))
                with self._lock:
                    conn.busy = False
                    if close or self._stopping:
                        break
        except ProtocolError as exc:
            # the byte stream is unusable: best-effort error frame, then close
            with contextlib.suppress(OSError):
                conn.send(encode_frame(error_frame(exc)))
        except OSError:
            pass
        finally:
            for cursor in list(conn.cursors.values()):
                self._drop_cursor(conn, cursor)
            if conn.session is not None:
                conn.session.close()
            conn.reader.close()
            conn.sock.close()
            with self._lock:
                del self._connections[conn]

    def _watch_deadlines(self) -> None:
        """Answer ``REQUEST_TIMEOUT`` for every request whose work outlives
        its deadline.  Every deadline pushed lies a whole ``request_timeout``
        ahead, so sleeping that long on an empty heap misses none, and no
        request has to wake this thread."""
        while True:
            with self._watch:
                if not self._watching:
                    return
                now = monotonic()
                expired = []
                while self._deadlines and self._deadlines[0][0] <= now:
                    expired.append(heapq.heappop(self._deadlines)[2])
                if not expired:
                    self._watch.wait(
                        self._deadlines[0][0] - now if self._deadlines else self._timeout
                    )
                    continue
            for request in expired:
                with request.conn.write_lock:
                    if request.state != _RUNNING:
                        continue  # answered, or answering its own timeout
                    request.state = _ABANDONED
                    error = self._timed_out(
                        f"request exceeded the {self.config.request_timeout:.1f}s "
                        f"per-request timeout; the backend work was abandoned"
                    )
                    with contextlib.suppress(OSError):
                        request.conn.sock.sendall(encode_frame(error_frame(error)))

    # -- request dispatch ---------------------------------------------------------

    def _dispatch(
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
        return handler(self, conn, frame), False

    def _op_hello(self, conn: _Connection, frame: dict) -> dict:
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
        conn.session = self._call(
            conn,
            lambda: self.gateway.session(client, optimization=optimization, scope=scope),
            abandon=lambda session: session.close(),
        )
        conn.gate = self.admission.gate(client)
        return {"ok": True, "session_id": conn.session.session_id, "protocol": PROTOCOL_VERSION}

    def _op_prepare(self, conn: _Connection, frame: dict) -> dict:
        sql = _required_str(frame, "sql")
        handle = self._call(conn, lambda: conn.session.prepare(sql))
        return {"ok": True, "handle": handle}

    def _op_close_prepared(self, conn: _Connection, frame: dict) -> dict:
        handle = _required_int(frame, "handle")
        conn.session.close_prepared(handle)
        return {"ok": True}

    def _op_set_scope(self, conn: _Connection, frame: dict) -> dict:
        scope = frame.get("scope")
        if scope is None:
            conn.session.reset_scope()
        else:
            self._call(conn, lambda: conn.session.set_scope(scope))
        return {"ok": True}

    def _op_execute(self, conn: _Connection, frame: dict) -> bytes:
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
        # the id a cursor would carry, known before the statement runs so the
        # whole reply is encoded at once (unused if the first page hits eof)
        cursor_id = conn.next_cursor
        conn.next_cursor += 1

        def run() -> tuple[bytes, Optional[RowStream], list[tuple]]:
            # the statement, its first page and the reply's encoding; the
            # stream comes back only if rows remain
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

        gate = conn.gate
        request = self._request(conn)  # the deadline covers the admission wait
        try:
            admitted = gate.admit(request.deadline - monotonic())
        except ServerBusyError:
            request.state = _DONE
            raise
        if not admitted:
            request.state = _DONE
            raise self._timed_out(
                f"request spent {self.config.request_timeout:.1f}s queued for "
                f"tenant {gate.ttid} without getting a slot"
            )
        try:
            reply, stream, held = self._call(conn, run, request, abandon=_close_stream)
        except BaseException:
            gate.release()
            raise
        if stream is None:
            # complete in this reply: the slot is free before it is written
            gate.release()
        else:
            # the slot stays pinned until the cursor hits eof or is closed
            conn.cursors[cursor_id] = _Cursor(cursor_id, stream, gate.release, held)
        return reply

    def _op_fetch(self, conn: _Connection, frame: dict) -> bytes:
        cursor = self._cursor_for(conn, frame)
        n = _required_int(frame, "n")
        if n <= 0:
            raise ProtocolError("FETCH requires a positive row count 'n'")

        def page() -> tuple[bytes, bool]:
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
            reply, eof = self._call(conn, page)
        except BaseException:
            # a failing, timed-out or abandoned page poisons the cursor
            self._drop_cursor(conn, cursor)
            raise
        if eof:
            self._drop_cursor(conn, cursor, close=False)
        return reply

    def _op_close_cursor(self, conn: _Connection, frame: dict) -> dict:
        cursor = self._cursor_for(conn, frame)
        try:
            self._call(conn, cursor.stream.close)
        finally:
            self._drop_cursor(conn, cursor, close=False)
        return {"ok": True}

    def _op_explain(self, conn: _Connection, frame: dict) -> dict:
        sql = _required_str(frame, "statement")
        session = conn.session
        text = self._call(conn, lambda: session.connection.explain(sql).render())
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

    def _drop_cursor(self, conn: _Connection, cursor: _Cursor, close: bool = True) -> None:
        """Retire a cursor: close its stream (unless drained or closed
        already) and free its admission slot."""
        conn.cursors.pop(cursor.cursor_id, None)
        if close:
            with contextlib.suppress(Exception):
                cursor.stream.close()
        cursor.release()

    def _request(self, conn: _Connection) -> _Request:
        """A new request of ``conn``, its deadline pushed for the watcher."""
        request = _Request(conn, monotonic() + self._timeout)
        with self._watch:
            heap = self._deadlines
            while heap and heap[0][2].state >= _DONE:  # answered: no need to wait
                heapq.heappop(heap)
            heapq.heappush(heap, (request.deadline, next(self._sequence), request))
        return request

    def _timed_out(self, message: str) -> RequestTimeoutError:
        """Count one timeout; the error that answers it."""
        with self._lock:
            self.timeouts += 1
        return RequestTimeoutError(message)

    def _call(
        self,
        conn: _Connection,
        fn: Callable[[], Any],
        request: Optional[_Request] = None,
        abandon: Optional[Callable[[Any], None]] = None,
    ) -> Any:
        """Run blocking backend work on this thread within the request's
        deadline (a new request's unless ``request`` is given).

        The work first takes one of the ``workers`` permits; a request still
        waiting for one at its deadline answers ``REQUEST_TIMEOUT`` and never
        runs.  Running work cannot be stopped: past its deadline the watcher
        answers the timeout, and when the work returns, ``abandon(value)``
        cleans up what it produced and :class:`_Abandoned` is raised.
        """
        if request is None:
            request = self._request(conn)
        if not self._workers.acquire(timeout=max(0.0, request.deadline - monotonic())):
            request.state = _DONE
            raise self._timed_out(
                f"request spent {self.config.request_timeout:.1f}s waiting for a free worker"
            )
        try:
            with conn.write_lock:  # the watcher sees either state, never a gap
                started = monotonic() < request.deadline
                request.state = _RUNNING if started else _DONE
            if not started:
                raise self._timed_out("request deadline passed before its work started")
            try:
                value, error = fn(), None
            except Exception as exc:  # noqa: BLE001 - re-raised unless abandoned
                value, error = None, exc
            with conn.write_lock:
                abandoned = request.state == _ABANDONED
                request.state = _DONE
            if abandoned:
                if error is None and abandon is not None:
                    with contextlib.suppress(Exception):
                        abandon(value)
                raise _Abandoned()
            if error is not None:
                raise error
            return value
        finally:
            self._workers.release()


def _close_stream(value: tuple[bytes, Optional[RowStream], list[tuple]]) -> None:
    """Clean up an abandoned EXECUTE's ``_execute_reply`` value."""
    if value[1] is not None:
        value[1].close()


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
