"""DB-API connections: one :func:`connect` for every repro entry point.

A :class:`Connection` owns a *target* — a thin adapter giving cursors one
``run(operation, parameters)`` call regardless of what actually executes the
statement:

* :class:`_GatewayTarget` — a :class:`~repro.gateway.session.GatewaySession`;
  the production path: statements are prepared once, by their first
  execution (fingerprint + parse cached), compiled artifacts come from the
  gateway's rewrite cache keyed on the *parameterized* text, so one
  compilation serves every binding,
* :class:`_MTConnectionTarget` — a direct
  :class:`~repro.core.client.MTConnection` (full pipeline per statement, no
  cache),
* :class:`_BackendTarget` — a bare execution backend: plain SQL with bind
  parameters, no MTSQL rewrite at all.

Transactions: the engine and cluster backends are autocommit by design (the
paper's middleware relays statements, it does not manage transactions), so
:meth:`Connection.commit` is a documented no-op and
:meth:`Connection.rollback` raises
:class:`~repro.errors.NotSupportedError` — silently "rolling back" work that
is already durable would be a correctness trap.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional, Union

from ..backends import Backend, BackendConnection, create_backend
from ..errors import BackendError, NotSupportedError
from ..result import ExecuteResult, RowStream
from ..sql import ast
from ..sql.params import resolve_parameters, statement_parameters
from ..sql.parser import parse_submitted_statement
from .cursor import Cursor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.client import MTConnection
    from ..core.middleware import MTBase
    from ..gateway.gateway import QueryGateway
    from ..gateway.session import GatewaySession

RunResult = Union[RowStream, ExecuteResult]


class _GatewayTarget:
    """Cursor executions through a gateway session (cached, parameterized)."""

    #: retained prepared handles per connection; a literal-churn workload
    #: (every statement a distinct spelling) must not grow without bound
    MAX_PREPARED = 256

    def __init__(self, session: "GatewaySession", owned: bool) -> None:
        self._session = session
        self._owned = owned
        # statement text -> gateway prepared handle (LRU): repeated cursor
        # executions skip even the fingerprint lex.  The map is guarded
        # defensively (threadsafety is 1, but the gateway path is the one
        # target that can tolerate a shared connection).
        self._handles: "OrderedDict[str, int]" = OrderedDict()
        self._handles_lock = threading.Lock()

    @property
    def description(self) -> str:
        """Human-readable target description (``Connection.__repr__``)."""
        return f"gateway session {self._session.session_id} (client {self._session.client})"

    def run(self, operation: str, parameters: Optional[Any]) -> RunResult:
        """Prepare-once, execute-many through the session's cache.

        A new text is prepared by its first execution (``prepare_execute``:
        one round trip over a network session, not two).
        """
        with self._handles_lock:
            handle = self._handles.get(operation)
            if handle is not None:
                self._handles.move_to_end(operation)
        if handle is not None:
            return self._session.execute_incremental(handle, parameters=parameters)
        handle, result = self._session.prepare_execute(operation, parameters=parameters)
        with self._handles_lock:
            if operation in self._handles:  # lost a prepare race: keep one handle
                self._session.close_prepared(handle)
            else:
                self._handles[operation] = handle
                while len(self._handles) > self.MAX_PREPARED:
                    _, evicted = self._handles.popitem(last=False)
                    self._session.close_prepared(evicted)
        return result

    def close(self) -> None:
        """Release the session if this target made it — its prepared handles
        go with it — else drop just the handles this target registered."""
        with self._handles_lock:
            handles, self._handles = list(self._handles.values()), OrderedDict()
        if self._owned:
            self._session.close()
            return
        for handle in handles:
            self._session.close_prepared(handle)


class _MTConnectionTarget:
    """Cursor executions through a direct (uncached) MTBase client connection."""

    def __init__(self, connection: "MTConnection") -> None:
        self._connection = connection

    @property
    def description(self) -> str:
        """Human-readable target description (``Connection.__repr__``)."""
        return f"direct MTConnection (client {self._connection.client})"

    def run(self, operation: str, parameters: Optional[Any]) -> RunResult:
        """Parse, then compile+stream SELECTs / execute everything else."""
        statement = parse_submitted_statement(operation)
        if isinstance(statement, ast.Select):
            return self._connection.query_stream(statement, parameters=parameters)
        return self._connection.execute(statement, parameters=parameters)

    def close(self) -> None:
        """Nothing owned: the MTConnection belongs to the caller."""


class _BackendTarget:
    """Cursor executions straight against an execution backend (plain SQL)."""

    def __init__(
        self, connection: BackendConnection, owned_backend: Optional[Backend]
    ) -> None:
        self._connection = connection
        self._owned_backend = owned_backend

    @property
    def description(self) -> str:
        """Human-readable target description (``Connection.__repr__``)."""
        return f"backend {self._connection.name!r}"

    def run(self, operation: str, parameters: Optional[Any]) -> RunResult:
        """Parse, resolve bindings, stream SELECTs / execute the rest."""
        statement = parse_submitted_statement(operation)
        values = resolve_parameters(statement_parameters(statement), parameters)
        if isinstance(statement, ast.Select):
            return self._connection.execute_stream(
                statement, parameters=values or None
            )
        return self._connection.execute(statement, parameters=values or None)

    def close(self) -> None:
        """Dispose of the backend if :func:`connect` created it from a spec."""
        if self._owned_backend is not None:
            self._owned_backend.close()


class Connection:
    """A PEP 249 connection over one repro execution target.

    Create via :func:`connect`.  Connections hand out :class:`Cursor` objects
    and close their target (and any open cursors) on :meth:`close`; they are
    context managers closing on exit.
    """

    def __init__(self, target) -> None:
        self._target = target
        self._cursors: list[Cursor] = []
        self._closed = False

    # -- cursors -------------------------------------------------------------

    def cursor(self) -> Cursor:
        """A new cursor over this connection's target."""
        self._check_open()
        cursor = Cursor(self)
        self._cursors.append(cursor)
        return cursor

    def _run(self, operation: str, parameters: Optional[Any]) -> RunResult:
        """Execute one statement on the target (cursor back door)."""
        self._check_open()
        return self._target.run(operation, parameters)

    def _forget(self, cursor: Cursor) -> None:
        """Drop a closed cursor from the tracking list (idempotent)."""
        if cursor in self._cursors:
            self._cursors.remove(cursor)

    # -- transactions --------------------------------------------------------

    def commit(self) -> None:
        """No-op: every repro backend is autocommit.

        The middleware relays statements to the DBMS as they arrive (the
        paper's design); there is no pending transaction to make durable, so
        PEP 249's mandatory ``commit`` succeeds trivially.
        """
        self._check_open()

    def rollback(self) -> None:
        """Unsupported: work is already durable when a statement returns.

        Raising is the honest choice — a silent no-op would let callers
        believe autocommitted changes were undone.
        """
        self._check_open()
        raise NotSupportedError(
            "rollback is not supported: repro backends are autocommit, so "
            "there is no pending transaction to undo"
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every open cursor and release the target; idempotent."""
        if self._closed:
            return
        self._closed = True
        for cursor in list(self._cursors):
            cursor.close()
        self._cursors.clear()
        self._target.close()

    def _check_open(self) -> None:
        if self._closed:
            raise BackendError("this DB-API connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Connection({self._target.description}, {state})"


def connect(
    target,
    client: Optional[int] = None,
    optimization: Optional[str] = None,
    scope=None,
    profile: str = "postgres",
) -> Connection:
    """Open a PEP 249 :class:`Connection` over any repro entry point.

    ``target`` selects the execution path:

    * :class:`~repro.core.middleware.MTBase` — a direct client connection for
      tenant ``client`` (required), full pipeline per statement,
    * :class:`~repro.gateway.gateway.QueryGateway` — a gateway session for
      tenant ``client`` (required); the cached, production path,
    * an existing :class:`~repro.gateway.session.GatewaySession` or
      :class:`~repro.core.client.MTConnection` — wrapped as-is (``scope``
      applies, ``client``/``optimization`` must be unset),
    * a ``"server://host:port"`` spec — a network session against a
      :class:`~repro.server.ReproServer` for tenant ``client`` (required);
      the same prepared-statement/cursor surface, over the wire,
    * a :class:`~repro.backends.Backend`, a
      :class:`~repro.backends.BackendConnection` or a backend spec string
      (``"engine"``, ``"sqlite"``, ``"sharded:2"``) — plain SQL without the
      MTSQL rewrite; a spec-created backend is owned and disposed on
      ``close()``.

    ``optimization`` and ``scope`` mean the same as on
    ``MTBase.connect``/``QueryGateway.session``; ``profile`` only applies
    when a backend is created from a spec string.
    """
    from ..core.client import MTConnection as _MTConnection
    from ..core.middleware import MTBase as _MTBase
    from ..gateway.gateway import QueryGateway as _QueryGateway
    from ..gateway.session import GatewaySession as _GatewaySession

    if isinstance(target, _QueryGateway):
        if client is None:
            raise BackendError("connect(gateway) requires a client tenant id")
        session = target.session(client, optimization=optimization, scope=scope)
        return Connection(_GatewayTarget(session, owned=True))
    if isinstance(target, _MTBase):
        if client is None:
            raise BackendError("connect(middleware) requires a client tenant id")
        connection = target.connect(client, optimization=optimization)
        if scope is not None:
            connection.set_scope(scope)
        return Connection(_MTConnectionTarget(connection))
    if isinstance(target, str) and target.startswith("server://"):
        if client is None:
            raise BackendError("connect(server://...) requires a client tenant id")
        host, port = _parse_server_spec(target)
        from ..server.client import SyncSession

        session = SyncSession(
            host, port, client, scope=scope, optimization=optimization
        )
        return Connection(_GatewayTarget(session, owned=True))
    if isinstance(target, _GatewaySession):
        _reject_routing_args("an existing gateway session", client, optimization)
        if scope is not None:
            target.set_scope(scope)
        return Connection(_GatewayTarget(target, owned=False))
    if isinstance(target, _MTConnection):
        _reject_routing_args("an existing MTConnection", client, optimization)
        if scope is not None:
            target.set_scope(scope)
        return Connection(_MTConnectionTarget(target))
    if isinstance(target, str):
        # validate before building: a rejected call must not leave a live
        # backend (temp database file, open connections) behind
        _reject_routing_args("a bare backend", client, optimization, scope)
        backend = create_backend(target, profile=profile)
        return Connection(_BackendTarget(backend.connect(), owned_backend=backend))
    if isinstance(target, Backend):
        _reject_routing_args("a bare backend", client, optimization, scope)
        return Connection(_BackendTarget(target.connect(), owned_backend=None))
    if isinstance(target, BackendConnection):
        _reject_routing_args("a bare backend", client, optimization, scope)
        return Connection(_BackendTarget(target, owned_backend=None))
    raise BackendError(
        f"connect() cannot front a {type(target).__name__}; expected an MTBase, "
        f"QueryGateway, GatewaySession, MTConnection, Backend(Connection) or a "
        f"backend spec string"
    )


def _parse_server_spec(spec: str) -> tuple[str, int]:
    """Split ``server://host:port`` into its address pair (strictly)."""
    address = spec[len("server://"):]
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise BackendError(
            f"malformed server spec {spec!r}; expected server://host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise BackendError(
            f"malformed server spec {spec!r}: {port_text!r} is not a port"
        ) from None
    if not 0 < port <= 65535:
        raise BackendError(
            f"malformed server spec {spec!r}: port must be 1-65535"
        )
    return host, port


def _reject_routing_args(label: str, client, optimization, scope=None) -> None:
    """Refuse routing arguments that the chosen target cannot honour."""
    if client is not None or optimization is not None:
        raise BackendError(
            f"connect() over {label} does not accept client/optimization — "
            f"they are fixed by the target"
        )
    if scope is not None:
        raise BackendError(
            f"connect() over {label} does not accept a scope — it has no "
            f"MTSQL session"
        )
