"""Per-tenant gateway sessions with a prepared-statement API.

A :class:`GatewaySession` wraps an :class:`~repro.core.client.MTConnection`
and routes SELECT statements through the gateway's rewrite cache:

* **cold path** — fingerprint, parse, resolve the scope to ``D`` and prune it
  to ``D'``, compile through the middleware's staged pipeline, cache the
  whole :class:`~repro.compile.CompiledQuery` artifact, execute (exactly the
  connection's own pipeline, so results are byte-identical),
* **warm path** — fingerprint (a lex), resolve ``D'`` from the cached table
  list, fetch the compiled artifact and execute.  Parse, compilation *and*
  shard planning (the artifact memoizes the cluster plan) are skipped
  entirely — zero compilations on a warm hit.

Statements may carry ``?``/``:name`` **bind parameters**: the cache is keyed
on the *parameterized* fingerprint, so one compiled artifact serves every
binding — values resolve per execution and bind at the backend (natively on
SQLite, by literal substitution on the engine, by pass-through on a
cluster).  This is what makes the cache a true prepared-statement cache.

Scope resolution and privilege pruning are **never** cached: ``D'`` is
recomputed per execution and is part of the cache key, so a session that
changes its scope (or loses a privilege) can never be served a stale plan.

Every execution reads the middleware's metadata version before it parses
or compiles, and both cache keys carry it: after DDL, GRANT/REVOKE, a tenant
or a conversion-pair registration the next execution misses and recompiles
against the new metadata, and the entries built before the change age out
by LRU.  Non-SELECT statements (DML, DDL, GRANT/REVOKE, SET SCOPE) are
delegated to the underlying connection unchanged.

Each session serializes its own statements with a lock (the paper's client
connections are single-threaded too); *different* sessions execute
concurrently — :mod:`repro.server` runs each connection's session on its
worker pool.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from ..errors import InvalidStatementError, LexerError, MTSQLError
from ..result import QueryResult
from ..sql import ast
from ..sql.params import (
    ParameterValues,
    bind_parameters,
    resolve_parameters,
    statement_parameters,
)
from ..sql.parser import parse_submitted_statement
from .cache import CacheKey, StatementInfo
from .fingerprint import fingerprint_statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.client import MTConnection
    from ..core.scope import Scope
    from .gateway import QueryGateway


@dataclass(frozen=True)
class PreparedStatement:
    """A client-side statement handle: raw text plus its fingerprint."""

    handle: int
    text: str
    fingerprint: str


class GatewaySession:
    """One tenant's serving session: an MTConnection behind the rewrite cache."""

    def __init__(self, gateway: "QueryGateway", connection: "MTConnection", session_id: int) -> None:
        self.gateway = gateway
        self.connection = connection
        self.session_id = session_id
        self._prepared: dict[int, PreparedStatement] = {}
        self._next_handle = 1
        self._lock = threading.RLock()

    # -- connection surface -----------------------------------------------------

    @property
    def client(self) -> int:
        """The session's tenant C."""
        return self.connection.client

    @property
    def scope(self) -> "Scope":
        """The session's current scope (its data set D)."""
        return self.connection.scope

    def set_scope(self, scope) -> None:
        """``SET SCOPE`` for this session (serialized with its statements)."""
        with self._lock:
            self.connection.set_scope(scope)

    def reset_scope(self) -> None:
        """Restore the default scope (D = {C})."""
        with self._lock:
            self.connection.reset_scope()

    # -- prepared statements ----------------------------------------------------

    def prepare(self, sql: str) -> int:
        """Parse ``sql`` once and return a handle for repeated execution.

        Unparsable SQL raises :class:`~repro.errors.InvalidStatementError`
        with the offending fragment — the same error every other
        statement-accepting entry point raises.
        """
        with self._lock:
            fingerprint = self._fingerprint(sql)
            self._statement_info(sql, fingerprint, self._metadata_version())  # fail fast
            handle = self._next_handle
            self._next_handle += 1
            self._prepared[handle] = PreparedStatement(
                handle=handle, text=sql, fingerprint=fingerprint
            )
            return handle

    def close_prepared(self, handle: int) -> None:
        """Drop one prepared-statement handle (idempotent)."""
        with self._lock:
            self._prepared.pop(handle, None)

    def close(self) -> None:
        """Release the session: drop its prepared statements (idempotent)."""
        with self._lock:
            self._prepared.clear()

    # -- execution ---------------------------------------------------------------

    def execute(self, statement: Union[str, int], scope=None, parameters=None):
        """Execute one MTSQL statement (text or a prepared handle).

        ``scope`` optionally switches the session scope first, atomically with
        the execution (convenient for multi-scope workloads).  ``parameters``
        bind a parameterized statement's ``?``/``:name`` placeholders — a
        positional sequence or a ``{name: value}`` mapping.  The cache is
        keyed on the *parameterized* text, so one compiled artifact serves
        every binding.
        """
        return self._run(statement, scope, parameters, stream=False)

    def execute_incremental(self, statement: Union[str, int], scope=None, parameters=None):
        """Statement-kind-agnostic streaming execution (the DB-API entry).

        SELECTs return a :class:`~repro.result.RowStream`: the warm path is
        :meth:`execute`'s up to the backend call, which goes through the
        backend's ``execute_stream``, so on backends with a streaming fast
        path the first rows arrive before the result set is materialized.
        Every other statement kind executes through the connection pipeline
        and returns its ordinary result — so a cursor can submit any
        statement without knowing its kind up front.
        """
        return self._run(statement, scope, parameters, stream=True)

    def prepare_execute(self, sql: str, scope=None, parameters=None):
        """Prepare ``sql`` and run its first execution: ``(handle, result)``.

        :meth:`prepare` + :meth:`execute_incremental` as one call — over a
        network session one round trip.  A failing execution drops the handle
        again, so the caller never owns a handle it was not told about.
        """
        with self._lock:
            handle = self.prepare(sql)
            try:
                return handle, self.execute_incremental(
                    handle, scope=scope, parameters=parameters
                )
            except BaseException:
                self.close_prepared(handle)
                raise

    def _run(
        self,
        statement: Union[str, int],
        scope,
        parameters: Optional[ParameterValues],
        stream: bool,
    ):
        """Shared execution body of :meth:`execute`/:meth:`execute_incremental`."""
        with self._lock:
            if scope is not None:
                self.connection.set_scope(scope)
            if isinstance(statement, int):
                try:
                    prepared = self._prepared[statement]
                except KeyError as exc:
                    raise MTSQLError(f"unknown prepared-statement handle {statement}") from exc
                text, fingerprint = prepared.text, prepared.fingerprint
            else:
                text, fingerprint = statement, self._fingerprint(statement)
            # read before parsing or compiling: an entry built from metadata
            # that changes meanwhile lands under this older version, which no
            # later execution looks up
            version = self._metadata_version()
            info = self._statement_info(text, fingerprint, version)
            values = resolve_parameters(info.parameters, parameters)
            if isinstance(info.statement, ast.Select):
                return self._execute_select(fingerprint, version, info, values, stream)
            # non-SELECT: the connection pipeline handles DML/DDL/DCL/SET
            # SCOPE; parameters bind by literal substitution because the DML
            # rewrite routes on concrete values (per-owner INSERTs)
            bound = (
                bind_parameters(info.statement, values) if values else info.statement
            )
            return self.connection.execute(bound)

    def query(self, statement: Union[str, int], scope=None, parameters=None) -> QueryResult:
        """Execute a SELECT (text or prepared handle) through the cache."""
        result = self.execute(statement, scope=scope, parameters=parameters)
        if not isinstance(result, QueryResult):
            raise MTSQLError("query() expects a SELECT statement")
        return result

    # -- internals ----------------------------------------------------------------

    def _metadata_version(self) -> int:
        return self.connection.middleware.metadata_version

    @staticmethod
    def _fingerprint(text: str) -> str:
        try:
            return fingerprint_statement(text)
        except LexerError as exc:
            raise InvalidStatementError.from_sql(text, exc) from exc

    def _statement_info(self, text: str, fingerprint: str, version: int) -> StatementInfo:
        cache = self.gateway.cache
        info = cache.get_info((fingerprint, version))
        if info is None:
            parsed = parse_submitted_statement(text)
            info = StatementInfo(
                statement=parsed,
                tables=tuple(sorted(self.connection.statement_tables(parsed))),
                parameters=statement_parameters(parsed),
            )
            cache.put_info((fingerprint, version), info)
        return info

    def _execute_select(
        self, fingerprint: str, version: int, info: StatementInfo, parameters: tuple, stream: bool
    ):
        connection = self.connection
        pruned = connection.prune_dataset(connection.dataset(), info.tables, privilege="READ")
        key = CacheKey(fingerprint, connection.client, pruned, connection.optimization, version)
        cache = self.gateway.cache
        compiled = cache.get(key)
        if compiled is None:
            compiled = connection.compile_resolved(info.statement, pruned, tables=info.tables)
            cache.put(key, compiled)
        # the artifact was compiled for D' (part of its cache key), so the
        # connection's own execution step checks the bind values and runs it
        return connection.execute_compiled(compiled, parameters, stream=stream)

    def __repr__(self) -> str:
        return (
            f"GatewaySession(id={self.session_id}, client={self.client}, "
            f"scope={self.scope.describe()!r}, "
            f"optimization={self.connection.optimization.value})"
        )
