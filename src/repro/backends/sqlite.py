"""A real execution backend: SQLite through the standard library.

:class:`SQLiteBackend` makes the paper's middleware claim reproducible on an
actual DBMS: the rewritten SQL the middleware emits is rendered in the
:data:`~repro.sql.dialect.SQLITE_DIALECT` and executed by :mod:`sqlite3`,
with the MT-specific conversion functions registered as native UDFs via
``sqlite3.create_function`` (the counterpart of the paper deploying Listings
4-7 on PostgreSQL / System C).

Implementation notes:

* the database lives in a **temporary file** (deleted on :meth:`close`), so
  a *side connection* can serve SQL-bodied UDFs: a call such as
  ``currencyToUniversal(x, t)`` executes its meta-table look-up body on the
  side connection while the main connection is mid-query — re-entrant use of
  one connection is not allowed by :mod:`sqlite3`, and shared-cache
  in-memory databases deadlock on the table locks;
* dates are stored as ISO-8601 ``TEXT`` (calendar order == string order) and
  converted back to :class:`~repro.sql.types.Date` in query results, so the
  layers above see the same value shapes as with the engine backend;
* UDF result memoization follows the back-end *profile* exactly like the
  engine: the PostgreSQL-like profile caches immutable functions, the
  System-C-like profile never does (the paper's appendix asymmetry);
* ``PRAGMA case_sensitive_like`` is switched on — TPC-H ``LIKE`` predicates
  are case-sensitive on PostgreSQL and the engine.
"""

from __future__ import annotations

import os
import re
import sqlite3
import tempfile
import threading
import weakref
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from ..compile.stats import RefreshPolicy, StatisticsCatalog, collect_table_stats
from ..engine.database import PROFILES, BackendProfile
from ..errors import BackendError, ExecutionError
from ..result import (
    ExecuteResult,
    ExecutionStats,
    QueryResult,
    RowStream,
    StatementResult,
)
from ..sql import ast
from ..sql.dialect import SQLITE_DIALECT
from ..sql.parser import parse_query, parse_statement
from ..sql.printer import to_sql
from ..sql.types import Date, date_from_string
from .base import Backend, BackendConnection, Statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile.artifact import CompiledQuery

_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}\Z")

#: rows pulled per round-trip on the streaming path
_STREAM_BATCH_SIZE = 256


class _RegisteredFunction:
    """A UDF wrapper adding profile-aware memoization and statistics."""

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any],
        immutable: bool,
        cache_results: bool,
        stats: ExecutionStats,
    ) -> None:
        self.name = name
        self._fn = fn
        self.immutable = immutable
        self._cache_results = cache_results and immutable
        self._cache: dict[tuple, Any] = {}
        self._lock = threading.Lock()
        self._stats = stats

    def __call__(self, *args: Any) -> Any:
        if self._cache_results:
            key = args
            with self._lock:
                if key in self._cache:
                    self._stats.add_udf_call(executed=0)
                    return self._cache[key]
            value = self._fn(*args)
            with self._lock:
                self._cache[key] = value
            self._stats.add_udf_call(executed=1)
            return value
        self._stats.add_udf_call(executed=1)
        return self._fn(*args)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()


class SQLiteConnection(BackendConnection):
    """The (thread-safe, shared) connection to one SQLite database.

    **Known asymmetry** — SQLite stores dates as ISO ``TEXT``, so query
    results cannot distinguish a ``DATE`` column from a ``VARCHAR`` that
    happens to hold ``YYYY-MM-DD`` text.  With :attr:`convert_iso_dates` on
    (the default, matching the engine backend's value shapes for the MT-H
    schema) any such string converts to :class:`~repro.sql.types.Date`;
    schemas whose *string* data can look like dates should switch it off and
    handle dates as ISO text.
    """

    name = "sqlite"
    dialect = SQLITE_DIALECT
    #: convert ISO-8601-shaped result strings back to Date values
    convert_iso_dates = True

    def __init__(self, path: str, profile: BackendProfile, owns_file: bool) -> None:
        self._path = path
        self.profile = profile
        self._owns_file = owns_file
        self.stats = ExecutionStats()
        self._lock = threading.RLock()
        self._closed = False
        self._main = sqlite3.connect(path, check_same_thread=False, isolation_level=None)
        # serves SQL-bodied UDF look-ups while the main connection is busy
        self._side = sqlite3.connect(path, check_same_thread=False, isolation_level=None)
        self._side_lock = threading.RLock()
        for connection in (self._main, self._side):
            connection.execute("PRAGMA case_sensitive_like = ON")
            connection.execute("PRAGMA synchronous = OFF")
        #: parsed CREATE TABLE statements, for bulk load and integrity checks
        self._tables: dict[str, ast.CreateTable] = {}
        self._functions: dict[str, _RegisteredFunction] = {}
        # planner statistics: collected on demand, refreshed per table once
        # enough DML has accumulated
        self._statistics = StatisticsCatalog()
        self._stat_mutations: dict[str, int] = {}
        self._ttid_hints: dict[str, str] = {}
        self._refresh_policy = RefreshPolicy()
        # temp-file databases must not outlive the connection: clean up when
        # the owner forgets to close() (GC or interpreter exit)
        self._finalizer = weakref.finalize(
            self, _dispose, self._main, self._side, path, owns_file
        )
        self._register_builtin(
            "CHAR_LENGTH", 1, lambda value: None if value is None else len(str(value))
        )
        self._register_builtin("CONCAT", -1, _fn_concat)

    # -- statement execution -------------------------------------------------

    def execute(
        self, statement: Statement, parameters: Optional[Sequence[Any]] = None
    ) -> ExecuteResult:
        """Render the statement in the SQLite dialect and execute it."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        parameters = tuple(_to_sqlite(value) for value in (parameters or ()))
        # render outside the lock: SQL generation is pure Python work and
        # must not extend the window in which other sessions are blocked
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, parameters)
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            kind = type(statement).__name__.upper()
            sql = to_sql(statement, self.dialect)
            with self._lock:
                self._ensure_open()
                self.stats.add(statements=1)
                try:
                    cursor = self._main.execute(sql, parameters)
                except sqlite3.Error as exc:
                    raise ExecutionError(f"sqlite {kind} failed: {exc}") from exc
                count = max(cursor.rowcount, 0)
                self._note_mutations(statement.table, count)
                return StatementResult(kind, rowcount=count)
        with self._lock:
            self._ensure_open()
            self.stats.add(statements=1)
            if isinstance(statement, ast.CreateTable):
                return self._execute_create_table(statement)
            if isinstance(statement, ast.CreateFunction):
                # re-entrant lock: registration re-acquires it harmlessly
                self.register_sql_function(
                    statement.name, statement.body, immutable=statement.immutable
                )
                return StatementResult("CREATE FUNCTION")
            if isinstance(statement, ast.CreateView):
                self._main.execute(to_sql(statement, self.dialect))
                return StatementResult("CREATE VIEW")
            if isinstance(statement, ast.DropTable):
                self._main.execute(to_sql(statement, self.dialect))
                self._tables.pop(statement.name.lower(), None)
                self._statistics.drop(statement.name)
                self._stat_mutations.pop(statement.name.lower(), None)
                return StatementResult("DROP TABLE")
            if isinstance(statement, ast.DropView):
                self._main.execute(to_sql(statement, self.dialect))
                return StatementResult("DROP VIEW")
        raise BackendError(
            f"statement type {type(statement).__name__} is not executable by the "
            f"sqlite backend"
        )

    def _execute_select(
        self, statement: ast.Select, parameters: tuple
    ) -> QueryResult:
        sql = to_sql(statement, self.dialect)  # rendered outside the lock
        with self._lock:
            self._ensure_open()
            self.stats.add(statements=1)
            try:
                cursor = self._main.execute(sql, parameters)
            except sqlite3.Error as exc:
                raise ExecutionError(
                    f"sqlite SELECT failed: {exc}\n  sql: {sql}"
                ) from exc
            columns = [description[0] for description in cursor.description or ()]
            raw_rows = cursor.fetchall()
        # per-cell value conversion happens outside the lock as well
        if self.convert_iso_dates:
            rows = [tuple(_from_sqlite(value) for value in row) for row in raw_rows]
        else:
            rows = [tuple(row) for row in raw_rows]
        return QueryResult(columns=columns, rows=rows)

    def execute_stream(
        self,
        statement: Statement,
        dataset: Optional[Sequence[int]] = None,
        parameters: Optional[Sequence[Any]] = None,
        compiled: Optional["CompiledQuery"] = None,
    ) -> RowStream:
        """Stream a SELECT from an open :mod:`sqlite3` cursor.

        Rows are pulled from the DBMS in ``fetchmany`` batches as the
        consumer advances, so the first rows arrive without materializing the
        result set on either side.  Closing the returned stream closes the
        underlying cursor.  Parameters bind natively (the statement renders
        its placeholders as ``?NNN``).
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if not isinstance(statement, ast.Select):
            raise BackendError("execute_stream() expects a SELECT statement")
        bound = tuple(_to_sqlite(value) for value in (parameters or ()))
        sql = to_sql(statement, self.dialect)
        with self._lock:
            self._ensure_open()
            self.stats.add(statements=1)
            try:
                cursor = self._main.execute(sql, bound)
            except sqlite3.Error as exc:
                raise ExecutionError(
                    f"sqlite SELECT failed: {exc}\n  sql: {sql}"
                ) from exc
            columns = [description[0] for description in cursor.description or ()]
        convert = self.convert_iso_dates

        def produce():
            while True:
                with self._lock:
                    self._ensure_open()
                    batch = cursor.fetchmany(_STREAM_BATCH_SIZE)
                if not batch:
                    return
                for raw in batch:
                    if convert:
                        yield tuple(_from_sqlite(value) for value in raw)
                    else:
                        yield tuple(raw)

        return RowStream(columns=columns, rows=produce(), on_close=cursor.close)

    def _execute_create_table(self, statement: ast.CreateTable) -> StatementResult:
        # The physical statement must be MT-annotation-free plain SQL.  PK and
        # UNIQUE constraints become plain (non-unique) indexes: the engine
        # backend reports key violations through check_integrity() instead of
        # rejecting inserts, and both backends must accept the same loads.
        key_constraints = [
            constraint
            for constraint in statement.constraints
            if constraint.kind
            in (ast.ConstraintKind.PRIMARY_KEY, ast.ConstraintKind.UNIQUE)
        ]
        physical = ast.CreateTable(
            name=statement.name,
            columns=[
                ast.ColumnDef(
                    name=column.name,
                    type_name=column.type_name,
                    not_null=column.not_null,
                    default=column.default,
                )
                for column in statement.columns
            ],
            constraints=[
                constraint
                for constraint in statement.constraints
                if constraint not in key_constraints
            ],
            generality=None,
        )
        quote = self.dialect.quote_identifier
        try:
            self._main.execute(to_sql(physical, self.dialect))
            for position, constraint in enumerate(key_constraints):
                index_name = f"idx_{statement.name}_key{position}"
                columns = ", ".join(quote(column) for column in constraint.columns)
                self._main.execute(
                    f"CREATE INDEX {quote(index_name)} "
                    f"ON {quote(statement.name)} ({columns})"
                )
        except sqlite3.Error as exc:
            raise ExecutionError(f"sqlite CREATE TABLE failed: {exc}") from exc
        # record the original constraints so check_integrity() sees the keys
        self._tables[statement.name.lower()] = ast.CreateTable(
            name=statement.name,
            columns=physical.columns,
            constraints=statement.constraints,
            generality=None,
        )
        return StatementResult("CREATE TABLE")

    # -- UDF registration ----------------------------------------------------

    def register_python_function(
        self, name: str, fn: Callable[..., Any], immutable: bool = False
    ) -> None:
        """Register a Python scalar UDF via ``sqlite3.create_function``."""
        wrapper = _RegisteredFunction(
            name,
            fn,
            immutable=immutable,
            cache_results=self.profile.cache_immutable_functions,
            stats=self.stats,
        )
        with self._lock:
            self._ensure_open()
            self._functions[name.lower()] = wrapper
            for connection in (self._main, self._side):
                connection.create_function(name, -1, wrapper, deterministic=immutable)

    def register_sql_function(
        self, name: str, body: str, immutable: bool = False
    ) -> None:
        """Deploy a SQL-bodied UDF (the paper's Listings 4-7 style).

        The body (a parameterized look-up query) runs on the side connection
        each time the main connection calls the function.
        """
        body_sql = to_sql(parse_query(body), self.dialect)

        def call_body(*args: Any) -> Any:
            bound = tuple(_to_sqlite(value) for value in args)
            with self._side_lock:
                row = self._side.execute(body_sql, bound).fetchone()
            return row[0] if row else None

        self.register_python_function(name, call_body, immutable=immutable)

    def _register_builtin(self, name: str, arity: int, fn: Callable[..., Any]) -> None:
        # engine built-ins the rewrite relies on but SQLite (< 3.44) lacks
        for connection in (self._main, self._side):
            connection.create_function(name, arity, fn, deterministic=True)

    # -- bulk load / metadata ------------------------------------------------

    def insert_rows(self, table_name: str, rows: list[tuple]) -> int:
        """Bulk-load rows with one parameterized ``executemany``."""
        if not rows:
            return 0
        with self._lock:
            self._ensure_open()
            width = len(rows[0])
            placeholders = ", ".join(
                self.dialect.placeholder(index) for index in range(1, width + 1)
            )
            sql = (
                f"INSERT INTO {self.dialect.quote_identifier(table_name)} "
                f"VALUES ({placeholders})"
            )
            converted = [tuple(_to_sqlite(value) for value in row) for row in rows]
            try:
                self._main.execute("BEGIN")
                self._main.executemany(sql, converted)
                self._main.execute("COMMIT")
            except sqlite3.Error as exc:
                self._main.execute("ROLLBACK")
                raise ExecutionError(
                    f"sqlite bulk load into {table_name!r} failed: {exc}"
                ) from exc
            self._note_mutations(table_name, len(rows))
            return len(rows)

    def table_rowcount(self, table_name: str) -> int:
        """Current row count of ``table_name`` (a ``COUNT(*)`` round-trip)."""
        with self._lock:
            self._ensure_open()
            quoted = self.dialect.quote_identifier(table_name)
            row = self._main.execute(f"SELECT COUNT(*) FROM {quoted}").fetchone()
            return int(row[0])

    def check_integrity(self) -> list[str]:
        """PK-uniqueness and FK-reference checks over the recorded schema."""
        violations: list[str] = []
        with self._lock:
            self._ensure_open()
            for table in self._tables.values():
                for constraint in table.constraints:
                    if constraint.kind is ast.ConstraintKind.PRIMARY_KEY:
                        violations.extend(self._check_primary_key(table, constraint))
                    elif constraint.kind is ast.ConstraintKind.FOREIGN_KEY:
                        violations.extend(self._check_foreign_key(table, constraint))
        return violations

    def _check_primary_key(
        self, table: ast.CreateTable, constraint: ast.TableConstraint
    ) -> list[str]:
        quote = self.dialect.quote_identifier
        columns = ", ".join(quote(column) for column in constraint.columns)
        sql = (
            f"SELECT {columns} FROM {quote(table.name)} "
            f"GROUP BY {columns} HAVING COUNT(*) > 1"
        )
        return [
            f"duplicate primary key {tuple(row)!r} in table {table.name}"
            for row in self._main.execute(sql).fetchall()
        ]

    def _check_foreign_key(
        self, table: ast.CreateTable, constraint: ast.TableConstraint
    ) -> list[str]:
        ref_table = (constraint.ref_table or "").lower()
        if ref_table not in self._tables:
            return [
                f"foreign key {constraint.name or ''} references missing table "
                f"{constraint.ref_table}"
            ]
        quote = self.dialect.quote_identifier
        join = " AND ".join(
            f"child.{quote(column)} = parent.{quote(ref_column)}"
            for column, ref_column in zip(constraint.columns, constraint.ref_columns)
        )
        not_null = " AND ".join(
            f"child.{quote(column)} IS NOT NULL" for column in constraint.columns
        )
        columns = ", ".join(f"child.{quote(column)}" for column in constraint.columns)
        first_ref = quote(constraint.ref_columns[0])
        sql = (
            f"SELECT {columns} FROM {quote(table.name)} child "
            f"LEFT JOIN {quote(constraint.ref_table)} parent ON {join} "
            f"WHERE parent.{first_ref} IS NULL AND {not_null} LIMIT 1"
        )
        return [
            f"foreign key violation in {table.name}: {tuple(row)!r} not in "
            f"{constraint.ref_table}"
            for row in self._main.execute(sql).fetchall()
        ]

    # -- statistics / caches -------------------------------------------------

    def register_partitioned_table(
        self,
        table_name: str,
        ttid_column: str,
        local_key_columns: Sequence[str] = (),
    ) -> None:
        """Record the tenant column so statistics gain per-tenant histograms."""
        self._ttid_hints[table_name.lower()] = ttid_column.lower()

    def collect_statistics(self) -> StatisticsCatalog:
        """Scan every recorded table into fresh planner statistics."""
        with self._lock:
            self._ensure_open()
            for table in list(self._tables.values()):
                self._collect_table(table)
        return self._statistics

    def statistics(self) -> StatisticsCatalog:
        """The current statistics, refreshing tables made stale by DML."""
        policy = self._refresh_policy
        with self._lock:
            self._ensure_open()
            for name, table in list(self._tables.items()):
                if policy.is_stale(
                    self._statistics.table(name), self._stat_mutations.get(name, 0)
                ):
                    self._collect_table(table)
        return self._statistics

    def _collect_table(self, table: ast.CreateTable) -> None:
        name = table.name.lower()
        quoted = self.dialect.quote_identifier(table.name)
        raw = self._main.execute(f"SELECT * FROM {quoted}").fetchall()
        if self.convert_iso_dates:
            rows = [tuple(_from_sqlite(value) for value in row) for row in raw]
        else:
            rows = [tuple(row) for row in raw]
        self._statistics.put(
            collect_table_stats(
                name,
                [column.name for column in table.columns],
                rows,
                ttid_column=self._ttid_hints.get(name),
            )
        )
        self._stat_mutations[name] = 0

    def _note_mutations(self, table_name: str, count: int) -> None:
        name = table_name.lower()
        self._stat_mutations[name] = self._stat_mutations.get(name, 0) + max(count, 0)

    def clear_function_caches(self) -> None:
        """Drop the memoized results of every registered immutable UDF."""
        with self._lock:
            for function in self._functions.values():
                function.clear_cache()

    # -- lifecycle -----------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendError("this sqlite backend connection is closed")

    def close(self) -> None:
        """Close both sqlite3 connections and delete an owned temp file."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"SQLiteConnection(path={self._path!r}, profile={self.profile.name!r}, "
            f"tables={len(self._tables)})"
        )


class SQLiteBackend(Backend):
    """Backend over one (temporary-file) SQLite database."""

    name = "sqlite"
    dialect = SQLITE_DIALECT

    def __init__(
        self,
        profile: Union[str, BackendProfile] = "postgres",
        path: Optional[str] = None,
    ) -> None:
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError as exc:
                raise BackendError(f"unknown back-end profile {profile!r}") from exc
        self.profile = profile
        owns_file = path is None
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-sqlite-", suffix=".db")
            os.close(handle)
        self.path = path
        self._connection = SQLiteConnection(path, profile, owns_file=owns_file)

    def connect(self) -> SQLiteConnection:
        """The shared connection to this backend's database file."""
        return self._connection

    def close(self) -> None:
        """Close the connection (removing the temp database if owned)."""
        self._connection.close()


def _dispose(
    main: sqlite3.Connection, side: sqlite3.Connection, path: str, owns_file: bool
) -> None:
    """Finalizer body: must not reference the connection object itself."""
    for connection in (main, side):
        try:
            connection.close()
        except sqlite3.Error:  # pragma: no cover - close is best-effort
            pass
    if owns_file:
        for suffix in ("", "-journal", "-wal", "-shm"):
            try:
                os.unlink(path + suffix)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# value conversion
# ---------------------------------------------------------------------------


def _to_sqlite(value: Any) -> Any:
    if isinstance(value, Date):
        return str(value)
    if isinstance(value, bool):
        return int(value)
    return value


def _from_sqlite(value: Any) -> Any:
    if isinstance(value, str) and len(value) == 10 and _ISO_DATE.match(value):
        try:
            return date_from_string(value)
        except ValueError:  # pragma: no cover - e.g. '9999-99-99' in user data
            return value
    return value


def _fn_concat(*args: Any) -> Optional[str]:
    if any(argument is None for argument in args):
        return None
    return "".join(str(argument) for argument in args)
