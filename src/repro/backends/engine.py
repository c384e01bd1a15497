"""The in-memory engine as an execution backend.

:class:`EngineBackend` adapts :class:`repro.engine.database.Database` — the
pure-Python DBMS stand-in with its "postgres" / "system_c" UDF-caching
profiles — to the :class:`~repro.backends.base.Backend` protocol.  The
adapter is thin: the engine already executes the default dialect natively,
so statements pass through unchanged (parameters are bound by literal
substitution, :func:`repro.sql.params.bind_parameters`).  A SELECT that
arrives with its compiled artifact and no parameters keeps its engine plan
in the artifact's ``attachments`` (see
:class:`repro.engine.executor.Executor`), so a gateway cache hit runs
without preparing; a bound statement is a fresh AST and prepares per
execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..engine.database import Database
from ..errors import BackendError
from ..result import ExecuteResult, ExecutionStats, RowStream
from ..sql import ast
from ..sql.dialect import DEFAULT_DIALECT
from ..sql.params import bind_parameters
from ..sql.parser import parse_statement
from .base import Backend, BackendConnection, Statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile.artifact import CompiledQuery
    from ..compile.stats import StatisticsCatalog


class EngineConnection(BackendConnection):
    """A connection to the in-memory engine (shared-state, thread-aware)."""

    name = "engine"
    dialect = DEFAULT_DIALECT

    def __init__(self, database: Database) -> None:
        self._database = database

    # -- engine access -------------------------------------------------------

    @property
    def engine_database(self) -> Database:
        """The wrapped in-memory :class:`Database` (engine-specific escape hatch)."""
        return self._database

    @property
    def stats(self) -> ExecutionStats:  # type: ignore[override]
        """The engine database's statement/UDF counters."""
        return self._database.stats

    @property
    def profile(self):
        """The UDF-caching profile ("postgres" caches, "system_c" does not)."""
        return self._database.profile

    # -- statement execution -------------------------------------------------

    def execute(
        self, statement: Statement, parameters: Optional[Sequence[Any]] = None
    ) -> ExecuteResult:
        """Execute on the in-memory engine (parameters bound as literals)."""
        if parameters:
            if isinstance(statement, str):
                statement = parse_statement(statement)
            statement = bind_parameters(statement, parameters)
        return self._database.execute(statement)

    def execute_scoped(
        self,
        statement: Statement,
        dataset: Optional[Sequence[int]] = None,
        parameters: Optional[Sequence[Any]] = None,
        compiled: Optional["CompiledQuery"] = None,
    ) -> ExecuteResult:
        """Execute; a parameterless SELECT reuses the engine plan memoized
        in ``compiled.attachments`` — the statement's artifact, or the
        cluster plan that sent it to this shard.  ``dataset`` is ignored."""
        if compiled is None or parameters or not isinstance(statement, ast.Select):
            return self.execute(statement, parameters=parameters)
        return self._database.execute(statement, plans=compiled.attachments)

    def execute_stream(
        self,
        statement: Statement,
        dataset: Optional[Sequence[int]] = None,
        parameters: Optional[Sequence[Any]] = None,
        compiled: Optional["CompiledQuery"] = None,
    ) -> RowStream:
        """Stream a SELECT through the engine's windowed projection.

        The first pull joins in full; without ``ORDER BY`` or ``DISTINCT``
        it then projects only the first window, barrier shapes project
        every row first (see
        :meth:`repro.engine.executor.Executor.execute_stream`).
        ``dataset`` is routing metadata a single-database backend ignores;
        ``compiled`` holds the plan memo, as for :meth:`execute_scoped`.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        plans = None if compiled is None else compiled.attachments
        if parameters:
            statement = bind_parameters(statement, parameters)
            plans = None
        if not isinstance(statement, ast.Select):
            raise BackendError("execute_stream() expects a SELECT statement")
        return self._database.execute_stream(statement, plans)

    # -- UDF registration ----------------------------------------------------

    def register_python_function(
        self, name: str, fn: Callable[..., Any], immutable: bool = False
    ) -> None:
        """Register a Python-backed scalar UDF in the engine catalog."""
        self._database.register_python_function(name, fn, immutable=immutable)

    def register_sql_function(
        self, name: str, body: str, immutable: bool = False
    ) -> None:
        """Register a SQL-bodied scalar UDF in the engine catalog."""
        self._database.register_sql_function(name, body, immutable=immutable)

    # -- bulk load / metadata ------------------------------------------------

    def insert_rows(self, table_name: str, rows: list[tuple]) -> int:
        """Bulk-load rows straight into the engine's storage layer."""
        return self._database.insert_rows(table_name, rows)

    def table_rowcount(self, table_name: str) -> int:
        """Current row count of ``table_name``."""
        return self._database.table_rowcount(table_name)

    def check_integrity(self) -> list[str]:
        """Run the engine's PK/FK validation over every table."""
        return self._database.check_integrity()

    # -- statistics / caches -------------------------------------------------

    def register_partitioned_table(
        self,
        table_name: str,
        ttid_column: str,
        local_key_columns: Sequence[str] = (),
    ) -> None:
        """Record the tenant column so statistics gain per-tenant histograms."""
        self._database.register_partitioned_table(
            table_name, ttid_column, local_key_columns
        )

    def collect_statistics(self) -> "StatisticsCatalog":
        """Scan every engine table into fresh planner statistics."""
        return self._database.collect_statistics()

    def statistics(self) -> "StatisticsCatalog":
        """The engine's current (lazily refreshed) statistics catalog."""
        return self._database.statistics()

    def reset_stats(self) -> None:
        """Zero the engine's statement/UDF counters."""
        self._database.reset_stats()

    def clear_function_caches(self) -> None:
        """Drop the engine's memoized immutable-UDF results."""
        self._database.clear_function_caches()


class EngineBackend(Backend):
    """Backend over one in-memory engine database."""

    name = "engine"
    dialect = DEFAULT_DIALECT

    def __init__(
        self,
        profile: str = "postgres",
        database: Optional[Database] = None,
    ) -> None:
        self.database = database if database is not None else Database(profile)
        self._connection = EngineConnection(self.database)

    def connect(self) -> EngineConnection:
        """The shared connection to this backend's in-memory database."""
        return self._connection
