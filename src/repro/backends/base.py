"""The execution-backend protocol the MTBase middleware targets.

The paper's central claim is that MTBase is a *middleware*: cross-tenant
MTSQL is rewritten to plain SQL and executed unchanged on any off-the-shelf
DBMS.  This module states the contract an execution backend must satisfy so
that the layers above (:mod:`repro.core`, :mod:`repro.gateway`,
:mod:`repro.api`) never import a concrete engine:

* :class:`Backend` — the factory/lifecycle object: knows its
  :class:`~repro.sql.dialect.Dialect` and hands out connections,
* :class:`BackendConnection` — the execution surface: DDL, parameterized
  DML/query execution, UDF registration, bulk load and the statistics
  counters the benchmark harness reads.

Two implementations ship with the reproduction:
:class:`~repro.backends.engine.EngineBackend` (the in-memory Python engine,
standing in for PostgreSQL / System C) and
:class:`~repro.backends.sqlite.SQLiteBackend` (a real DBMS via the standard
library's :mod:`sqlite3`).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, Union

from ..errors import BackendError
from ..result import ExecuteResult, ExecutionStats, QueryResult, RowStream
from ..sql import ast
from ..sql.dialect import Dialect
from ..sql.parser import parse_statements
from ..sql.types import Date

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile.artifact import CompiledQuery
    from ..compile.stats import StatisticsCatalog

Statement = Union[str, ast.Statement]


class BackendConnection(abc.ABC):
    """One session against an execution backend.

    Connections are long-lived: the middleware opens one and funnels every
    rewritten statement through it.  Implementations must be safe to share
    between threads: the server's worker pool runs many sessions on it.
    """

    #: backend family name, e.g. ``"engine"`` or ``"sqlite"``
    name: str = "backend"
    #: the SQL dialect statements are rendered in before execution
    dialect: Dialect
    #: statement / UDF counters (same shape for every backend)
    stats: ExecutionStats

    # -- statement execution -------------------------------------------------

    @abc.abstractmethod
    def execute(
        self, statement: Statement, parameters: Optional[Sequence[Any]] = None
    ) -> ExecuteResult:
        """Execute one statement (SQL text or an already-parsed AST node).

        ``parameters`` bind the ``$1`` ... ``$n`` placeholders of a
        parameterized statement; positional, 1-based like the SQL-function
        parameter convention.
        """

    def execute_script(self, sql: str) -> list[ExecuteResult]:
        """Execute a ``;``-separated script, returning one result per statement."""
        return [self.execute(statement) for statement in parse_statements(sql)]

    def execute_scoped(
        self,
        statement: Statement,
        dataset: Optional[Sequence[int]] = None,
        parameters: Optional[Sequence[Any]] = None,
        compiled: Optional["CompiledQuery"] = None,
    ) -> ExecuteResult:
        """Execute a statement known to touch only the tenants in ``dataset``.

        ``dataset`` is the resolved, pruned data set ``D'`` of the rewritten
        statement — pure routing metadata, never a filter (the statement
        already embeds its ttid predicates).  Single-database backends ignore
        it; a sharded backend uses it to prune the shard fan-out (the
        single-shard fast path).  ``None`` means "unknown", not "empty".

        ``compiled`` is the statement's :class:`~repro.compile.CompiledQuery`
        artifact when it came through the middleware pipeline — or, for a
        statement a cluster derived and sends to a shard, the cluster plan
        that owns it.  Backends memoize what they derive from the statement
        in its ``attachments``: the sharded cluster its plan (consuming the
        artifact's column provenance instead of re-walking the AST), the
        engine its prepared plan; other backends ignore it.
        """
        return self.execute(statement, parameters=parameters)

    def query(
        self, statement: Statement, parameters: Optional[Sequence[Any]] = None
    ) -> QueryResult:
        """Execute a SELECT and return its :class:`QueryResult`."""
        result = self.execute(statement, parameters=parameters)
        if not isinstance(result, QueryResult):
            raise BackendError("query() expects a SELECT statement")
        return result

    def execute_stream(
        self,
        statement: Statement,
        dataset: Optional[Sequence[int]] = None,
        parameters: Optional[Sequence[Any]] = None,
        compiled: Optional["CompiledQuery"] = None,
    ) -> RowStream:
        """Execute a SELECT, returning rows as an incremental
        :class:`~repro.result.RowStream`.

        The base implementation materializes via :meth:`execute_scoped` and
        replays the row list — always correct, never incremental.  Backends
        that can produce rows before the full result exists override it: the
        engine projects a window per pull, SQLite fetches from an open DBMS
        cursor, the sharded cluster delegates its single-shard fast path to
        the owning shard (merge and federated paths materialize).  Arguments
        mean the same as for :meth:`execute_scoped`.
        """
        result = self.execute_scoped(
            statement, dataset=dataset, parameters=parameters, compiled=compiled
        )
        if not isinstance(result, QueryResult):
            raise BackendError("execute_stream() expects a SELECT statement")
        return RowStream(columns=result.columns, rows=result.rows)

    # -- UDF registration ----------------------------------------------------

    @abc.abstractmethod
    def register_python_function(
        self, name: str, fn: Callable[..., Any], immutable: bool = False
    ) -> None:
        """Register a Python-backed scalar UDF."""

    @abc.abstractmethod
    def register_sql_function(
        self, name: str, body: str, immutable: bool = False
    ) -> None:
        """Register a SQL-bodied scalar UDF (``$1`` ... ``$n`` parameters)."""

    # -- bulk load / metadata ------------------------------------------------

    @abc.abstractmethod
    def insert_rows(self, table_name: str, rows: list[tuple]) -> int:
        """Bulk-load rows (already in schema order) into a table."""

    @abc.abstractmethod
    def table_rowcount(self, table_name: str) -> int:
        """Number of rows currently stored in ``table_name``."""

    @abc.abstractmethod
    def check_integrity(self) -> list[str]:
        """Validate primary-key uniqueness and foreign-key references.

        Returns a list of human-readable violation messages (empty = clean).
        """

    def register_partitioned_table(
        self,
        table_name: str,
        ttid_column: str,
        local_key_columns: Sequence[str] = (),
    ) -> None:
        """Declare that ``table_name`` is horizontally partitioned by tenant.

        The MTBase middleware calls this for every tenant-specific table it
        creates, naming the invisible ttid column and the table's
        tenant-specific (``SPECIFIC``) attributes — the columns whose values
        never span tenants.  Single-database backends ignore the hint; a
        sharded backend uses it to route loads and to plan scatter-gather
        queries.
        """

    # -- statistics / caches -------------------------------------------------

    def collect_statistics(self) -> "StatisticsCatalog":
        """Scan every base table into a fresh
        :class:`~repro.compile.stats.StatisticsCatalog` and cache it.

        The middleware calls this once after bulk load; afterwards
        :meth:`statistics` serves the cached catalog, refreshing individual
        tables lazily once enough DML has accumulated.  The base
        implementation collects nothing — backends without a costed planner
        may stay statistics-free.
        """
        from ..compile.stats import StatisticsCatalog

        return StatisticsCatalog()

    def statistics(self) -> "StatisticsCatalog":
        """The current (possibly lazily refreshed) statistics catalog."""
        from ..compile.stats import StatisticsCatalog

        return StatisticsCatalog()

    def reset_stats(self) -> None:
        """Zero the statement/UDF counters (between benchmark runs)."""
        self.stats.reset()

    def clear_function_caches(self) -> None:
        """Drop memoized immutable-UDF results (a no-op if none are kept)."""

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources; the connection is unusable afterwards."""

    def __enter__(self) -> "BackendConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"{type(self).__name__}(dialect={self.dialect.name!r})"


class Backend(abc.ABC):
    """An execution backend: a target DBMS plus the dialect it speaks."""

    name: str = "backend"
    dialect: Dialect

    @abc.abstractmethod
    def connect(self) -> BackendConnection:
        """The connection to this backend's database.

        Both shipped backends serve one shared database per :class:`Backend`
        instance, so repeated calls return the same connection object.
        """

    def close(self) -> None:
        """Dispose of the backend (and any database it owns)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Cross-backend result normalization
# ---------------------------------------------------------------------------
#
# Different backends return equivalent values in different physical shapes:
# the engine yields Date objects and exact Python floats, SQLite yields ISO
# strings and floats that went through REAL round-trips and may differ in the
# last couple of bits after long aggregations.  Normalizing to 12 significant
# digits keeps genuinely different values apart while making both backends'
# MT-H answers comparable row-set-wise.

_FLOAT_SIGNIFICANT_DIGITS = 12


def normalize_value(value: Any, significant_digits: int = _FLOAT_SIGNIFICANT_DIGITS) -> Any:
    """One value in cross-backend-comparable shape (dates → ISO text,
    floats → ``significant_digits`` significant digits, bools → ints)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if value == 0:
            return 0.0
        return float(f"{value:.{significant_digits}g}")
    if isinstance(value, Date):
        return str(value)
    return value


def normalize_row(row: Iterable[Any], significant_digits: int = _FLOAT_SIGNIFICANT_DIGITS) -> tuple:
    """One row tuple with every value passed through :func:`normalize_value`."""
    return tuple(normalize_value(value, significant_digits) for value in row)


def normalized_rows(
    result: Union[QueryResult, list[tuple]],
    significant_digits: int = _FLOAT_SIGNIFICANT_DIGITS,
) -> list[tuple]:
    """Order-normalized, value-normalized rows for cross-backend comparison."""
    rows = result.rows if isinstance(result, QueryResult) else result
    normalized = [normalize_row(row, significant_digits) for row in rows]
    return sorted(normalized, key=_row_sort_key)


def _row_sort_key(row: tuple) -> tuple:
    return tuple((value is None, str(type(value)), str(value)) for value in row)
