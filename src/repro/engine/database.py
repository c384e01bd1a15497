"""The engine facade: a single in-memory SQL database.

A :class:`Database` plays the role of the "off-the-shelf DBMS" below the
MTBase middleware (Figure 4 of the paper).  Two back-end *profiles* mimic the
behaviours relevant to the evaluation:

* ``postgres`` — UDFs declared ``IMMUTABLE`` have their results memoized, the
  behaviour the paper exploits on PostgreSQL 9.6,
* ``system_c`` — UDF results are never cached, reproducing the commercial
  "System C" which "does not allow UDFs to be defined as deterministic".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from ..compile.stats import RefreshPolicy, StatisticsCatalog, collect_table_stats
from ..errors import ExecutionError
from ..result import ExecuteResult, ExecutionStats, QueryResult, RowStream, StatementResult
from ..sql import ast
from ..sql.parser import parse_statement, parse_statements
from .catalog import Catalog
from .ddl import (
    execute_create_function,
    execute_create_table,
    execute_create_view,
    execute_drop_table,
    execute_drop_view,
)
from .executor import Executor
from .functions import PythonFunction, SQLFunction
from .vector import DEFAULT_BATCH_SIZE


@dataclass(frozen=True)
class BackendProfile:
    """Execution profile of the simulated back-end DBMS."""

    name: str
    cache_immutable_functions: bool


POSTGRES_PROFILE = BackendProfile(name="postgres", cache_immutable_functions=True)
SYSTEM_C_PROFILE = BackendProfile(name="system_c", cache_immutable_functions=False)

PROFILES = {
    "postgres": POSTGRES_PROFILE,
    "system_c": SYSTEM_C_PROFILE,
}


class Database:
    """An in-memory SQL database executing the ``repro`` SQL dialect.

    Expressions evaluate as batch kernels over windows of :attr:`batch_size`
    rows; a kernel over columns the schema declares NOT NULL runs typed (see
    :mod:`repro.engine.vector`).
    """

    def __init__(
        self,
        profile: Union[str, BackendProfile] = POSTGRES_PROFILE,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if isinstance(profile, str):
            try:
                profile = PROFILES[profile]
            except KeyError as exc:
                raise ExecutionError(f"unknown back-end profile {profile!r}") from exc
        self.profile = profile
        self.batch_size = batch_size
        self.catalog = Catalog()
        self.stats = ExecutionStats()
        self.executor = Executor(self)
        # table statistics backing the cost-based planner: collected on
        # demand, refreshed per table once enough DML has accumulated
        self._statistics = StatisticsCatalog()
        self._stat_mutations: dict[str, int] = {}
        self._ttid_hints: dict[str, str] = {}
        self._refresh_policy = RefreshPolicy()
        # Serializes writers (DML builds a table's next version from the
        # current one and publishes it, DDL mutates the catalog) so concurrent
        # gateway sessions cannot lose updates.  Readers stay lock-free: a
        # scan pins one immutable TableData, the old version or the new.
        self._write_lock = threading.RLock()

    # -- statement execution --------------------------------------------------

    def execute(
        self,
        statement: Union[str, ast.Statement],
        plans: Optional[dict] = None,
        relations: Optional[dict[str, Sequence[tuple]]] = None,
        parameters: Sequence[Any] = (),
    ) -> ExecuteResult:
        """Execute one statement (SQL text or an already-parsed AST node).

        ``plans`` is the memo space of the statement's owner and
        ``parameters`` the values of its bind parameters: a SELECT runs as
        :meth:`repro.engine.executor.Executor.execute` (``relations`` bind
        its inline relations to this run's rows), INSERT / UPDATE / DELETE
        as :meth:`~repro.engine.executor.Executor.write`.  Other statements
        take no parameters.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        self.stats.add(statements=1)
        if isinstance(statement, ast.Select):
            return self.executor.execute(statement, plans, relations, parameters)
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            with self._write_lock:
                count = self.executor.write(statement, plans, parameters)
                self._note_mutations(statement.table, count)
            return StatementResult(type(statement).__name__.upper(), rowcount=count)
        if parameters:
            raise ExecutionError(f"{type(statement).__name__} takes no parameters")
        if isinstance(statement, ast.CreateTable):
            with self._write_lock:
                execute_create_table(self.catalog, statement)
                self.executor.invalidate()
            return StatementResult("CREATE TABLE")
        if isinstance(statement, ast.CreateView):
            with self._write_lock:
                execute_create_view(self.catalog, statement)
                self.executor.invalidate()
            return StatementResult("CREATE VIEW")
        if isinstance(statement, ast.CreateFunction):
            with self._write_lock:
                execute_create_function(self.catalog, statement)
                self.executor.invalidate()
            return StatementResult("CREATE FUNCTION")
        if isinstance(statement, ast.DropTable):
            with self._write_lock:
                execute_drop_table(self.catalog, statement)
                self._statistics.drop(statement.name)
                self._stat_mutations.pop(statement.name.lower(), None)
                self.executor.invalidate()
            return StatementResult("DROP TABLE")
        if isinstance(statement, ast.DropView):
            with self._write_lock:
                execute_drop_view(self.catalog, statement)
                self.executor.invalidate()
            return StatementResult("DROP VIEW")
        raise ExecutionError(
            f"statement type {type(statement).__name__} is not executable by the engine"
        )

    def execute_script(self, sql: str) -> list[ExecuteResult]:
        """Execute a ``;``-separated script, returning one result per statement."""
        return [self.execute(statement) for statement in parse_statements(sql)]

    def execute_stream(
        self,
        statement: Union[str, ast.Select],
        plans: Optional[dict] = None,
        parameters: Sequence[Any] = (),
    ) -> RowStream:
        """Execute a SELECT as a lazily produced row stream.

        See :meth:`repro.engine.executor.Executor.execute_stream`; the
        statement counter ticks at call time, like :meth:`execute`.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if not isinstance(statement, ast.Select):
            raise ExecutionError("execute_stream() expects a SELECT statement")
        self.stats.add(statements=1)
        return self.executor.execute_stream(statement, plans, parameters)

    def query(
        self,
        sql: Union[str, ast.Select],
        plans: Optional[dict] = None,
        relations: Optional[dict[str, Sequence[tuple]]] = None,
        parameters: Sequence[Any] = (),
    ) -> QueryResult:
        """Execute a SELECT and return its :class:`QueryResult` (arguments
        as for :meth:`execute`)."""
        result = self.execute(sql, plans, relations, parameters)
        if not isinstance(result, QueryResult):
            raise ExecutionError("query() expects a SELECT statement")
        return result

    # -- convenience ------------------------------------------------------------

    def register_python_function(
        self, name: str, fn: Callable[..., Any], immutable: bool = False
    ) -> PythonFunction:
        """Register a Python-backed scalar UDF."""
        function = PythonFunction(name, fn, immutable=immutable)
        with self._write_lock:
            self.catalog.register_function(function)
            self.executor.invalidate()
        return function

    def register_sql_function(
        self, name: str, body: str, immutable: bool = False
    ) -> SQLFunction:
        """Register a SQL-bodied scalar UDF (``$1`` ... ``$n`` parameters)."""
        function = SQLFunction(name, body, immutable=immutable)
        with self._write_lock:
            self.catalog.register_function(function)
            self.executor.invalidate()
        return function

    def insert_rows(self, table_name: str, rows: list[tuple]) -> int:
        """Bulk-load rows (already in schema order) into a table, all or none."""
        with self._write_lock:
            table = self.catalog.table(table_name)
            table.insert_many(rows)
            self._note_mutations(table_name, len(rows))
        return len(rows)

    def table_rowcount(self, table_name: str) -> int:
        return len(self.catalog.table(table_name).rows)

    # -- table statistics --------------------------------------------------------

    def register_partitioned_table(
        self,
        table_name: str,
        ttid_column: str,
        local_key_columns=(),
    ) -> None:
        """Record the tenant column of a partitioned table.

        Statistics collected for the table then include the per-tenant row
        histogram the cost model uses for data-set selectivities.
        """
        self._ttid_hints[table_name.lower()] = ttid_column.lower()

    def collect_statistics(self) -> StatisticsCatalog:
        """Scan every base table into fresh planner statistics."""
        with self._write_lock:
            for table in self.catalog.tables():
                self._collect_table(table)
        return self._statistics

    def statistics(self) -> StatisticsCatalog:
        """The current statistics, refreshing tables made stale by DML.

        A table recollects when it has never been scanned or when its
        accumulated mutation count crosses the :class:`RefreshPolicy`
        threshold; fresh tables are served from cache.
        """
        policy = self._refresh_policy
        for table in self.catalog.tables():
            name = table.schema.name.lower()
            if policy.is_stale(
                self._statistics.table(name), self._stat_mutations.get(name, 0)
            ):
                with self._write_lock:
                    self._collect_table(table)
        return self._statistics

    def _collect_table(self, table) -> None:
        name = table.schema.name.lower()
        self._statistics.put(
            collect_table_stats(
                name,
                [column.name for column in table.schema.columns],
                table.rows,
                ttid_column=self._ttid_hints.get(name),
            )
        )
        self._stat_mutations[name] = 0

    def _note_mutations(self, table_name: str, count: int) -> None:
        name = table_name.lower()
        self._stat_mutations[name] = self._stat_mutations.get(name, 0) + max(count, 0)

    def reset_stats(self) -> None:
        self.stats.reset()

    def clear_function_caches(self) -> None:
        for name in self.catalog.function_names():
            self.catalog.function(name).clear_cache()

    # -- integrity checking ------------------------------------------------------

    def check_integrity(self) -> list[str]:
        """Validate primary-key uniqueness and foreign-key references.

        Returns a list of human-readable violation messages (empty = clean).
        NOT NULL is already enforced on insert.
        """
        violations: list[str] = []
        for table in self.catalog.tables():
            primary_key = table.schema.primary_key
            if primary_key:
                indexes = [table.schema.column_index(column) for column in primary_key]
                seen: set[tuple] = set()
                for row in table.rows:
                    key = tuple(row[index] for index in indexes)
                    if key in seen:
                        violations.append(
                            f"duplicate primary key {key!r} in table {table.schema.name}"
                        )
                    seen.add(key)
        for foreign_key in self.catalog.foreign_keys():
            if not self.catalog.has_table(foreign_key.ref_table):
                violations.append(
                    f"foreign key {foreign_key.name or ''} references missing table "
                    f"{foreign_key.ref_table}"
                )
                continue
            child = self.catalog.table(foreign_key.table)
            parent = self.catalog.table(foreign_key.ref_table)
            child_indexes = [child.schema.column_index(column) for column in foreign_key.columns]
            parent_indexes = [
                parent.schema.column_index(column) for column in foreign_key.ref_columns
            ]
            parent_keys = {
                tuple(row[index] for index in parent_indexes) for row in parent.rows
            }
            for row in child.rows:
                key = tuple(row[index] for index in child_indexes)
                if any(value is None for value in key):
                    continue
                if key not in parent_keys:
                    violations.append(
                        f"foreign key violation in {child.schema.name}: {key!r} not in "
                        f"{parent.schema.name}"
                    )
                    break
        return violations
