"""A tenant-partitioned cluster of backends behind the ordinary protocol.

:class:`ShardedBackend` owns N *shards* — each a complete
:class:`~repro.backends.base.Backend` (engine, SQLite, ...) — and presents
them as one :class:`~repro.backends.base.BackendConnection`, so the MTBase
middleware and the gateway work over a cluster unchanged:

* **DDL and UDF registrations broadcast** to every shard (each shard holds
  the full physical schema and the conversion functions),
* **global tables replicate**: inserts into non-partitioned tables land on
  every shard, so joins against them stay shard-local,
* **tenant-specific rows route** by the placement policy: each owned row
  lives on exactly one shard (bulk loads and rewritten per-owner INSERTs),
* **queries scatter-gather** through the :mod:`repro.cluster` planner and
  coordinator: single-shard fast path when ``D'`` lands on one shard, UNION
  merging for row streams, partial-aggregate re-aggregation for aggregate
  queries, and a *federated* fallback — pull the referenced base rows into a
  scratch backend and execute there — for queries that do not decompose.

The federated fallback is what makes the cluster exact rather than
approximate: `tests/cluster/test_shard_invariance.py` proves every MT-H
query row-set-identical to a single backend for shards ∈ {1, 2, 4}.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from ..cluster.coordinator import ShardCoordinator
from ..cluster.placement import HashPlacement, PlacementPolicy
from ..cluster.planner import ClusterPlanner, FederatedPlan, Plan, SingleShardPlan
from ..compile.analysis import ClusterCatalog, PartitionInfo, ShardabilityAnalyzer
from ..compile.cost import TablePrefilter
from ..compile.stats import StatisticsCatalog, merge_catalogs
from ..errors import ClusterError
from ..result import ExecuteResult, ExecutionStats, RowStream, StatementResult
from ..sql import ast
from ..sql.params import bind_parameters, statement_parameters
from ..sql.parser import parse_query, parse_statement
from ..sql.transform import referenced_table_names
from ..sql.types import date_from_days
from .base import Backend, BackendConnection, Statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile.artifact import CompiledQuery


@dataclass(frozen=True)
class _TableSchema:
    """Column order of one physical table (for routing column-less INSERTs)."""

    name: str
    columns: tuple[str, ...]
    column_defs: tuple[ast.ColumnDef, ...] = ()

    def placeholder(self, column: ast.ColumnDef) -> Any:
        """A type-appropriate dummy for a column the pull projected away.

        ``None`` for nullable columns; NOT NULL columns get a neutral value
        of their declared type so the scratch insert passes its NOT NULL
        check.  Unreferenced by the query, the value is never observed.
        """
        if not column.not_null:
            return None
        type_name = column.type_name.upper()
        if type_name.startswith(("INT", "BIGINT", "SMALLINT", "DECIMAL", "NUMERIC")):
            return 0
        if type_name.startswith(("FLOAT", "DOUBLE", "REAL")):
            return 0.0
        if type_name.startswith("DATE"):
            return date_from_days(0)
        return ""


class ShardedConnection(BackendConnection):
    """One logical connection fanning out over the cluster's shards."""

    name = "sharded"

    def __init__(self, backend: "ShardedBackend") -> None:
        self._backend = backend
        self._shards: list[BackendConnection] = [
            shard.connect() for shard in backend.shards
        ]
        self.placement = backend.placement
        self.dialect = self._shards[0].dialect
        self.stats = ExecutionStats()
        self.catalog = ClusterCatalog()
        self.coordinator = ShardCoordinator(self._shards)
        #: physical column order per table, shared with the planner's cost
        #: pass (maintained by :meth:`_execute_ddl`)
        self._columns_of: dict[str, tuple[str, ...]] = {}
        self.planner = ClusterPlanner(
            self.catalog,
            scatter_gather=backend.scatter_gather,
            functions=self.coordinator.functions,
            columns_of=self._columns_of,
            statistics_provider=self.statistics,
            udf_statements_provider=self._sql_udf_statements,
        )
        #: the most recent query plan, for tests/examples/monitoring
        self.last_plan: Optional[Plan] = None
        #: plans served from a CompiledQuery's attachment memo (warm cache hits)
        self.plan_reuses = 0
        self._tables: dict[str, _TableSchema] = {}
        self._ddl_log: list[ast.Statement] = []
        self._udf_log: list[tuple[str, str, Any, bool]] = []
        self._udf_statement_cache: Optional[tuple[ast.Select, ...]] = None
        self._scratch: Optional[BackendConnection] = None
        self._scratch_backend: Optional[Backend] = None
        #: per-table scratch freshness: ``(dataset, prefilter, columns)`` of
        #: the last sync — dataset ``None`` = all tenants, prefilter ``None``
        #: = unfiltered, columns ``None`` = full width; absent = stale.
        #: A less restricted copy serves a more restricted request (see
        #: :meth:`_scratch_serves`).
        self._scratch_state: dict[
            str,
            tuple[
                Optional[frozenset[int]], Optional[str], Optional[frozenset[str]]
            ],
        ] = {}
        #: federated pull volume, for benchmarks: base rows / cells copied
        #: from shards into the scratch backend, and how many of those table
        #: syncs ran with a pushed-down prefilter
        self.rows_pulled = 0
        self.cells_pulled = 0
        self.prefiltered_syncs = 0
        self._lock = threading.RLock()

    # -- shard access ---------------------------------------------------------

    @property
    def shard_connections(self) -> tuple[BackendConnection, ...]:
        """The per-shard connections, in shard order."""
        return tuple(self._shards)

    @property
    def shard_count(self) -> int:
        """Number of shards in the cluster."""
        return len(self._shards)

    # -- statement execution ---------------------------------------------------

    def execute(
        self, statement: Statement, parameters: Optional[Sequence[Any]] = None
    ) -> ExecuteResult:
        """Execute one statement on the cluster (scatter-gather for SELECTs)."""
        return self.execute_scoped(statement, dataset=None, parameters=parameters)

    def execute_scoped(
        self,
        statement: Statement,
        dataset: Optional[Sequence[int]] = None,
        parameters: Optional[Sequence[Any]] = None,
        compiled: Optional["CompiledQuery"] = None,
    ) -> ExecuteResult:
        """Execute a statement, pruning the shard fan-out to ``dataset``'s shards.

        ``compiled`` (a middleware-compiled statement's artifact) hands the
        planner the static analyzer's column provenance and lets this
        connection memoize the resulting plan on the artifact, so a gateway
        cache hit re-executes without planning at all.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        self.stats.add(statements=1)
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, dataset, parameters, compiled)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, parameters)
        if isinstance(statement, (ast.Update, ast.Delete)):
            return self._execute_update_delete(statement, parameters)
        if isinstance(
            statement,
            (ast.CreateTable, ast.CreateView, ast.CreateFunction, ast.DropTable, ast.DropView),
        ):
            return self._execute_ddl(statement)
        raise ClusterError(
            f"the sharded backend cannot execute {type(statement).__name__} statements"
        )

    # -- SELECT ---------------------------------------------------------------

    def _execute_select(
        self,
        statement: ast.Select,
        dataset: Optional[Sequence[int]],
        parameters: Optional[Sequence[Any]],
        compiled: Optional["CompiledQuery"] = None,
    ) -> ExecuteResult:
        plan = self._resolve_plan(statement, dataset, compiled)
        if isinstance(plan, FederatedPlan):
            return self._execute_federated(plan, dataset, parameters)
        return self.coordinator.execute(plan, parameters)

    def _resolve_plan(
        self,
        statement: ast.Select,
        dataset: Optional[Sequence[int]],
        compiled: Optional["CompiledQuery"],
    ) -> Plan:
        """The cluster plan for one SELECT, memoized on its compiled artifact.

        Plans are derived from the *parameterized* statement (bind values
        ride separately into the shards), so one memoized plan serves every
        binding of a prepared statement.  The plan carries the engine plans
        of its shard statement and merge query (``plan.attachments``, see
        :mod:`repro.cluster.coordinator`), so a warm hit prepares nothing.
        """
        shards = self.placement.shards_for(dataset)
        plan: Optional[Plan] = None
        memo_key = None
        if compiled is not None:
            # the memo key pins the shard fan-out and the catalog version, so
            # neither DDL nor a different D' can resurrect a stale plan
            memo_key = ("cluster-plan", id(self), tuple(shards), self.catalog.version)
            with self._lock:
                plan = compiled.attachments.get(memo_key)
                if plan is not None:
                    self.plan_reuses += 1
        if plan is None:
            # raw backend SQL arrives uncompiled: no facts
            plan = self.planner.plan(
                statement,
                shards,
                column_owners=(
                    compiled.facts.column_owners if compiled is not None else None
                ),
            )
            if memo_key is not None:
                with self._lock:
                    compiled.attachments[memo_key] = plan
        self.last_plan = plan
        return plan

    def execute_stream(
        self,
        statement: Statement,
        dataset: Optional[Sequence[int]] = None,
        parameters: Optional[Sequence[Any]] = None,
        compiled: Optional["CompiledQuery"] = None,
    ) -> RowStream:
        """Stream a SELECT: incremental on the single-shard fast path.

        When ``D'`` lands on one shard the stream is the owning shard's own
        ``execute_stream`` (truly incremental for engine and SQLite shards);
        scatter-gather and federated plans must merge before the first row is
        known, so they materialize and replay.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if not isinstance(statement, ast.Select):
            raise ClusterError("execute_stream() expects a SELECT statement")
        self.stats.add(statements=1)
        plan = self._resolve_plan(statement, dataset, compiled)
        if isinstance(plan, SingleShardPlan):
            return self._shards[plan.shard].execute_stream(
                plan.statement, parameters=parameters, compiled=plan
            )
        if isinstance(plan, FederatedPlan):
            result = self._execute_federated(plan, dataset, parameters)
        else:
            result = self.coordinator.execute(plan, parameters)
        return RowStream(columns=result.columns, rows=result.rows)

    # -- DDL ------------------------------------------------------------------

    def _execute_ddl(self, statement: ast.Statement) -> ExecuteResult:
        with self._lock:
            if isinstance(statement, ast.CreateTable):
                self._tables[statement.name.lower()] = _TableSchema(
                    name=statement.name,
                    columns=tuple(column.name for column in statement.columns),
                    column_defs=tuple(statement.columns),
                )
                self._columns_of[statement.name.lower()] = tuple(
                    column.name for column in statement.columns
                )
                self.catalog.add_relation(statement.name)
            elif isinstance(statement, ast.CreateView):
                self.catalog.add_view(statement.name)
            elif isinstance(statement, ast.DropTable):
                self._tables.pop(statement.name.lower(), None)
                self._columns_of.pop(statement.name.lower(), None)
                self.catalog.drop_relation(statement.name)
                self._scratch_state.pop(statement.name.lower(), None)
            elif isinstance(statement, ast.DropView):
                self.catalog.drop_view(statement.name)
            elif isinstance(statement, ast.CreateFunction):
                # a SQL-bodied function reads tables the query text never
                # names; re-parse the UDF bodies lazily
                self._udf_statement_cache = None
            self._ddl_log.append(statement)
            result: ExecuteResult = StatementResult(type(statement).__name__)
            for shard in self._shards:
                result = shard.execute(statement)
            if self._scratch is not None:
                self._scratch.execute(statement)
            return result

    def register_partitioned_table(
        self,
        table_name: str,
        ttid_column: str,
        local_key_columns: Sequence[str] = (),
    ) -> None:
        """Record the partitioning of a tenant-specific table (middleware hook)."""
        with self._lock:
            self.catalog.set_partitioned(
                PartitionInfo(
                    table=table_name,
                    ttid_column=ttid_column,
                    local_keys=frozenset(column.lower() for column in local_key_columns),
                )
            )
            # shards hear about the tenant column too, so their statistics
            # carry the per-tenant row histograms the cost model reads
            for shard in self._shards:
                shard.register_partitioned_table(
                    table_name, ttid_column, local_key_columns
                )

    # -- DML ------------------------------------------------------------------

    def _execute_insert(
        self, statement: ast.Insert, parameters: Optional[Sequence[Any]]
    ) -> ExecuteResult:
        if statement.query is not None:
            raise ClusterError(
                "INSERT ... SELECT cannot be routed by the sharded backend; "
                "the middleware materializes it into per-owner VALUES first"
            )
        if parameters and statement_parameters(statement):
            # routing reads concrete row values (the ttid column), so bind
            # before inspecting the rows rather than passing through; $n-style
            # values (no Parameter slots) keep the historic pass-through
            statement = bind_parameters(statement, tuple(parameters))
            parameters = None
        self._mark_scratch_stale(statement.table)
        info = self.catalog.partitioned.get(statement.table.lower())
        if info is None:
            # global table: replicate on every shard
            result: ExecuteResult = StatementResult("INSERT")
            for shard in self._shards:
                result = shard.execute(statement, parameters=parameters)
            return result
        ttid_index = self._ttid_index(statement, info)
        routed: dict[int, list[tuple]] = {}
        for row in statement.rows:
            ttid_value = row[ttid_index]
            if not isinstance(ttid_value, ast.Literal) or ttid_value.value is None:
                raise ClusterError(
                    f"cannot route INSERT into {statement.table!r}: the "
                    f"{info.ttid_column} value must be a literal"
                )
            shard = self.placement.shard_of(int(ttid_value.value))
            routed.setdefault(shard, []).append(row)
        total = 0
        for shard, rows in sorted(routed.items()):
            shard_statement = ast.Insert(
                table=statement.table, columns=statement.columns, rows=rows
            )
            total += self._shards[shard].execute(
                shard_statement, parameters=parameters
            ).rowcount
        return StatementResult("INSERT", rowcount=total)

    def _ttid_index(self, statement: ast.Insert, info: PartitionInfo) -> int:
        target = info.ttid_column.lower()
        if statement.columns:
            for index, column in enumerate(statement.columns):
                if column.lower() == target:
                    return index
            raise ClusterError(
                f"cannot route INSERT into {statement.table!r}: the column list "
                f"omits the {info.ttid_column} column"
            )
        schema = self._tables.get(statement.table.lower())
        if schema is None:
            raise ClusterError(
                f"cannot route INSERT into unknown table {statement.table!r}"
            )
        for index, column in enumerate(schema.columns):
            if column.lower() == target:
                return index
        raise ClusterError(  # pragma: no cover - schema always has the ttid
            f"table {statement.table!r} has no {info.ttid_column} column"
        )

    def _execute_update_delete(
        self,
        statement: Union[ast.Update, ast.Delete],
        parameters: Optional[Sequence[Any]],
    ) -> ExecuteResult:
        partitioned = self.catalog.is_partitioned(statement.table)
        kind = "UPDATE" if isinstance(statement, ast.Update) else "DELETE"
        info = self.catalog.partitioned.get(statement.table.lower())
        if info is not None and isinstance(statement, ast.Update):
            # moving a row between tenants would strand it on the old
            # tenant's shard, breaking the placement invariant for good
            for assignment in statement.assignments:
                if assignment.column.lower() == info.ttid_column.lower():
                    raise ClusterError(
                        f"UPDATE must not reassign the partitioning column "
                        f"{info.ttid_column!r} of {statement.table!r}; delete "
                        f"and re-insert under the new owner instead"
                    )
        if not partitioned:
            # a replicated target whose predicate reads partitioned tables
            # (directly or through a view) would evaluate the sub-query per
            # shard against that shard's partition only, silently diverging
            # the replicas
            references = referenced_table_names(statement) - {statement.table.lower()}
            touched = sorted(
                name
                for name in references
                if name in self.catalog.partitioned or name in self.catalog.views
            )
            if touched:
                raise ClusterError(
                    f"{kind} on replicated table {statement.table!r} references "
                    f"partitioned table(s) or view(s) {touched}; per-shard "
                    f"evaluation would diverge the replicas — run it per tenant "
                    f"or against a single backend"
                )
        self._check_dml_decomposes(statement, kind)
        self._mark_scratch_stale(statement.table)
        total = 0
        first: Optional[int] = None
        for shard in self._shards:
            rowcount = shard.execute(statement, parameters=parameters).rowcount
            total += rowcount
            if first is None:
                first = rowcount
        # partitioned rows exist once across the cluster (sum); global rows
        # are replicas — report one copy's count like a single backend would
        return StatementResult(kind, rowcount=total if partitioned else (first or 0))

    def _check_dml_decomposes(
        self, statement: Union[ast.Update, ast.Delete], kind: str
    ) -> None:
        """Reject DML whose per-shard evaluation is not the global evaluation.

        Broadcasting is only sound when every sub-query in the predicate (and
        in UPDATE assignment values) is shard-local by the planner's rules —
        global-only, or probing tenant-local keys.  A cross-shard sub-query
        (e.g. ``WHERE x < (SELECT AVG(x) FROM t)`` over a partitioned ``t``)
        would mutate different rows per shard; there is no federated write
        path, so the statement is refused rather than silently corrupted.
        """
        if len(self._shards) == 1:
            return
        probe_items = (
            [ast.SelectItem(expr=assignment.value) for assignment in statement.assignments]
            if isinstance(statement, ast.Update)
            else [ast.SelectItem(expr=ast.Star())]
        ) or [ast.SelectItem(expr=ast.Star())]
        probe = ast.Select(
            items=probe_items,
            from_items=[ast.TableRef(name=statement.table)],
            where=statement.where,
        )
        if not ShardabilityAnalyzer(self.catalog).stream_info(probe).ok:
            raise ClusterError(
                f"{kind} on {statement.table!r} uses a sub-query that needs "
                f"cross-shard data; per-shard evaluation would mutate the "
                f"wrong rows — rewrite it per tenant or run it against a "
                f"single backend"
            )

    # -- federated fallback ----------------------------------------------------

    def _execute_federated(
        self,
        plan: FederatedPlan,
        dataset: Optional[Sequence[int]],
        parameters: Optional[Sequence[Any]],
    ) -> ExecuteResult:
        with self._lock:
            scratch = self._ensure_scratch()
            if plan.tables is None:
                tables = set(self.catalog.relations)
            else:
                # SQL-bodied UDFs (the Listings-4-7 conversion functions) read
                # meta tables the query text never names; sync those too
                tables = set(plan.tables) | self._sql_udf_tables()
            prefilters = {
                prefilter.table.lower(): prefilter for prefilter in plan.prefilters
            }
            pull_columns = {
                table.lower(): columns for table, columns in plan.pull_columns
            }
            for table in sorted(tables):
                self._sync_scratch_table(
                    scratch,
                    table,
                    dataset,
                    prefilter=prefilters.get(table.lower()),
                    columns=pull_columns.get(table.lower()),
                )
            return scratch.execute(plan.statement, parameters=parameters)

    def _sql_udf_tables(self) -> set[str]:
        """Cluster tables the SQL UDF bodies read (the query text never names
        them, so a federated plan syncs them too)."""
        support: set[str] = set()
        for body in self._sql_udf_statements():
            support |= referenced_table_names(body)
        return support & self.catalog.relations

    def _sql_udf_statements(self) -> tuple[ast.Select, ...]:
        """Parsed SQL-UDF bodies (registered *or* DDL-created), cached.

        Columns a UDF body reads never appear in the query text, so the
        planner must treat them as referenced when deriving per-table pull
        columns for federated plans.
        """
        if self._udf_statement_cache is None:
            bodies = [
                payload
                for kind, _name, payload, _immutable in self._udf_log
                if kind == "sql"
            ]
            bodies.extend(
                statement.body
                for statement in self._ddl_log
                if isinstance(statement, ast.CreateFunction)
                and statement.language.upper() == "SQL"
            )
            self._udf_statement_cache = tuple(map(parse_query, bodies))
        return self._udf_statement_cache

    def _ensure_scratch(self) -> BackendConnection:
        """The lazily-created merge backend, with the cluster's DDL/UDFs replayed."""
        if self._scratch is None:
            self._scratch_backend = self._backend.create_shard_backend()
            self._scratch = self._scratch_backend.connect()
            for statement in self._ddl_log:
                self._scratch.execute(statement)
            for kind, name, payload, immutable in self._udf_log:
                if kind == "python":
                    self._scratch.register_python_function(
                        name, payload, immutable=immutable
                    )
                else:
                    self._scratch.register_sql_function(
                        name, payload, immutable=immutable
                    )
        return self._scratch

    def _sync_scratch_table(
        self,
        scratch: BackendConnection,
        table: str,
        dataset: Optional[Sequence[int]],
        prefilter: Optional[TablePrefilter] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        """Refresh one scratch table from the shards (``D'``-pruned when known).

        The cluster planner may narrow the pull further: ``prefilter`` is a
        predicate every shard evaluates locally before shipping rows (sound
        because the federated statement re-applies its own predicates on the
        scratch copy), and ``columns`` is the column subset the statement
        reads — unpulled columns are dummy-filled, never observed.

        Skipped when the previous sync still covers this request
        (:meth:`_scratch_serves`); mutations drop the entry via
        :meth:`_mark_scratch_stale`.
        """
        key = table.lower()
        info = self.catalog.partitioned.get(key)
        want_dataset: Optional[frozenset[int]] = (
            None
            if info is None or dataset is None
            else frozenset(int(ttid) for ttid in dataset)
        )
        want_filter = prefilter.predicate.to_sql() if prefilter is not None else None
        schema = self._tables.get(key)
        pulled: Optional[tuple[str, ...]] = None
        if columns is not None and schema is not None and schema.column_defs:
            wanted = {column.lower() for column in columns}
            pulled = tuple(
                column for column in schema.columns if column.lower() in wanted
            )
            if len(pulled) == len(schema.columns):
                pulled = None  # nothing projected away: a full-width pull
        want_columns = frozenset(c.lower() for c in pulled) if pulled else None
        want = (want_dataset, want_filter, want_columns)
        have = self._scratch_state.get(key)
        if have is not None and self._scratch_serves(have, want):
            return
        scratch.execute(ast.Delete(table=table))
        items = (
            [ast.SelectItem(expr=ast.Star())]
            if pulled is None
            else [ast.SelectItem(expr=ast.Column(name=column)) for column in pulled]
        )
        pull: ast.Select = ast.Select(
            items=items,
            from_items=[ast.TableRef(name=table)],
        )
        conjuncts: list[ast.Expression] = []
        if info is None:
            if prefilter is not None:
                pull.where = prefilter.predicate
            rows = list(self._shards[0].query(pull).rows)
        else:
            sources = (
                range(len(self._shards))
                if dataset is None
                else self.placement.shards_for(dataset)
            )
            if dataset is not None:
                conjuncts.append(
                    ast.InList(
                        expr=ast.Column(name=info.ttid_column),
                        items=tuple(ast.Literal(int(ttid)) for ttid in dataset),
                    )
                )
            if prefilter is not None:
                conjuncts.append(prefilter.predicate)
            if conjuncts:
                pull.where = ast.and_(*conjuncts)
            rows = []
            for shard in sources:
                rows.extend(self._shards[shard].query(pull).rows)
        self.rows_pulled += len(rows)
        width = len(pulled) if pulled is not None else (
            len(schema.columns) if schema is not None else 0
        )
        self.cells_pulled += len(rows) * width
        if prefilter is not None:
            self.prefiltered_syncs += 1
        if pulled is not None:
            rows = self._widen_rows(schema, pulled, rows)
        if rows:
            scratch.insert_rows(table, rows)
        self._scratch_state[key] = want

    @staticmethod
    def _scratch_serves(
        have: tuple[
            Optional[frozenset[int]], Optional[str], Optional[frozenset[str]]
        ],
        want: tuple[
            Optional[frozenset[int]], Optional[str], Optional[frozenset[str]]
        ],
    ) -> bool:
        """Whether the scratch copy described by ``have`` covers ``want``.

        Each dimension serves when the held copy is unrestricted (``None``)
        or at least as wide: a full copy serves any ``D'``, an unfiltered
        copy any prefilter (the statement re-applies its own predicates),
        a full-width copy any column subset; a held column *superset* also
        serves.  A held prefilter serves only the identical one — implication
        between arbitrary predicates is not decided here.
        """
        have_dataset, have_filter, have_columns = have
        want_dataset, want_filter, want_columns = want
        if have_dataset is not None and have_dataset != want_dataset:
            return False
        if have_filter is not None and have_filter != want_filter:
            return False
        if have_columns is not None and (
            want_columns is None or not want_columns <= have_columns
        ):
            return False
        return True

    def _widen_rows(
        self,
        schema: _TableSchema,
        pulled: tuple[str, ...],
        rows: list[tuple],
    ) -> list[tuple]:
        """Expand projected pull rows back to full schema width.

        Projected-away columns get type-appropriate placeholders — the
        federated statement never reads them, they only satisfy the scratch
        table's arity and NOT NULL checks.
        """
        pulled_set = {column.lower() for column in pulled}
        template: list[Any] = []
        slots: list[int] = []
        for index, column in enumerate(schema.column_defs):
            if column.name.lower() in pulled_set:
                template.append(None)
                slots.append(index)
            else:
                template.append(schema.placeholder(column))
        widened = []
        for row in rows:
            full = list(template)
            for slot, value in zip(slots, row):
                full[slot] = value
            widened.append(tuple(full))
        return widened

    def _mark_scratch_stale(self, table: str) -> None:
        """Force the next federated query to re-pull ``table``."""
        with self._lock:
            self._scratch_state.pop(table.lower(), None)

    # -- UDF registration ------------------------------------------------------

    def register_python_function(
        self, name: str, fn: Callable[..., Any], immutable: bool = False
    ) -> None:
        """Register a Python UDF on every shard (and the scratch backend).

        The callable is also registered with the coordinator, so merge
        queries can call it (the optimizer's inlined conversion rates sit
        outside the aggregates) without another backend round-trip.
        """
        with self._lock:
            self._udf_log.append(("python", name, fn, immutable))
            self.coordinator.register_python_function(name, fn)
            for shard in self._shards:
                shard.register_python_function(name, fn, immutable=immutable)
            if self._scratch is not None:
                self._scratch.register_python_function(name, fn, immutable=immutable)

    def register_sql_function(
        self, name: str, body: str, immutable: bool = False
    ) -> None:
        """Register a SQL-bodied UDF on every shard (and the scratch backend)."""
        with self._lock:
            self._udf_log.append(("sql", name, body, immutable))
            # re-parse the UDF bodies (sync set, pushdown inputs) lazily
            self._udf_statement_cache = None
            for shard in self._shards:
                shard.register_sql_function(name, body, immutable=immutable)
            if self._scratch is not None:
                self._scratch.register_sql_function(name, body, immutable=immutable)

    # -- bulk load / metadata --------------------------------------------------

    def insert_rows(self, table_name: str, rows: list[tuple]) -> int:
        """Bulk-load rows: routed by ttid for partitioned tables, else replicated."""
        self._mark_scratch_stale(table_name)
        info = self.catalog.partitioned.get(table_name.lower())
        if info is None:
            for shard in self._shards:
                shard.insert_rows(table_name, rows)
            return len(rows)
        schema = self._tables.get(table_name.lower())
        if schema is None:
            raise ClusterError(f"cannot bulk-load unknown table {table_name!r}")
        target = info.ttid_column.lower()
        ttid_index = next(
            index
            for index, column in enumerate(schema.columns)
            if column.lower() == target
        )
        routed: dict[int, list[tuple]] = {}
        for row in rows:
            routed.setdefault(
                self.placement.shard_of(int(row[ttid_index])), []
            ).append(row)
        for shard, shard_rows in sorted(routed.items()):
            self._shards[shard].insert_rows(table_name, shard_rows)
        return len(rows)

    def table_rowcount(self, table_name: str) -> int:
        """Logical row count: summed for partitioned tables, one replica else."""
        if self.catalog.is_partitioned(table_name):
            return sum(shard.table_rowcount(table_name) for shard in self._shards)
        return self._shards[0].table_rowcount(table_name)

    def check_integrity(self) -> list[str]:
        """Integrity violations of every shard, prefixed with the shard id."""
        violations: list[str] = []
        for index, shard in enumerate(self._shards):
            violations.extend(
                f"shard {index}: {message}" for message in shard.check_integrity()
            )
        return violations

    # -- statistics / caches ---------------------------------------------------

    def _replicated_relations(self) -> frozenset[str]:
        """Relations replicated on every shard (everything not partitioned)."""
        return frozenset(
            name
            for name in self.catalog.relations
            if name not in self.catalog.partitioned
        )

    def collect_statistics(self) -> StatisticsCatalog:
        """Freshly scan every shard and merge into cluster-wide statistics.

        Partitioned tables merge additively across shards (each row lives on
        exactly one shard); replicated tables take one shard's statistics
        verbatim.
        """
        return merge_catalogs(
            [shard.collect_statistics() for shard in self._shards],
            replicated=self._replicated_relations(),
        )

    def statistics(self) -> StatisticsCatalog:
        """Cluster-wide statistics from the shards' lazily refreshed catalogs."""
        return merge_catalogs(
            [shard.statistics() for shard in self._shards],
            replicated=self._replicated_relations(),
        )

    def reset_pull_counters(self) -> None:
        """Zero the federated pull-volume counters (rows/cells/prefilters)."""
        with self._lock:
            self.rows_pulled = 0
            self.cells_pulled = 0
            self.prefiltered_syncs = 0

    def aggregate_stats(self) -> ExecutionStats:
        """Sum of the shard (and scratch) counters, as a plain snapshot."""
        total = ExecutionStats()
        connections = list(self._shards)
        if self._scratch is not None:
            connections.append(self._scratch)
        for connection in connections:
            total.add(**connection.stats.counters())
        return total

    def reset_stats(self) -> None:
        """Reset the coordinator's, the planner's and every shard's counters."""
        self.stats.reset()
        with self._lock:
            self.plan_reuses = 0
        self.reset_pull_counters()
        self.planner.reset_stats()
        for shard in self._shards:
            shard.reset_stats()
        if self._scratch is not None:
            self._scratch.reset_stats()

    def clear_function_caches(self) -> None:
        """Drop memoized UDF results on every shard (and the scratch backend)."""
        for shard in self._shards:
            shard.clear_function_caches()
        if self._scratch is not None:
            self._scratch.clear_function_caches()

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Shut down the coordinator pool (backends are closed by the factory)."""
        self.coordinator.close()

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"ShardedConnection(shards={len(self._shards)}, "
            f"placement={self.placement!r}, dialect={self.dialect.name!r})"
        )


class ShardedBackend(Backend):
    """A cluster of N identical backends presented as one backend.

    ``shards`` picks the shard count (default 2), ``backend_factory`` builds
    each shard (default: a fresh in-memory engine per shard with ``profile``),
    and ``placement`` assigns tenants to shards
    (:class:`~repro.cluster.placement.HashPlacement` by default).  The
    factory is also used for the federated scratch backend, so every member
    of the cluster speaks the same dialect.

    ``scatter_gather=False`` disables the decomposed strategies and forces
    every multi-shard query through the (always-correct) federated path —
    the escape hatch for workloads that join tenant-specific rows of
    different tenants on non-key attributes, where the planner's co-location
    assumption does not hold.
    """

    name = "sharded"

    def __init__(
        self,
        shards: Optional[int] = None,
        backend_factory: Optional[Callable[[], Backend]] = None,
        placement: Optional[PlacementPolicy] = None,
        profile: str = "postgres",
        scatter_gather: bool = True,
    ) -> None:
        if placement is None:
            placement = HashPlacement(shards if shards is not None else 2)
        elif shards is not None and shards != placement.shard_count:
            raise ClusterError(
                f"shards={shards} contradicts the placement policy's "
                f"shard_count={placement.shard_count}"
            )
        self.placement = placement
        self.scatter_gather = scatter_gather
        if backend_factory is None:
            from .engine import EngineBackend

            backend_factory = lambda: EngineBackend(profile=profile)  # noqa: E731
        self._backend_factory = backend_factory
        self.shards: list[Backend] = [
            backend_factory() for _ in range(placement.shard_count)
        ]
        self._scratch_backends: list[Backend] = []
        self.dialect = self.shards[0].dialect
        self._connection = ShardedConnection(self)

    def create_shard_backend(self) -> Backend:
        """Build one more backend of the cluster's family (scratch storage)."""
        backend = self._backend_factory()
        self._scratch_backends.append(backend)
        return backend

    def connect(self) -> ShardedConnection:
        """The cluster's single logical connection."""
        return self._connection

    def close(self) -> None:
        """Close the coordinator, every shard and any scratch backends."""
        self._connection.close()
        for backend in self.shards + self._scratch_backends:
            backend.close()

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"ShardedBackend(shards={len(self.shards)}, "
            f"family={self.shards[0].name!r}, placement={self.placement!r})"
        )
