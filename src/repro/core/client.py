"""Client connections to MTBase.

An :class:`MTConnection` carries the two MTSQL parameters that plain SQL
lacks: the client tenant ``C`` (fixed by the connection, §2.1) and the data
set ``D`` (the ``SCOPE`` runtime parameter).  Every statement goes through the
paper's middleware pipeline (Figure 4):

1. if the scope is complex, run its rewritten query to determine ``D``,
2. prune ``D`` to ``D'`` using the client's privileges,
3. compile the MTSQL statement into plain SQL through the middleware's staged
   :class:`~repro.compile.QueryCompiler` (type check + canonical rewrite +
   the configured optimization level's passes + the shardability analysis)
   — exactly once per statement; bind values are checked against the
   artifact's inferred slot types,
4. execute the compiled SQL on the underlying DBMS and relay the result; the
   whole :class:`~repro.compile.CompiledQuery` artifact travels with it so a
   sharded backend never re-analyses the AST.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..errors import MTSQLError, ParameterError, PrivilegeError
from ..result import QueryResult, RowStream, StatementResult
from ..sql import ast
from ..sql.dialect import Dialect, get_dialect
from ..sql.params import ParameterValues, resolve_parameters, statement_parameters
from ..sql.parser import parse_submitted_statement
from ..sql.printer import to_sql
from ..sql.transform import referenced_table_names
from .dml import DMLRewriter, RewrittenDML
from .optimizer.levels import OptimizationLevel
from .rewrite.canonical import CanonicalRewriter
from .scope import ComplexScope, DefaultScope, Scope, parse_scope, scope_dataset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile import CompiledQuery, ExplainReport
    from .middleware import MTBase

#: the privilege each DML statement kind needs on the tenants it writes
DML_PRIVILEGES = {ast.Insert: "INSERT", ast.Update: "UPDATE", ast.Delete: "DELETE"}


class MTConnection:
    """A client connection with its own C, SCOPE and optimization level."""

    def __init__(self, middleware: "MTBase", client: int, level: OptimizationLevel) -> None:
        self.middleware = middleware
        self.client = client
        self.optimization = level
        #: the execution backend this connection's statements are sent to
        self.backend = middleware.backend
        self.scope: Scope = DefaultScope()
        #: the most recently executed rewritten statement(s), for inspection
        self.last_rewritten: list[ast.Statement] = []

    def __repr__(self) -> str:
        return (
            f"MTConnection(client={self.client}, scope={self.scope.describe()!r}, "
            f"optimization={self.optimization.value}, backend={self.backend.name})"
        )

    # -- scope handling -----------------------------------------------------------

    def set_scope(self, scope: Union[str, Scope]) -> None:
        """``SET SCOPE = "..."`` — change the connection's data set D."""
        if isinstance(scope, Scope):
            self.scope = scope
        else:
            self.scope = parse_scope(scope)

    def reset_scope(self) -> None:
        """Restore the default scope (D = {C})."""
        self.scope = DefaultScope()

    def dataset(self) -> tuple[int, ...]:
        """Resolve the current scope to the concrete data set D."""
        return scope_dataset(
            self.scope,
            self.client,
            self.middleware.tenants(),
            complex_resolver=self._resolve_complex_scope,
        )

    def _resolve_complex_scope(self, scope: ComplexScope) -> list[int]:
        context = self.middleware.compiler.rewrite_context(
            self.client, self.middleware.tenants(), self.optimization
        )
        rewritten = CanonicalRewriter(context).rewrite_scope_query(scope.query)
        result = self.backend.execute(rewritten)
        return [int(row[0]) for row in result.rows]

    # -- statement execution ---------------------------------------------------------

    def execute(
        self,
        statement: Union[str, ast.Statement],
        parameters: Optional[ParameterValues] = None,
    ):
        """Execute one MTSQL statement and return the relayed DBMS result.

        ``parameters`` bind a parameterized statement's ``?``/``:name``
        placeholders (positional sequence or ``{name: value}`` mapping).
        SELECT, INSERT, UPDATE and DELETE keep their parameters through the
        rewrite and bind at the backend: the MTSQL rewrite reads no bound
        value (see :mod:`repro.core.dml`).
        Unparsable SQL raises :class:`~repro.errors.InvalidStatementError`
        with the offending fragment.
        """
        if isinstance(statement, str):
            statement = parse_submitted_statement(statement)
        slots = statement_parameters(statement)
        values: tuple = ()
        if parameters is not None or slots:
            values = resolve_parameters(slots, parameters)
        if isinstance(statement, ast.Select):
            return self._execute_query(statement, values)
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            return self._execute_dml(statement, values)
        if values:
            raise ParameterError(
                f"cannot bind parameters into a {type(statement).__name__} statement"
            )
        if isinstance(statement, ast.SetScope):
            self.set_scope(statement.scope_text)
            self.last_rewritten = []
            return StatementResult("SET SCOPE")
        if isinstance(statement, (ast.Grant, ast.Revoke)):
            return self._execute_dcl(statement)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement)
        if isinstance(
            statement, (ast.CreateTable, ast.CreateFunction, ast.DropTable, ast.DropView)
        ):
            return self.middleware.execute_ddl(statement)
        raise MTSQLError(f"unsupported MTSQL statement {type(statement).__name__}")

    def query(
        self,
        statement: Union[str, ast.Select],
        parameters: Optional[ParameterValues] = None,
    ) -> QueryResult:
        """Execute a SELECT and return its :class:`QueryResult`."""
        result = self.execute(statement, parameters=parameters)
        if not isinstance(result, QueryResult):
            raise MTSQLError("query() expects a SELECT statement")
        return result

    def query_stream(
        self,
        statement: Union[str, ast.Select],
        parameters: Optional[ParameterValues] = None,
    ) -> RowStream:
        """Execute a SELECT as an incremental :class:`~repro.result.RowStream`.

        The statement goes through the ordinary compile pipeline; the
        backend's ``execute_stream`` produces rows on demand (lazily on the
        engine, from an open cursor on SQLite, via the single-shard fast path
        on a cluster — other shapes materialize and replay).
        """
        if isinstance(statement, str):
            statement = parse_submitted_statement(statement)
        if not isinstance(statement, ast.Select):
            raise MTSQLError("query_stream() expects a SELECT statement")
        values = resolve_parameters(statement_parameters(statement), parameters)
        return self.execute_compiled(self.compile(statement), values, stream=True)

    # -- compilation entry points (used by the gateway, tests, examples, bench) -------

    def compile(self, statement: Union[str, ast.Select]) -> "CompiledQuery":
        """Compile a query without executing it: resolve the scope, prune it
        to ``D'`` and run the middleware's staged pipeline once.

        Unparsable SQL raises :class:`~repro.errors.InvalidStatementError`
        with the offending fragment (the same error ``GatewaySession.
        prepare`` raises), so both compilation entry points fail alike.
        """
        if isinstance(statement, str):
            statement = parse_submitted_statement(statement)
        if not isinstance(statement, ast.Select):
            raise MTSQLError("compile() expects a SELECT statement")
        tables = tuple(sorted(self.statement_tables(statement)))
        dataset = self.prune_dataset(self.dataset(), tables)
        return self.compile_resolved(statement, dataset, tables=tables)

    def compile_resolved(
        self,
        query: ast.Select,
        dataset: tuple[int, ...],
        tables: Optional[Sequence[str]] = None,
    ) -> "CompiledQuery":
        """Compile for an already-resolved (and pruned) data set D'.

        This is the cacheable tail of the pipeline: the gateway resolves D'
        per execution (it is part of the cache key) and only pays this step
        on a cache miss.  ``tables`` are the tenant-specific tables walked
        for pruning, when the caller already knows them.
        """
        if tables is None:
            tables = tuple(sorted(self.statement_tables(query)))
        return self.middleware.compiler.compile(
            query,
            client=self.client,
            dataset=tuple(dataset),
            level=self.optimization,
            tables=tuple(tables),
        )

    def rewrite(self, statement: Union[str, ast.Select]) -> ast.Select:
        """Rewrite a query without executing it (the compiled statement)."""
        return self.compile(statement).rewritten

    def rewrite_sql(
        self,
        statement: Union[str, ast.Select],
        dialect: Optional[Union[str, Dialect]] = None,
    ) -> str:
        """Rewrite a query and return the SQL text sent to the DBMS.

        ``dialect`` selects the rendering: a :class:`~repro.sql.dialect.
        Dialect`, a registered dialect name (``"sqlite"``), or the string
        ``"backend"`` for this connection's backend dialect.  The default
        stays the engine's own dialect profile.
        """
        return to_sql(self.rewrite(statement), self._resolve_dialect(dialect))

    def explain(
        self,
        statement: Union[str, ast.Select],
        dialect: Optional[Union[str, Dialect]] = None,
        analyze: bool = False,
        parameters: Optional[Sequence] = None,
    ) -> "ExplainReport":
        """Compile a query and return the pass-by-pass compilation report.

        The report carries per-stage wall time, AST-size deltas, fired-rule
        counts, the conversion-call census, the shardability analysis and the
        SQL snapshot after every stage.  ``dialect`` works like in
        :meth:`rewrite_sql` but defaults to ``"backend"`` — the printout shows
        what this connection's backend would receive.

        With ``analyze=True`` the compiled statement is also *executed* once
        (bind values via ``parameters``) and the report gains the run's
        per-operator execution profile — batch counts, rows per batch and
        wall time next to the per-pass compile timings.  The profile is a
        delta of the backend's statistics around the run, so concurrent
        statements on the same backend would bleed into it; analyze on a
        quiet connection.

        When the backend exposes table statistics the report also carries
        the cost model's estimated plan tree for the rewritten statement
        (``report.estimate``); an analyze run records the actual result
        cardinality next to it (``report.actual_rows``, ``report.q_error``).
        """
        from ..compile.explain import ExplainReport

        resolved = (
            self.backend.dialect if dialect is None else self._resolve_dialect(dialect)
        )
        compiled = self.compile(statement)
        estimate = self._estimate_plan(compiled)
        operators = None
        actual_rows = None
        if analyze:
            operators, actual_rows = self._analyze_operators(compiled, parameters)
        return ExplainReport(
            compiled=compiled,
            dialect=resolved,
            operators=operators,
            estimate=estimate,
            actual_rows=actual_rows,
        )

    def _estimate_plan(self, compiled: "CompiledQuery"):
        """The cost model's plan estimate for a compiled statement.

        ``None`` when the backend has no statistics to estimate from (the
        base-protocol default returns an empty catalog, which still yields
        an estimate tree — only backends without the hook opt out).
        """
        from ..compile.cost import estimate_select

        statistics_of = getattr(self.backend, "statistics", None)
        if statistics_of is None:
            return None
        return estimate_select(
            compiled.rewritten,
            statistics_of(),
            proven_not_null=compiled.facts.proven_not_null,
        )

    def _analyze_operators(
        self, compiled: "CompiledQuery", parameters: Optional[Sequence]
    ) -> tuple:
        """Execute a compiled statement; return its operator-profile delta
        and the run's result cardinality."""
        stats = getattr(self.backend, "stats", None)
        snapshot = getattr(stats, "operator_snapshot", None)
        before = (
            {profile.operator: profile for profile in snapshot()}
            if snapshot is not None
            else {}
        )
        result = self.backend.execute_scoped(
            compiled.rewritten,
            dataset=compiled.dataset,
            parameters=tuple(parameters) if parameters else None,
            compiled=compiled,
        )
        actual_rows = len(result.rows) if hasattr(result, "rows") else None
        operators: list = []
        if snapshot is not None:
            for profile in snapshot():
                delta = profile.since(before.get(profile.operator))
                if delta.batches > 0 or delta.rows > 0:
                    operators.append(delta)
        return operators, actual_rows

    def _resolve_dialect(
        self, dialect: Optional[Union[str, Dialect]]
    ) -> Optional[Dialect]:
        """Resolve a dialect argument (None = the printer's default dialect)."""
        if isinstance(dialect, str):
            if dialect == "backend":
                return self.backend.dialect
            return get_dialect(dialect)
        return dialect  # None or an (possibly wrapped) Dialect object

    # -- internals ----------------------------------------------------------------------

    def _execute_query(self, query: ast.Select, parameters: tuple = ()) -> QueryResult:
        return self.execute_compiled(self.compile(query), parameters)

    def execute_compiled(
        self, compiled: "CompiledQuery", parameters: tuple = (), stream: bool = False
    ) -> Union[QueryResult, RowStream]:
        """Run a compiled SELECT on this connection's backend.

        The one execution step of every SELECT path (direct, streamed and
        through the gateway's cache): bind values are checked against the
        analyzer's inferred slot types first, so a mistyped value (say a
        string bound into a slot compared with a DECIMAL column) fails with a
        :class:`~repro.errors.TypeCheckError` naming the slot before the
        backend sees the statement.  ``stream`` selects ``execute_stream``
        over ``execute_scoped``.
        """
        if parameters and compiled.facts.parameter_types:
            from ..compile.typecheck import check_parameter_values

            check_parameter_values(compiled.facts.parameter_types, tuple(parameters))
        self.last_rewritten = [compiled.rewritten]
        # D' is routing metadata: a sharded backend prunes its fan-out to the
        # shards owning these tenants (single-database backends ignore it);
        # the artifact rides along so the cluster planner reuses its analysis,
        # and bind values travel separately from the parameterized statement
        run = self.backend.execute_stream if stream else self.backend.execute_scoped
        return run(
            compiled.rewritten,
            dataset=compiled.dataset,
            parameters=parameters or None,
            compiled=compiled,
        )

    def prune_dataset(
        self,
        dataset: tuple[int, ...],
        tables: Union[list[str], tuple[str, ...]],
        privilege: str = "READ",
    ) -> tuple[int, ...]:
        """Prune D to D' for the given tables, enforcing the §2.3 rule that a
        statement over a non-empty D must keep at least one accessible tenant."""
        tables = sorted(tables)
        pruned = self.middleware.privileges.prune_dataset(
            self.client, dataset, tables, privilege=privilege
        )
        if dataset and not pruned:
            raise PrivilegeError(
                f"tenant {self.client} has no {privilege} privilege on any tenant in "
                f"{sorted(dataset)} for tables {tables}"
            )
        return pruned

    def _pruned_dataset(
        self, statement: ast.Statement, privilege: str = "READ"
    ) -> tuple[int, ...]:
        return self.prune_dataset(
            self.dataset(), self.statement_tables(statement), privilege=privilege
        )

    def statement_tables(self, statement: ast.Statement) -> set[str]:
        """All tenant-specific base tables a statement touches, in any of its
        nested queries (the privilege-pruning table set; the gateway reads it too)."""
        schema = self.middleware.schema
        return {
            schema.table(name).name
            for name in referenced_table_names(statement)
            if schema.has_table(name) and schema.table(name).is_tenant_specific
        }

    # -- DCL --------------------------------------------------------------------------

    def _execute_dcl(self, statement: Union[ast.Grant, ast.Revoke]) -> StatementResult:
        dataset = self.dataset()
        privileges = statement.privileges
        if isinstance(statement, ast.Grant):
            self.middleware.privileges.grant(
                owner=self.client,
                table=statement.object_name,
                grantee=statement.grantee,
                privileges=privileges,
                dataset=dataset,
            )
            self.last_rewritten = []
            self.middleware.notify_metadata_change()
            return StatementResult("GRANT")
        self.middleware.privileges.revoke(
            owner=self.client,
            table=statement.object_name,
            grantee=statement.grantee,
            privileges=privileges,
            dataset=dataset,
        )
        self.last_rewritten = []
        self.middleware.notify_metadata_change()
        return StatementResult("REVOKE")

    # -- DML --------------------------------------------------------------------------

    def _execute_dml(
        self, statement: Union[ast.Insert, ast.Update, ast.Delete], parameters: tuple = ()
    ) -> StatementResult:
        dataset = self._pruned_dataset(statement, privilege=DML_PRIVILEGES[type(statement)])
        if isinstance(statement, ast.Insert) and statement.query is not None:
            return self._execute_insert_select(statement, dataset, parameters)
        return self.execute_rewritten(self.rewrite_dml(statement, dataset), parameters)

    def rewrite_dml(
        self, statement: Union[ast.Insert, ast.Update, ast.Delete], dataset: tuple[int, ...]
    ) -> RewrittenDML:
        """Rewrite an INSERT … VALUES, UPDATE or DELETE for an already
        resolved and pruned D' (the cacheable step: the gateway keys it like
        a compiled query and pays it only on a miss)."""
        return self._dml_rewriter(dataset).rewrite(statement)

    def execute_rewritten(
        self, rewritten: RewrittenDML, parameters: tuple = ()
    ) -> StatementResult:
        """Run a DML rewrite's statements on this connection's backend, each
        with the execution's bind values; the rewrite is the statements'
        owner, so the backend's write plans are memoized on it."""
        self.last_rewritten = list(rewritten.statements)
        total = 0
        for statement in rewritten.statements:
            total += self.backend.execute_scoped(
                statement, parameters=parameters or None, compiled=rewritten
            ).rowcount
        return StatementResult(rewritten.kind, rowcount=total)

    def _dml_rewriter(self, dataset: tuple[int, ...]) -> DMLRewriter:
        # the DML rewrite needs the canonical form regardless of the level
        return DMLRewriter(
            self.middleware.compiler.rewrite_context(
                self.client, dataset, self.optimization, force_canonical=True
            )
        )

    def _execute_insert_select(
        self, statement: ast.Insert, dataset: tuple[int, ...], parameters: tuple
    ) -> StatementResult:
        """Appendix A.2: run the sub-query on behalf of C, then insert per owner."""
        query_result = self._execute_query(statement.query, parameters)
        rewriter = self._dml_rewriter(dataset)
        columns = rewriter.insert_columns(statement)
        if query_result.rows and len(query_result.rows[0]) != len(columns):
            raise MTSQLError(
                f"INSERT ... SELECT: sub-query yields {len(query_result.rows[0])} columns, "
                f"target list has {len(columns)}"
            )
        values_statement = ast.Insert(
            table=statement.table,
            columns=tuple(columns),
            rows=[tuple(ast.Literal(value) for value in row) for row in query_result.rows],
        )
        return self.execute_rewritten(rewriter.rewrite(values_statement))

    # -- views ------------------------------------------------------------------------

    def _execute_create_view(self, statement: ast.CreateView) -> StatementResult:
        """Tenant views are created over the rewritten (D-filtered) query."""
        dataset = self._pruned_dataset(statement.query)
        compiled = self.compile_resolved(statement.query, dataset)
        self.last_rewritten = [compiled.rewritten]
        self.backend.execute(
            ast.CreateView(name=statement.name, query=compiled.rewritten)
        )
        self.middleware.notify_metadata_change()
        return StatementResult("CREATE VIEW")
