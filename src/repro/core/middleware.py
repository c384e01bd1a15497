"""The MTBase middleware (Figure 4 of the paper).

The middleware sits between clients and an off-the-shelf DBMS — any
:class:`~repro.backends.base.Backend` (the in-memory engine of
:mod:`repro.engine`, SQLite, ...).  It

* keeps the MT-specific metadata: table generality, attribute comparability,
  conversion function pairs, tenants and privileges,
* executes MTSQL DDL by registering the metadata and creating the physical
  (shared-table / "basic layout") tables — each tenant-specific table gets an
  invisible ttid column,
* hands out :class:`~repro.core.client.MTConnection` objects through which
  clients issue MTSQL statements; the connection performs scope resolution,
  privilege pruning, the MTSQL→SQL rewrite and the optimization passes before
  sending plain SQL to the DBMS.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Optional, Union

from ..backends import Backend, BackendConnection, EngineBackend, as_backend_connection
from ..errors import MTSQLError
from ..sql import ast
from ..sql.parser import parse_statement
from .client import MTConnection
from .conversion import ConversionPair, ConversionRegistry
from .mtschema import DEFAULT_TTID_COLUMN, MTSchema
from .optimizer.levels import OptimizationLevel
from .privileges import PrivilegeManager


class MTBase:
    """An MTBase instance: metadata caches plus the underlying DBMS."""

    def __init__(
        self,
        profile: str = "postgres",
        default_optimization: OptimizationLevel = OptimizationLevel.O4,
        backend: Optional[Union[Backend, BackendConnection, str]] = None,
    ) -> None:
        if backend is None:
            backend = EngineBackend(profile=profile)
        # local import: repro.compile builds on repro.core's rewrite/optimizer
        from ..compile.compiler import QueryCompiler
        from ..compile.typecheck import UDFSignature

        #: the execution backend all statements are sent to
        self.backend: BackendConnection = as_backend_connection(backend, profile=profile)
        self.schema = MTSchema()
        #: declared UDF signatures (``CREATE FUNCTION`` DDL), consumed by the
        #: static analyzer; functions registered directly on the backend
        #: (``register_sql_function``) are deliberately absent and unchecked
        self.udf_signatures: dict[str, UDFSignature] = {}
        self.conversions = ConversionRegistry()
        self.privileges = PrivilegeManager()
        self.default_optimization = default_optimization
        #: bumped on every metadata change; caches of rewrites key on it
        self.metadata_version = 0
        self._metadata_lock = threading.Lock()
        #: the staged MTSQL→SQL compiler every connection compiles through
        self.compiler = QueryCompiler(self)

    @property
    def database(self):
        """The engine backend's in-memory :class:`Database` (back-compat).

        Raises for non-engine backends — code that needs to work on any
        backend must go through :attr:`backend` instead.
        """
        engine_database = getattr(self.backend, "engine_database", None)
        if engine_database is None:
            raise MTSQLError(
                f"the {self.backend.name!r} backend has no in-memory engine "
                f"Database; use MTBase.backend"
            )
        return engine_database

    # -- metadata version ---------------------------------------------------------
    #
    # The MTSQL→SQL rewrite of a statement depends on middleware metadata:
    # the MT schema (DDL), privileges (GRANT/REVOKE), the tenant population
    # (the "D = all tenants" trivial optimization) and the conversion
    # registry.  Layers that cache rewrites (:mod:`repro.gateway`) put the
    # version into their cache keys, so a bump makes every older entry
    # unreachable.

    def notify_metadata_change(self) -> None:
        """Bump the metadata version after a change to the rewrite's inputs."""
        # the increment must not lose updates: two concurrent changes
        # collapsing into one bump would leave one of them unseen by caches
        with self._metadata_lock:
            self.metadata_version += 1

    # -- tenants ---------------------------------------------------------------

    def register_tenant(self, ttid: int, name: str = "", **metadata) -> None:
        """Make a tenant known to the middleware (and grant the §2.3 defaults)."""
        self.privileges.register_tenant(ttid, name=name, **metadata)
        # a new tenant can turn an "all tenants" data set into a partial one
        self.notify_metadata_change()

    def tenants(self) -> tuple[int, ...]:
        """The ttids of every registered tenant."""
        return tuple(self.privileges.tenants())

    def allow_cross_tenant_access(
        self, *tables: str, privileges: tuple[str, ...] = ("READ",)
    ) -> None:
        """Let every tenant access every other tenant's rows of ``tables``.

        Convenience for data-sharing agreements (and for the MT-H benchmark);
        equivalent to every tenant issuing ``GRANT <privileges> ON <table> TO
        ALL`` with an all-tenant scope.
        """
        targets = tables or tuple(table.name for table in self.schema.tenant_specific_tables())
        for table in targets:
            self.privileges.grant_public(table, privileges)
        self.notify_metadata_change()

    # -- conversion functions -----------------------------------------------------

    def register_conversion_pair(self, pair: ConversionPair) -> ConversionPair:
        """Register a toUniversal/fromUniversal pair (§2.2.2)."""
        registered = self.conversions.register(pair)
        self.notify_metadata_change()
        return registered

    # -- statistics ------------------------------------------------------------------

    def collect_statistics(self):
        """Freshly scan the backend's tables into planner statistics.

        Forwards to the execution backend (a sharded backend merges its
        shards' catalogs); backends without the hook return an empty
        catalog.  Loaders call this once after bulk loading so the first
        query plans against real numbers.
        """
        return self.backend.collect_statistics()

    def statistics(self):
        """The backend's current (lazily refreshed) statistics catalog."""
        return self.backend.statistics()

    # -- DDL ------------------------------------------------------------------------

    def execute_ddl(
        self,
        statement: Union[str, ast.Statement],
        ttid_column: Optional[str] = None,
    ):
        """Execute an MTSQL DDL statement issued by the data modeller."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if isinstance(statement, ast.CreateTable):
            return self.create_table(statement, ttid_column=ttid_column)
        if isinstance(statement, (ast.CreateFunction, ast.CreateView)):
            result = self.backend.execute(statement)
            if isinstance(statement, ast.CreateFunction):
                from ..compile.typecheck import UDFSignature

                self.udf_signatures[statement.name.lower()] = UDFSignature.from_create(
                    statement
                )
            self.notify_metadata_change()
            return result
        if isinstance(statement, (ast.DropTable, ast.DropView)):
            if isinstance(statement, ast.DropTable):
                self.schema.drop_table(statement.name)
            result = self.backend.execute(statement)
            self.notify_metadata_change()
            return result
        raise MTSQLError(f"not an MTSQL DDL statement: {type(statement).__name__}")

    def create_table(
        self,
        statement: Union[str, ast.CreateTable],
        ttid_column: Optional[str] = None,
    ):
        """Register MT metadata and create the physical shared table.

        Tenant-specific tables get an extra (client-invisible) ttid column;
        global referential-integrity constraints between two tenant-specific
        tables are extended with the ttid columns (Appendix A.1).
        """
        if isinstance(statement, str):
            parsed = parse_statement(statement)
            if not isinstance(parsed, ast.CreateTable):
                raise MTSQLError("create_table() expects a CREATE TABLE statement")
            statement = parsed
        ttid_column = ttid_column or DEFAULT_TTID_COLUMN
        info = self.schema.add_from_create_table(statement, ttid_column=ttid_column)

        physical_columns = [
            ast.ColumnDef(
                name=column.name,
                type_name=column.type_name,
                not_null=column.not_null,
                default=column.default,
            )
            for column in statement.columns
        ]
        physical_constraints = []
        if info.is_tenant_specific:
            physical_columns.insert(
                0, ast.ColumnDef(name=ttid_column, type_name="INTEGER", not_null=True)
            )
        for constraint in statement.constraints:
            physical_constraints.append(self._physical_constraint(constraint, info, ttid_column))

        physical = ast.CreateTable(
            name=statement.name,
            columns=physical_columns,
            constraints=physical_constraints,
            generality=None,
        )
        if info.is_tenant_specific:
            # partition-aware backends (the sharded cluster) route loads and
            # plan scatter-gather from this hint; others inherit the no-op
            self.backend.register_partitioned_table(
                info.name,
                ttid_column,
                local_key_columns=tuple(
                    attribute.name for attribute in info.tenant_specific_attributes()
                ),
            )
        self.backend.execute(physical)
        self.notify_metadata_change()
        return info

    def _physical_constraint(
        self, constraint: ast.TableConstraint, info, ttid_column: str
    ) -> ast.TableConstraint:
        if not info.is_tenant_specific:
            return constraint
        if constraint.kind is ast.ConstraintKind.PRIMARY_KEY:
            # within a shared table, tenant-specific keys are only unique per tenant
            return replace(constraint, columns=(ttid_column,) + tuple(constraint.columns))
        if constraint.kind is ast.ConstraintKind.FOREIGN_KEY:
            ref_table = constraint.ref_table or ""
            if self.schema.has_table(ref_table) and self.schema.table(ref_table).is_tenant_specific:
                ref_ttid = self.schema.table(ref_table).ttid_column
                return replace(
                    constraint,
                    columns=tuple(constraint.columns) + (ttid_column,),
                    ref_columns=tuple(constraint.ref_columns) + (ref_ttid,),
                )
        return constraint

    # -- connections ---------------------------------------------------------------

    def connect(
        self,
        ttid: int,
        optimization: Optional[Union[str, OptimizationLevel]] = None,
    ) -> MTConnection:
        """Open a client connection; C is derived from the connection (§2.1)."""
        if not self.privileges.has_tenant(ttid):
            raise MTSQLError(f"tenant {ttid} is not registered")
        if optimization is None:
            level = self.default_optimization
        elif isinstance(optimization, OptimizationLevel):
            level = optimization
        else:
            level = OptimizationLevel.from_name(optimization)
        return MTConnection(self, ttid, level)

    def gateway(self, cache_size: int = 256):
        """Open a :class:`repro.gateway.QueryGateway` rewrite cache over this instance."""
        from ..gateway import QueryGateway  # local import: gateway depends on core

        return QueryGateway(self, cache_size=cache_size)
