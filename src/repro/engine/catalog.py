"""The engine catalog: tables, views and user-defined functions."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import CatalogError
from ..sql import ast
from .storage import ForeignKey, Table, TableSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .functions import Function


class Catalog:
    """Case-insensitive registry of tables, views, constraints and functions."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ast.Select] = {}
        self._functions: dict[str, "Function"] = {}
        self._foreign_keys: list[ForeignKey] = []

    # -- tables -------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.key
        if key in self._tables or key in self._views:
            raise CatalogError(f"relation {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self._foreign_keys = [fk for fk in self._foreign_keys if fk.table.lower() != key]

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    def table_names(self) -> list[str]:
        return [table.schema.name for table in self._tables.values()]

    # -- views --------------------------------------------------------------

    def create_view(self, name: str, query: ast.Select) -> None:
        key = name.lower()
        if key in self._tables or key in self._views:
            raise CatalogError(f"relation {name!r} already exists")
        self._views[key] = query

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._views:
            if if_exists:
                return
            raise CatalogError(f"view {name!r} does not exist")
        del self._views[key]

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def view(self, name: str) -> ast.Select:
        try:
            return self._views[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"view {name!r} does not exist") from exc

    # -- functions ------------------------------------------------------------

    def register_function(self, function: "Function") -> None:
        self._functions[function.name.lower()] = function

    def has_function(self, name: str) -> bool:
        return name.lower() in self._functions

    def function(self, name: str) -> "Function":
        try:
            return self._functions[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"function {name!r} is not defined") from exc

    def function_names(self) -> list[str]:
        return [function.name for function in self._functions.values()]

    # -- constraints ----------------------------------------------------------

    def add_foreign_key(self, foreign_key: ForeignKey) -> None:
        self._foreign_keys.append(foreign_key)

    def foreign_keys(self, table: Optional[str] = None) -> list[ForeignKey]:
        if table is None:
            return list(self._foreign_keys)
        key = table.lower()
        return [fk for fk in self._foreign_keys if fk.table.lower() == key]
