"""In-memory storage: column descriptors, tables and rows.

Rows are plain tuples; a :class:`Table` pairs a :class:`TableSchema` with a
list of rows.  All identifier matching in the engine is case-insensitive, so
schemas normalize names to lower case while remembering the original spelling
for display purposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..errors import CatalogError, ConstraintViolation
from ..sql.types import SQLType
from .columns import TypedColumn, build_typed_column


@dataclass
class ColumnSchema:
    """Schema entry for a single column."""

    name: str
    sql_type: SQLType
    not_null: bool = False
    default: Any = None

    @property
    def key(self) -> str:
        return self.name.lower()


@dataclass
class TableSchema:
    """Ordered collection of column schemas plus declared constraints."""

    name: str
    columns: list[ColumnSchema] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._index = {column.key: position for position, column in enumerate(self.columns)}
        if len(self._index) != len(self.columns):
            raise CatalogError(f"duplicate column in table {self.name!r}")

    @property
    def key(self) -> str:
        return self.name.lower()

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def column_index(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from exc

    def column(self, name: str) -> ColumnSchema:
        return self.columns[self.column_index(name)]

    def add_column(self, column: ColumnSchema) -> None:
        if column.key in self._index:
            raise CatalogError(f"duplicate column {column.name!r} in table {self.name!r}")
        self._index[column.key] = len(self.columns)
        self.columns.append(column)


class Table:
    """A heap of rows with schema-aware insertion."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[tuple] = []
        #: bumped on every mutation; invalidates the cached column slices,
        #: typed payloads and hash indexes below
        self.version = 0
        self._column_cache: dict[int, list] = {}
        self._column_cache_version = -1
        self._typed_cache: dict[int, Optional[TypedColumn]] = {}
        self._typed_cache_version = -1
        self._index_cache: dict[int, dict] = {}
        self._index_cache_version = -1

    def __len__(self) -> int:
        return len(self.rows)

    def column_array(self, index: int) -> list:
        """The full column at ``index`` as a list, cached per table version.

        The vectorized executor reads table data column-wise; gathering a
        column once per mutation epoch (instead of once per query) makes
        repeated scans of a stable table allocation-free.  Any mutation bumps
        ``version`` and the next call rebuilds the requested column.
        """
        if self._column_cache_version != self.version:
            self._column_cache = {}
            self._column_cache_version = self.version
        column = self._column_cache.get(index)
        if column is None:
            column = [row[index] for row in self.rows]
            self._column_cache[index] = column
        return column

    def typed_column(self, index: int) -> Optional[TypedColumn]:
        """The typed payload for column ``index``, cached per table version.

        Returns ``None`` when the column is not provably type-stable (see
        :func:`repro.engine.columns.build_typed_column`); the refusal is
        cached too, so an unstable column costs one scan per mutation epoch
        rather than one per query.
        """
        if self._typed_cache_version != self.version:
            self._typed_cache = {}
            self._typed_cache_version = self.version
        if index in self._typed_cache:
            return self._typed_cache[index]
        typed = build_typed_column(self.schema.columns[index].sql_type, self.column_array(index))
        self._typed_cache[index] = typed
        return typed

    def hash_index(self, index: int) -> dict:
        """Column ``index``'s value -> its rows in heap order, cached per
        table version (the planner's primary-key point look-ups)."""
        if self._index_cache_version != self.version:
            self._index_cache = {}
            self._index_cache_version = self.version
        lookup = self._index_cache.get(index)
        if lookup is None:
            lookup = {}
            for row in self.rows:
                lookup.setdefault(row[index], []).append(row)
            self._index_cache[index] = lookup
        return lookup

    def insert_row(self, values: Sequence[Any]) -> None:
        """Insert a full row (values in schema column order)."""
        if len(values) != len(self.schema.columns):
            raise ConstraintViolation(
                f"table {self.schema.name!r} expects {len(self.schema.columns)} values, "
                f"got {len(values)}"
            )
        row = tuple(values)
        self._check_not_null(row)
        self.rows.append(row)
        self.version += 1

    def insert_named(self, names: Sequence[str], values: Sequence[Any]) -> None:
        """Insert a row given a subset of columns; missing columns get defaults."""
        if len(names) != len(values):
            raise ConstraintViolation("column list and value list differ in length")
        provided = {name.lower(): value for name, value in zip(names, values)}
        row = []
        for column in self.schema.columns:
            if column.key in provided:
                row.append(provided[column.key])
            else:
                row.append(column.default)
        self.insert_row(row)

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.insert_row(row)

    def _check_not_null(self, row: tuple) -> None:
        for column, value in zip(self.schema.columns, row):
            if column.not_null and value is None:
                raise ConstraintViolation(
                    f"column {column.name!r} of table {self.schema.name!r} is NOT NULL"
                )

    def truncate(self) -> None:
        self.rows.clear()
        self.version += 1


@dataclass
class ForeignKey:
    """A declared (possibly MT-global) referential integrity constraint."""

    name: Optional[str]
    table: str
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]
