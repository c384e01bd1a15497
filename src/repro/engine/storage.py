"""In-memory storage: column descriptors, tables and rows.

Rows are plain tuples; a :class:`Table` pairs a :class:`TableSchema` with its
current :class:`TableData` — an immutable version of the rows that writers
replace whole and readers pin.  All identifier matching in the engine is
case-insensitive, so schemas normalize names to lower case while remembering
the original spelling for display purposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Optional, Sequence

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


class HashIndex(NamedTuple):
    """Rows hashed on a key: what a look-up or a join probes.

    ``unique`` (no two rows share a key) maps ``key -> row`` with no bucket
    object at all; otherwise ``key -> tuple of rows`` in source order.  A
    tuple of untracked rows untracks itself, so either shape leaves the
    cycle collector one object to walk — the dict — not one per key.
    """

    table: dict
    unique: bool
    #: rows held (keys with a NULL component are never inserted)
    size: int

    def rows(self, key: Any) -> Sequence[tuple]:
        """The rows under ``key`` (none for a missing or NULL-bearing key)."""
        found = self.table.get(key)
        if found is None:
            return ()
        return (found,) if self.unique else found


def hash_rows(keys: Sequence, rows: Sequence[tuple]) -> HashIndex:
    """Index ``rows`` on their aligned, NULL-free ``keys``.

    One ``dict(zip(...))`` at C speed decides uniqueness; only a key that
    repeats pays the Python insertion loop.
    """
    table = dict(zip(keys, rows))
    if len(table) == len(rows):
        return HashIndex(table, True, len(rows))
    buckets: dict = {}
    for key, row in zip(keys, rows):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return HashIndex(dict(zip(buckets, map(tuple, buckets.values()))), False, len(rows))


class TableData:
    """One immutable version of a table: its rows and what is derived from them.

    ``rows`` is a tuple nobody changes, so the column slices, typed payloads
    and hash indexes built from it are filled lazily and never invalidated —
    they live and die with the version.  A reader that holds one
    ``TableData`` (a scan, a look-up or a join build side pins it, see
    :class:`repro.engine.planner.TableSource`) sees one consistent table
    however many writers publish in the meantime.  The indexes are the
    engine's only key indexes: one per column tuple some look-up or
    equi-join asked for, so the schema bounds their number.
    """

    __slots__ = ("schema", "rows", "_columns", "_typed", "_indexes")

    def __init__(self, schema: TableSchema, rows: tuple = ()) -> None:
        self.schema = schema
        self.rows = rows
        self._columns: dict[int, list] = {}
        self._typed: dict[int, Optional[TypedColumn]] = {}
        self._indexes: dict[tuple[int, ...], HashIndex] = {}

    def column_array(self, index: int) -> list:
        """The full column at ``index`` as a list (gathered once).

        The vectorized executor reads table data column-wise; repeated scans
        of one version are allocation-free.
        """
        column = self._columns.get(index)
        if column is None:
            column = self._columns[index] = [row[index] for row in self.rows]
        return column

    def typed_column(self, index: int) -> Optional[TypedColumn]:
        """The typed payload for column ``index`` (built once).

        ``None`` when the column holds a NULL or is not type-stable (see
        :func:`repro.engine.columns.build_typed_column`); the refusal is
        cached too, so an unstable column costs one check per version rather
        than one per query.
        """
        if index in self._typed:
            return self._typed[index]
        typed = build_typed_column(self.schema.columns[index].sql_type, self.column_array(index))
        self._typed[index] = typed
        return typed

    @property
    def indexes(self) -> dict[tuple[int, ...], HashIndex]:
        """The indexes built on this version so far, by column tuple."""
        return self._indexes

    def hash_index(self, *columns: int) -> HashIndex:
        """This version's rows hashed on ``columns`` (built once; point
        look-ups and join build sides alike).

        One column keys on its value, several on the value tuple; a row
        with a NULL key component matches nothing and is left out.
        """
        index = self._indexes.get(columns)
        if index is None:
            rows: Sequence[tuple] = self.rows
            keys = list(map(itemgetter(*columns), rows))
            if len(columns) == 1:
                keep = [key is not None for key in keys]
            else:
                keep = [None not in key for key in keys]
            if not all(keep):
                keys = list(compress(keys, keep))
                rows = list(compress(rows, keep))
            index = self._indexes[columns] = hash_rows(keys, rows)
        return index


class Table:
    """A named, schema-checked sequence of :class:`TableData` versions.

    ``data`` is the table's one mutable attribute: the current version,
    swapped whole by :meth:`publish`.  Every writer validates and builds its
    new rows first and publishes once, so a failed statement leaves nothing
    behind and a reader never sees a half-applied one.  Writers are
    serialized by the owning database (``Database._write_lock``); readers
    take no lock — they read ``data`` once and keep that version.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.data = TableData(schema)

    @property
    def rows(self) -> tuple:
        """The current version's rows."""
        return self.data.rows

    def __len__(self) -> int:
        return len(self.data.rows)

    def publish(self, rows: Iterable[tuple]) -> None:
        """Make ``rows`` (already validated) the table's next version."""
        self.data = TableData(self.schema, tuple(rows))

    def complete_row(self, names: Sequence[str], values: Sequence[Any]) -> list:
        """A full row from a subset of columns; missing columns get defaults."""
        if len(names) != len(values):
            raise ConstraintViolation("column list and value list differ in length")
        provided = {name.lower(): value for name, value in zip(names, values)}
        return [provided.get(column.key, column.default) for column in self.schema.columns]

    def _checked_row(self, values: Sequence[Any]) -> tuple:
        """``values`` (schema column order) as a row tuple, or the
        :class:`~repro.errors.ConstraintViolation` that refuses it."""
        if len(values) != len(self.schema.columns):
            raise ConstraintViolation(
                f"table {self.schema.name!r} expects {len(self.schema.columns)} values, "
                f"got {len(values)}"
            )
        row = tuple(values)
        self._check_not_null(row)
        return row

    def _check_not_null(self, row: tuple) -> None:
        for column, value in zip(self.schema.columns, row):
            if column.not_null and value is None:
                raise ConstraintViolation(
                    f"column {column.name!r} of table {self.schema.name!r} is NOT NULL"
                )

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append full rows, all or none: every row is checked before the
        one publish (one heap concatenation per call, not per row)."""
        new_rows = tuple(map(self._checked_row, rows))
        self.publish(self.data.rows + new_rows)

    def insert_row(self, values: Sequence[Any]) -> None:
        """Insert a full row (values in schema column order)."""
        self.insert_many((values,))

    def insert_named(self, names: Sequence[str], values: Sequence[Any]) -> None:
        """Insert a row given a subset of columns; missing columns get defaults."""
        self.insert_row(self.complete_row(names, values))

    def truncate(self) -> None:
        self.publish(())


@dataclass
class ForeignKey:
    """A declared (possibly MT-global) referential integrity constraint."""

    name: Optional[str]
    table: str
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]
