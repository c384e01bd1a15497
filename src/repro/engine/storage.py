"""In-memory storage: column descriptors, tables and rows.

Rows are plain tuples; a :class:`Table` pairs a :class:`TableSchema` with its
current :class:`TableData` — an immutable version of the rows that writers
replace whole and readers pin.  A write says what it changed (rows appended,
rows replaced at positions, rows removed at positions) against the version
it read, and the next version derives its column caches from that one: a
copy plus the change, so a one-row write does not make the next scan gather
and type-check every column again.  All identifier matching in the engine is
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


def _without(values: Any, positions: Sequence[int]) -> Any:
    """``values`` (a list, tuple or array) less the items at ascending
    ``positions``: the slices between them, each a C-level copy, glued in
    one pass.  A tuple comes back as a list."""
    kept = values[: positions[0]] if positions else values[:]
    if type(kept) is tuple:
        kept = list(kept)
    for start, stop in zip(positions, [*positions[1:], len(values)]):
        kept += values[start + 1 : stop]
    return kept


def _keyed(columns: tuple[int, ...], rows: Sequence[tuple]) -> list[tuple[Any, tuple]]:
    """``(key, row)`` for each of ``rows`` whose key on ``columns`` has no
    NULL component: the entries an index on ``columns`` holds for them."""
    keys = map(itemgetter(*columns), rows)
    if len(columns) == 1:
        return [(key, row) for key, row in zip(keys, rows) if key is not None]
    return [(key, row) for key, row in zip(keys, rows) if None not in key]


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

    :meth:`appended`, :meth:`replaced` and :meth:`removed` make the next
    version from this one and start its column lists, typed payloads and
    unique hash indexes from this one's: a ``dict.copy()`` of each cache
    (atomic under the GIL while lock-free readers fill them) plus the
    change.  Only new or replaced values go through
    :func:`build_typed_column`, and an entry the change cannot derive
    exactly is left unbuilt: a refusal a replace or remove may lift, a
    ``parsed`` DATE payload, a non-unique index, and a unique index that an
    appended key would repeat or whose key columns a replace assigns.
    Every derived entry equals what the lazy build gives over the new
    version's rows.
    """

    __slots__ = ("schema", "rows", "version", "_columns", "_typed", "_indexes")

    def __init__(self, schema: TableSchema, rows: tuple = (), version: int = 0) -> None:
        self.schema = schema
        self.rows = rows
        #: the table's publish count when this version was made; a memoized
        #: engine plan is reused only while every table it scans is unchanged
        self.version = version
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
        than one per query.  The build reads the cached column list if there
        is one and caches none of its own: a column only typed kernels read
        keeps one payload, and a write derives one.
        """
        if index in self._typed:
            return self._typed[index]
        column = self._columns.get(index)
        typed = build_typed_column(
            self.schema.columns[index].sql_type,
            column if column is not None else map(itemgetter(index), self.rows),
        )
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
        with a NULL key component matches nothing and is left out (a key
        the schema declares NOT NULL is not searched for one: writers
        refuse a NULL there).
        """
        index = self._indexes.get(columns)
        if index is None:
            rows: Sequence[tuple] = self.rows
            keys = list(map(itemgetter(*columns), rows))
            if not all(self.schema.columns[column].not_null for column in columns):
                if len(columns) == 1:
                    keep = [key is not None for key in keys]
                else:
                    keep = [None not in key for key in keys]
                if not all(keep):
                    keys = list(compress(keys, keep))
                    rows = list(compress(rows, keep))
            index = self._indexes[columns] = hash_rows(keys, rows)
        return index

    def appended(self, new_rows: tuple, version: int) -> "TableData":
        """The version with ``new_rows`` after this one's rows.

        A refusal stays a refusal: the value that refused is still there.
        """
        data = TableData(self.schema, self.rows + new_rows, version)
        for index, column in self._columns.copy().items():
            data._columns[index] = column + [row[index] for row in new_rows]
        for index, typed in self._typed.copy().items():
            if typed is not None:
                added = build_typed_column(
                    self.schema.columns[index].sql_type, [row[index] for row in new_rows]
                )
                typed = None if added is None else TypedColumn(
                    typed.kind, typed.values + added.values, typed.parsed or added.parsed
                )
            data._typed[index] = typed
        for columns, index in self._unique_indexes():
            entries = _keyed(columns, new_rows)
            table = index.table.copy()
            table.update(entries)
            if len(table) == index.size + len(entries):  # no key repeats
                data._indexes[columns] = HashIndex(table, True, len(table))
        return data

    def replaced(
        self, positions: Sequence[int], assigned: dict[int, Sequence], version: int
    ) -> "TableData":
        """The version whose rows at ``positions`` take the aligned values
        of ``assigned`` (column index -> values); every other column is
        unchanged, so its cache entries are shared, not copied."""
        rows = list(self.rows)
        for local, position in enumerate(positions):
            values = list(rows[position])
            for index, column in assigned.items():
                values[index] = column[local]
            rows[position] = tuple(values)
        data = TableData(self.schema, tuple(rows), version)
        data._columns = self._columns.copy()
        data._typed = self._typed.copy()
        for index, values in assigned.items():
            column = data._columns.get(index)
            if column is not None:
                column = data._columns[index] = column.copy()
                for position, value in zip(positions, values):
                    column[position] = value
            typed = data._typed.pop(index, None)
            if typed is not None and not typed.parsed:
                changed = build_typed_column(self.schema.columns[index].sql_type, values)
                if changed is not None:
                    payload = typed.values[:]
                    for position, value in zip(positions, changed.values):
                        payload[position] = value
                    changed = TypedColumn(typed.kind, payload, changed.parsed)
                data._typed[index] = changed
        changed_rows = [data.rows[position] for position in positions]
        for columns, index in self._unique_indexes():
            if assigned.keys().isdisjoint(columns):
                table = index.table.copy()
                table.update(_keyed(columns, changed_rows))
                data._indexes[columns] = HashIndex(table, True, index.size)
        return data

    def removed(self, positions: Sequence[int], version: int) -> "TableData":
        """The version without the rows at ascending ``positions``: the rows,
        every cached column list and typed payload are glued from the slices
        between them, and each unique index drops the removed rows' keys.
        Removing every row (a DELETE without WHERE, a scratch table's
        refresh) derives nothing."""
        if len(positions) == len(self.rows):
            return TableData(self.schema, (), version)
        data = TableData(self.schema, tuple(_without(self.rows, positions)), version)
        for index, column in self._columns.copy().items():
            data._columns[index] = _without(column, positions)
        for index, typed in self._typed.copy().items():
            if typed is not None and not typed.parsed:
                data._typed[index] = TypedColumn(typed.kind, _without(typed.values, positions))
        removed_rows = [self.rows[position] for position in positions]
        for columns, index in self._unique_indexes():
            table = index.table.copy()
            for key, _ in _keyed(columns, removed_rows):
                del table[key]
            data._indexes[columns] = HashIndex(table, True, len(table))
        return data

    def _unique_indexes(self) -> list[tuple[tuple[int, ...], HashIndex]]:
        """This version's unique indexes so far: the ones a write derives (a
        non-unique one is left to the next version's lazy build)."""
        return [(columns, index) for columns, index in self._indexes.copy().items() if index.unique]


class Table:
    """A named, schema-checked sequence of :class:`TableData` versions.

    ``data`` is the table's one mutable attribute: the current version,
    swapped whole by :meth:`append`, :meth:`replace`, :meth:`remove` or
    :meth:`publish`.  Every writer validates and builds its new rows first
    and publishes once, so a failed statement leaves nothing behind and a
    reader never sees a half-applied one.  The first three take the
    ``base`` version the writer read and derive the next one from it —
    never from ``data`` at publish time, which a write nested in the
    statement (a UDF's) may have replaced meanwhile.  Writers are
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
        """Make ``rows`` (already validated) the table's next version, with
        every cache built afresh."""
        self.data = TableData(self.schema, tuple(rows), self.data.version + 1)

    def append(self, base: TableData, rows: Iterable[Sequence[Any]]) -> None:
        """Publish ``base`` plus full ``rows``, all or none: every row is
        checked before the one publish."""
        new_rows = tuple(map(self._checked_row, rows))
        self.data = base.appended(new_rows, self.data.version + 1)

    def replace(
        self, base: TableData, positions: Sequence[int], assigned: dict[int, Sequence]
    ) -> None:
        """Publish ``base`` with the rows at ``positions`` taking the aligned
        values of ``assigned`` (column index -> values), all or none."""
        for index, values in assigned.items():
            if self.schema.columns[index].not_null and None in values:
                raise self._null_refused(self.schema.columns[index])
        self.data = base.replaced(positions, assigned, self.data.version + 1)

    def remove(self, base: TableData, positions: Sequence[int]) -> None:
        """Publish ``base`` without the rows at ``positions``."""
        self.data = base.removed(positions, self.data.version + 1)

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
                raise self._null_refused(column)

    def _null_refused(self, column: ColumnSchema) -> ConstraintViolation:
        return ConstraintViolation(
            f"column {column.name!r} of table {self.schema.name!r} is NOT NULL"
        )

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append full rows to the current version, all or none (one heap
        concatenation per call, not per row)."""
        self.append(self.data, rows)

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
