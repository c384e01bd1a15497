"""The PEP 249 cursor: parameterized execution and incremental fetching.

A :class:`Cursor` submits statements through its connection's target and
presents results the DB-API way:

* SELECT results arrive as a :class:`~repro.result.RowStream` —
  ``fetchone``/``fetchmany`` pull rows as they are produced, so on streaming
  backends the first rows are available before the full result set exists,
* everything else sets :attr:`Cursor.rowcount` from the statement result,
* :attr:`Cursor.description` is the PEP 249 7-tuple list (only the column
  name is known; the middleware is type-agnostic, the remaining six fields
  are ``None``).

``executemany`` re-executes one parameterized statement per binding vector —
the canonical bulk-insert path; through a gateway session the statement is
compiled once and each binding only pays execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from ..errors import BackendError, NotSupportedError
from ..result import QueryResult, RowStream, StatementResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .connection import Connection

#: PEP 249 description entry: (name, type_code, display_size, internal_size,
#: precision, scale, null_ok) — all but the name unknown to the middleware
DescriptionRow = tuple


class Cursor:
    """A PEP 249 cursor over one repro execution target.

    Cursors are cheap, single-threaded objects; open as many as needed from
    one connection.  They are context managers and iterable (yielding row
    tuples after an ``execute`` that produced a result set).
    """

    def __init__(self, connection: "Connection") -> None:
        self.connection = connection
        #: default ``fetchmany`` batch size (PEP 249; mutable per cursor)
        self.arraysize = 1
        self._closed = False
        self._stream: Optional[RowStream] = None
        self._description: Optional[list[DescriptionRow]] = None
        self._rowcount = -1

    # -- PEP 249 read-only attributes ----------------------------------------

    @property
    def description(self) -> Optional[list[DescriptionRow]]:
        """Column 7-tuples of the last result set (``None`` for non-SELECT)."""
        return self._description

    @property
    def rowcount(self) -> int:
        """Rows affected (DML) or produced so far (SELECT; -1 until known).

        On the streaming path the total is unknown until the stream is
        exhausted; the attribute then settles on the number of rows the
        cursor actually produced.
        """
        return self._rowcount

    # -- execution -----------------------------------------------------------

    def execute(self, operation: str, parameters: Optional[Any] = None) -> "Cursor":
        """Execute one statement, optionally binding ``?``/``:name`` values.

        ``parameters`` is a positional sequence or a ``{name: value}``
        mapping.  Returns the cursor itself (the common convenience), so
        ``for row in cursor.execute(...)`` works.
        """
        self._check_open()
        self._reset()
        result = self.connection._run(operation, parameters)
        self._install(result)
        return self

    def executemany(
        self, operation: str, seq_of_parameters: Sequence[Any]
    ) -> "Cursor":
        """Execute one parameterized statement once per binding vector.

        Rowcounts accumulate across the batch (the bulk-insert contract).
        Statements producing result sets are rejected — PEP 249 leaves that
        undefined and silently discarding rows would hide bugs.
        """
        self._check_open()
        self._reset()
        total = 0
        for parameters in seq_of_parameters:
            result = self.connection._run(operation, parameters)
            if isinstance(result, (RowStream, QueryResult)):
                if isinstance(result, RowStream):
                    result.close()
                raise NotSupportedError(
                    "executemany() with a statement returning rows; "
                    "use execute() per binding instead"
                )
            total += result.rowcount
        self._rowcount = total
        return self

    # -- fetching ------------------------------------------------------------

    def fetchone(self) -> Optional[tuple]:
        """The next row of the result set, or ``None`` when exhausted."""
        stream = self._require_result()
        row = stream.fetch()
        if row is None:
            self._rowcount = stream.rows_produced
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        """Up to ``size`` rows (default :attr:`arraysize`); ``[]`` at the end.

        On streaming backends this is the incremental path: each call pulls
        just enough rows from the producer, never the full result set.
        """
        stream = self._require_result()
        batch = stream.fetchmany(self.arraysize if size is None else size)
        if not batch:
            self._rowcount = stream.rows_produced
        return batch

    def fetchall(self) -> list[tuple]:
        """Every remaining row of the result set.

        The call commits to draining, so a stream that pages over a network
        may use its largest batches (``fetchone``/iteration stay exact-demand).
        """
        stream = self._require_result()
        rows = stream.materialize().rows
        self._rowcount = stream.rows_produced
        return rows

    def __iter__(self) -> Iterator[tuple]:
        """Iterate over the remaining rows (PEP 249 extension)."""
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- PEP 249 no-ops ------------------------------------------------------

    def setinputsizes(self, sizes: Sequence[Any]) -> None:
        """No-op (PEP 249 allows it): the driver does not predeclare types."""

    def setoutputsize(self, size: int, column: Optional[int] = None) -> None:
        """No-op (PEP 249 allows it): column buffers are not preallocated."""

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the open result stream and detach from the connection."""
        if self._closed:
            return
        self._closed = True
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        self.connection._forget(self)

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Cursor({self.connection._target.description}, {state})"

    # -- internals -----------------------------------------------------------

    def _install(self, result) -> None:
        """Adopt one execution result as the cursor's current state."""
        if isinstance(result, RowStream):
            self._stream = result
            self._description = [
                (name, None, None, None, None, None, None) for name in result.columns
            ]
            self._rowcount = -1
        elif isinstance(result, QueryResult):
            # a target that had to materialize: replay the finished rows
            self._stream = RowStream(columns=result.columns, rows=result.rows)
            self._description = [
                (name, None, None, None, None, None, None) for name in result.columns
            ]
            self._rowcount = -1
        elif isinstance(result, StatementResult):
            self._rowcount = result.rowcount
        else:  # pragma: no cover - targets only return the shapes above
            raise BackendError(
                f"unexpected execution result {type(result).__name__}"
            )

    def _reset(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        self._description = None
        self._rowcount = -1

    def _require_result(self) -> RowStream:
        self._check_open()
        if self._stream is None:
            raise BackendError(
                "no result set: the previous statement produced none (or "
                "execute() has not been called on this cursor)"
            )
        return self._stream

    def _check_open(self) -> None:
        if self._closed:
            raise BackendError("this cursor is closed")
