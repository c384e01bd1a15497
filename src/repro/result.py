"""Backend-neutral result and statistics types.

Every execution backend (the in-memory engine, SQLite, ...) returns the same
result shapes, so the layers above — the MTBase middleware, the gateway, the
benchmark harness — never need to know which DBMS actually ran a statement:

* :class:`QueryResult` for materialized SELECT results,
* :class:`RowStream` for incrementally produced SELECT results (the DB-API
  cursor's ``fetchmany`` path),
* :class:`StatementResult` for everything else,
* :class:`ExecutionStats` for the statement/UDF counters the benchmarks and
  tests read.

Both SELECT shapes share the :class:`ColumnAccess` protocol — ``columns``,
``column_index`` and lazy ``iter_dicts`` work without materializing rows
(see ``docs/api.md`` for the full container protocol).
Import them from here: this module is their only home.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from operator import add, attrgetter, sub
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from .errors import ExecutionError


class ColumnAccess:
    """Column-name protocol shared by materialized and streaming results.

    Implementors provide a ``columns`` attribute/property; everything here
    derives from it and never touches rows, so it is as valid on a
    :class:`RowStream` whose rows have not been produced yet as on a fully
    materialized :class:`QueryResult`.
    """

    columns: list[str]

    def column_index(self, name: str) -> int:
        """Position of the result column ``name`` (case-insensitive).

        Raises :class:`ExecutionError` both for a missing column and for an
        ambiguous one — silently returning the first of several same-named
        columns would make ``column_values`` read the wrong data.
        """
        target = name.lower()
        matches = [
            index for index, column in enumerate(self.columns) if column.lower() == target
        ]
        if not matches:
            raise ExecutionError(f"result has no column {name!r}")
        if len(matches) > 1:
            candidates = ", ".join(
                f"{self.columns[index]!r} (position {index})" for index in matches
            )
            raise ExecutionError(
                f"ambiguous result column {name!r}: matches {candidates}; "
                f"alias the query's output columns to disambiguate"
            )
        return matches[0]

    def __iter__(self) -> Iterator[tuple]:
        """Iterate over row tuples (implementors define row production)."""
        raise NotImplementedError

    def iter_dicts(self) -> Iterator[dict[str, Any]]:
        """Rows as ``{column: value}`` dicts, produced lazily in row order.

        On a :class:`RowStream` this consumes the stream row by row without
        ever holding the full result.
        """
        columns = self.columns
        for row in self:
            yield dict(zip(columns, row))


@dataclass(repr=False)
class QueryResult(ColumnAccess):
    """Result of executing a SELECT: column names plus row tuples.

    The container protocol mirrors a row list: ``len(result)`` and
    ``bool(result)`` count/test the rows, ``iter(result)`` yields row tuples.
    Column access goes through :meth:`column_index` / :meth:`column_values`,
    which treat names case-insensitively and refuse ambiguous names rather
    than silently picking one (see :meth:`column_index`).
    """

    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        """Number of rows (matching ``__bool__`` and ``__iter__``)."""
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        """Iterate over the row tuples."""
        return iter(self.rows)

    def __bool__(self) -> bool:
        """True when the result has at least one row."""
        return bool(self.rows)

    def __repr__(self) -> str:
        """Concise summary — the dataclass default would dump every row."""
        return f"QueryResult(columns={self.columns!r}, rows=<{len(self.rows)} rows>)"

    def column_values(self, name: str) -> list[Any]:
        """All values of the (unambiguous) result column ``name``, row order."""
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> list[dict[str, Any]]:
        """The rows as ``{column: value}`` dicts (later duplicate names win)."""
        return list(self.iter_dicts())

    def first(self) -> Optional[tuple]:
        """The first row, or ``None`` for an empty result."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The first column of the first row (``None`` when empty) — for
        single-value queries like ``SELECT COUNT(*) ...``."""
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]


class RowStream(ColumnAccess):
    """An incrementally produced SELECT result: columns now, rows on demand.

    Backends return a ``RowStream`` from ``execute_stream`` when they can
    yield rows before the full result set exists (the engine's windowed
    projection, SQLite's incremental cursor, the cluster's single-shard
    path); backends that must materialize simply wrap the finished row
    list — the consumer cannot tell the difference.

    The stream is single-use and forward-only: ``__iter__``/:meth:`fetch`
    consume it, :meth:`materialize` drains the remainder into an ordinary
    :class:`QueryResult`.  ``close()`` releases the producer early (e.g. an
    open DBMS cursor); iterating a closed stream raises.
    """

    #: page size once the consumer committed to draining everything
    DRAIN_BATCH = 512

    def __init__(
        self,
        columns: list[str],
        rows: Iterable[tuple],
        on_close: Optional[Callable[[], None]] = None,
    ) -> None:
        self.columns = list(columns)
        self._rows = iter(rows)
        self._on_close = on_close
        self._closed = False
        self._exhausted = False
        #: rows handed out so far (drives the cursor's ``rowcount``)
        self.rows_produced = 0

    def __iter__(self) -> Iterator[tuple]:
        """Yield the remaining rows, consuming the stream."""
        while True:
            row = self.fetch()
            if row is None:
                return
            yield row

    def fetch(self) -> Optional[tuple]:
        """The next row, or ``None`` when the stream is exhausted."""
        if self._exhausted:
            return None
        if self._closed:
            raise ExecutionError("this row stream is closed")
        try:
            row = next(self._rows)
        except StopIteration:
            self._exhausted = True
            self.close()
            return None
        self.rows_produced += 1
        return row

    def fetchmany(self, size: int) -> list[tuple]:
        """Up to ``size`` further rows (fewer only near exhaustion)."""
        if self._exhausted or size <= 0:
            return []
        if self._closed:
            raise ExecutionError("this row stream is closed")
        batch, done = self._take(size)
        self.rows_produced += len(batch)
        if done:
            self._exhausted = True
            self.close()
        return batch

    def _take(self, size: int) -> tuple[list[tuple], bool]:
        """One page off the producer: ``(rows, whether it ran dry)``."""
        batch = list(islice(self._rows, size))
        return batch, len(batch) < size

    def materialize(self) -> QueryResult:
        """Drain the remaining rows, page by page, into a :class:`QueryResult`."""
        rows: list[tuple] = []
        while not self._exhausted:
            rows.extend(self.fetchmany(self.DRAIN_BATCH))
        return QueryResult(columns=self.columns, rows=rows)

    def close(self) -> None:
        """Release the producing resources; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._rows = iter(())
        if self._on_close is not None:
            callback, self._on_close = self._on_close, None
            callback()

    def __repr__(self) -> str:
        """Concise summary (never consumes rows)."""
        state = "closed" if self._closed else "open"
        return (
            f"RowStream(columns={self.columns!r}, produced={self.rows_produced}, "
            f"{state})"
        )


@dataclass
class StatementResult:
    """Result of a non-SELECT statement."""

    statement_type: str
    rowcount: int = 0


ExecuteResult = Union[QueryResult, StatementResult]


class KernelCounters:
    """Running typed-vs-generic kernel dispatch tally for one engine.

    A batch kernel specializes only over columns the schema declares NOT
    NULL; it bumps ``proven`` when it ran a
    :class:`~repro.engine.columns.TypedColumn` fast path and ``generic``
    when it fell back to the object-list loop for a batch without typed
    payloads, so ``explain(analyze=True)`` can show *why* an operator was
    fast.  ``typed`` is never bumped: it keeps the ``(typed, generic,
    proven)`` shape of :meth:`snapshot` that readers unpack.  Increments are
    plain (unlocked) ``+= 1`` on the hot path; under concurrent sessions the
    tallies are best-effort, which is fine for a profiling aid.
    """

    __slots__ = ("typed", "generic", "proven")

    def __init__(self) -> None:
        self.typed = 0
        self.generic = 0
        self.proven = 0

    def snapshot(self) -> tuple[int, int, int]:
        """The current ``(typed, generic, proven)`` triple (for deltas)."""
        return (self.typed, self.generic, self.proven)

    def reset(self) -> None:
        """Zero all tallies **in place** (compiled kernels keep references
        to this object, so it must never be replaced wholesale)."""
        self.typed = 0
        self.generic = 0
        self.proven = 0


@dataclass
class OperatorProfile:
    """Accumulated execution profile of one plan operator.

    Filled by the engine's executor as batches flow through an operator;
    rendered by ``MTConnection.explain()`` next to the compile-side per-pass
    timings so compile cost and execution cost are separable at a glance.
    ``proven_kernels`` / ``generic_kernels`` count the typed and the
    fallen-back evaluations of specialization-capable kernels attributed to
    the operator's stage;
    ``join_rows_materialized`` counts the joined rows the stage forced out
    of a late-materialized join intermediate into concatenated tuples,
    ``join_rows_hashed`` the build-side rows it had to hash (0 when every
    join probed an index its table version already held).
    """

    operator: str
    batches: int = 0
    rows: int = 0
    seconds: float = 0.0
    generic_kernels: int = 0
    proven_kernels: int = 0
    join_rows_materialized: int = 0
    join_rows_hashed: int = 0

    def plus(self, other: "OperatorProfile") -> "OperatorProfile":
        """A new profile: this one's counters with ``other``'s added."""
        return OperatorProfile(
            self.operator, *map(add, _profile_counters(self), _profile_counters(other))
        )

    def since(self, prior: Optional["OperatorProfile"]) -> "OperatorProfile":
        """What accumulated after ``prior``, an earlier copy of this profile
        (everything, when there was none)."""
        if prior is None:
            return self
        return OperatorProfile(
            self.operator, *map(sub, _profile_counters(self), _profile_counters(prior))
        )

    @property
    def rows_per_batch(self) -> float:
        """Mean rows per batch (0.0 before any batch was recorded)."""
        if self.batches == 0:
            return 0.0
        return self.rows / self.batches

    def describe(self) -> str:
        """One human-readable profile line."""
        line = (
            f"{self.operator}: {self.rows} rows in {self.batches} batches "
            f"(avg {self.rows_per_batch:.1f} rows/batch, {self.seconds * 1000:.3f} ms)"
        )
        if self.generic_kernels or self.proven_kernels:
            line += f", kernels proven={self.proven_kernels} generic={self.generic_kernels}"
        if self.join_rows_materialized:
            line += f", join rows materialized={self.join_rows_materialized}"
        if self.join_rows_hashed:
            line += f", join rows hashed={self.join_rows_hashed}"
        return line


#: every counter of a profile, in field order (all fields but ``operator``)
_profile_counters = attrgetter(*(f.name for f in fields(OperatorProfile)[1:]))


@dataclass
class ExecutionStats:
    """Statement-level counters surfaced to tests and the benchmark harness.

    Counters are incremented through :meth:`add` so that concurrent sessions
    (the server runs many threads against one backend) do not lose updates
    to read-modify-write races.  Besides the scalar counters, the engine
    records a per-operator execution profile (batch counts, row counts,
    wall time) via :meth:`record_operator`; :meth:`operator_snapshot` hands
    consumers a stable copy.
    """

    udf_calls: int = 0
    udf_executions: int = 0
    udf_cache_hits: int = 0
    subquery_runs: int = 0
    statements: int = 0
    #: joined rows a consumer made a ``JoinedBatch`` concatenate into tuples
    #: (row-interpreter fallbacks, correlated sub-queries, nested build sides)
    join_rows_materialized: int = 0
    #: rows inserted into a statement's join hash table or a newly built
    #: table-version index (0 when every build side probed an existing index)
    join_rows_hashed: int = 0
    #: statements whose engine plan was prepared rather than reused from
    #: the memo of the artifact or cluster plan that owns the statement
    plans_prepared: int = 0
    #: DML statements whose engine write plan was prepared rather than
    #: reused from the memo of the DML rewrite that owns the statement
    write_plans_prepared: int = 0
    operator_profiles: dict = field(default_factory=dict, compare=False)
    #: typed-vs-generic kernel dispatch tally; identity-stable for the
    #: engine's lifetime because compiled kernels close over it
    kernels: KernelCounters = field(
        default_factory=KernelCounters, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **counts: int) -> None:
        """Atomically add to one or more counters."""
        with self._lock:
            for name, amount in counts.items():
                setattr(self, name, getattr(self, name) + amount)

    def add_udf_call(self, executed: int) -> None:
        """Hot-path variant of :meth:`add` for the per-UDF-call counters
        (one lock acquisition, no kwargs/getattr overhead)."""
        with self._lock:
            self.udf_calls += 1
            self.udf_executions += executed
            self.udf_cache_hits += 1 - executed

    def record_operator(self, measured: OperatorProfile) -> None:
        """Fold one stage's measurement into its operator's profile."""
        with self._lock:
            prior = self.operator_profiles.get(measured.operator)
            self.operator_profiles[measured.operator] = (
                measured if prior is None else prior.plus(measured)
            )

    def operator_snapshot(self) -> list[OperatorProfile]:
        """A point-in-time copy of the operator profiles (insertion order)."""
        with self._lock:
            return [replace(profile) for profile in self.operator_profiles.values()]

    def counters(self) -> dict[str, int]:
        """A point-in-time copy of every int counter, by field name."""
        with self._lock:
            return {name: getattr(self, name) for name in _EXECUTION_COUNTERS}

    def reset(self) -> None:
        """Zero every counter and drop operator profiles (between runs)."""
        with self._lock:
            for name in _EXECUTION_COUNTERS:
                setattr(self, name, 0)
            self.operator_profiles = {}
            self.kernels.reset()


#: every int counter of :class:`ExecutionStats`, in field order
_EXECUTION_COUNTERS = tuple(f.name for f in fields(ExecutionStats) if f.type == "int")
