"""FROM-clause planning: scan, filter push-down and greedy hash joins.

The planner turns the FROM clause plus the conjunctive WHERE predicate into a
:class:`JoinPipeline`:

* each base table / view / derived table becomes a :class:`SourcePlan` with
  its single-relation filters pushed down (including primary-key point
  look-ups when a filter compares the key against a per-run constant),
* equality predicates between two relations become hash-join edges,
* the remaining conjuncts are applied as residual filters as soon as every
  relation they mention is available.

Join order is chosen greedily at prepare time.  Each relation's cardinality
is scaled by the estimated selectivity of its pushed-down predicates using
the database's collected statistics (:mod:`repro.compile.cost`): start from
the smallest *filtered* relation and repeatedly attach the connected
relation with the smallest filtered estimate.

Every predicate, join key and look-up value is a batch kernel
(:mod:`repro.engine.vector`).  Joins are *late-materialized*: a join step
probes the newly joined source with key columns computed over the current
batch and emits ``(left positions, matched build rows)`` — the output is a
:class:`~repro.engine.vector.JoinedBatch` of references to the source rows,
so no tuple is allocated per joined row.  What it probes is the table
version's own :class:`~repro.engine.storage.HashIndex` when the build keys
are bare columns of an unfiltered base table (nothing is hashed per
statement), else a per-statement hash of the source, semi-join reduced by
the probe keys.

A :class:`TableSource` reads its table's current
:class:`~repro.engine.storage.TableData` exactly once per scan, so a scan, all
of its conjuncts and its typed kernels see one table version whatever
concurrent DML publishes; an unfiltered scan hands out that version's row
tuple itself — read-only as a type fact, not a convention — which is also why
a stream that outlives its statement needs no copy.
"""

from __future__ import annotations

from itertools import compress
from operator import and_
from typing import TYPE_CHECKING, Optional, Sequence

from ..compile.cost import predicate_selectivity
from ..errors import ExecutionError
from ..sql import ast
from .expressions import Scope, contains_subquery, referenced_columns
from .storage import HashIndex, TableData, hash_rows
from .vector import (
    DEFAULT_BATCH_SIZE,
    BatchExpressionCompiler,
    BatchKernel,
    JoinedBatch,
    RowBatch,
    apply_batch_predicates,
    key_column,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecutionContext, PreparedSelect


def _windows(batch: RowBatch, batch_size: int):
    """Cut a batch into bounded windows (the streaming batch currency)."""
    for start in range(0, batch.n, batch_size):
        yield batch.window(start, start + batch_size)


def _hash_build(
    build_fns: list,
    nullable: bool,
    batch: RowBatch,
    outers: tuple,
    stats,
    probe_keys: Optional[Sequence] = None,
) -> HashIndex:
    """Hash a join's build side for one statement, in source order.

    A row whose key has a NULL component can match nothing and is left out
    (``nullable`` false: the planner proved every key NOT NULL, skip the
    test), so probing with a NULL key misses without a check of its own.
    Given the ``probe_keys`` it is about to be probed with, a build at least
    twice their number is *semi-join reduced* first: only rows whose key
    occurs among them are hashed — a dropped row could match nothing, so
    the join's rows and their order are unchanged.  The rows that are
    hashed count in ``stats.join_rows_hashed``.
    """
    columns = [fn(batch, outers) for fn in build_fns]
    keys = columns[0] if len(columns) == 1 else list(zip(*columns))
    rows = batch.rows
    keep = None
    if nullable and any(None in column for column in columns):
        keep = [None not in parts for parts in zip(*columns)]
    if probe_keys is not None and 2 * len(probe_keys) <= len(rows):
        wanted = map(set(probe_keys).__contains__, keys)
        keep = list(wanted) if keep is None else list(map(and_, keep, wanted))
    if keep is not None:
        keys, rows = list(compress(keys, keep)), list(compress(rows, keep))
    stats.add(join_rows_hashed=len(rows))
    return hash_rows(keys, rows)


def _hash_probe(keys: Sequence, index: HashIndex) -> tuple[Optional[list[int]], list[tuple]]:
    """Probe ``index`` with one key per left row.

    Returns the matches as ``(left positions, build rows)``, aligned, in
    nested-loop order (left row major, bucket order minor) — the inputs
    of :meth:`JoinedBatch.extend`; no joined tuple is built.  A unique index
    is probed without a Python-level loop, and ``positions`` is ``None``
    when every left row found its one row (the left side passes through).
    """
    get = index.table.get
    if index.unique:
        found = list(map(get, keys))
        if None not in found:
            return None, found
        # a row has at least its key slots, so only a miss is falsy
        return list(compress(range(len(found)), found)), list(filter(None, found))
    positions: list[int] = []
    matched: list[tuple] = []
    add_position, add_row = positions.append, matched.append
    for position, key in enumerate(keys):
        bucket = get(key)
        if bucket:
            for row in bucket:
                add_position(position)
                add_row(row)
    return positions, matched


def _cross_pairs(left_n: int, right_rows) -> tuple[list[int], list[tuple]]:
    """Every left position paired with every right row (a keyless join)."""
    width = len(right_rows)
    positions = [position for position in range(left_n) for _ in range(width)]
    return positions, list(right_rows) * left_n


def _can_be_null(expr: ast.Expression, scope: Scope) -> bool:
    """Whether a join key may evaluate to NULL: anything but a column of
    ``scope`` its table declares NOT NULL."""
    if not isinstance(expr, ast.Column):
        return True
    resolved = scope.resolve_local(expr.name, expr.table)
    return resolved is None or resolved not in scope.proven


class _OuterSentinel:
    """Marker: a column resolved against an enclosing query (or a parameter)."""


_OUTER = _OuterSentinel()


# ---------------------------------------------------------------------------
# Source plans
# ---------------------------------------------------------------------------


class SourcePlan:
    """A planned FROM-clause relation producing rows at run time."""

    def __init__(self, schema: list[tuple[Optional[str], str]], bindings: set[str]) -> None:
        self.schema = schema
        self.bindings = bindings
        # pushed-down predicates, applied in order
        self._batch_filters: list[BatchKernel] = []

    def add_batch_filter(self, kernel: BatchKernel) -> None:
        """Push a batch predicate kernel down onto this source."""
        self._batch_filters.append(kernel)

    def _apply_filters(self, rows: Sequence[tuple], outers: tuple) -> Sequence[tuple]:
        if not self._batch_filters:
            return rows
        return self._filter_batch(RowBatch(rows), outers).rows

    def _filter_batch(self, batch: RowBatch, outers: tuple) -> RowBatch:
        """Apply the pushed-down batch filters, compacting by selection."""
        return apply_batch_predicates(batch, self._batch_filters, outers)

    def rows(self, outers: tuple) -> Sequence[tuple]:
        """The plan's filtered rows, **read-only**: an unfiltered scan hands
        out its table version's immutable row tuple and a cached sub-plan its
        cached list, so joins build and probe without copying."""
        raise NotImplementedError

    def batch(self, outers: tuple) -> RowBatch:
        """The plan's filtered rows as one :class:`RowBatch`.

        Entry point of the executor; :class:`TableSource` overrides it so a
        full scan keeps its typed columns and its selection view alive end
        to end instead of materializing row tuples between the scan and the
        projection/aggregation stage.
        """
        return RowBatch(self.rows(outers))

    def estimate(self) -> int:
        """Unfiltered cardinality guess used for join ordering."""
        raise NotImplementedError

    def children(self) -> list["PreparedSelect"]:
        """Nested prepared selects (views / derived tables)."""
        return []


class TableSource(SourcePlan):
    """A scan over a base table with pushed-down filters.

    When one of the pushed filters is ``<primary key column> = <expr>`` and
    the expression does not reference this table, the scan becomes a point
    look-up in a lazily-built hash index on that key column.

    The scan batch exposes that version's
    :class:`~repro.engine.columns.TypedColumn` payloads, which is what lets
    downstream kernels over NOT NULL columns run their specialized loops.

    :meth:`rows`, :meth:`batch` and :meth:`join_index` each read
    ``table.data`` once and hand that one
    :class:`~repro.engine.storage.TableData` on: rows, column arrays, typed
    payloads and the index of a scan, a look-up or a join build side all
    belong to the same table version.
    """

    def __init__(self, table, binding: str) -> None:
        schema = [(binding, column.name) for column in table.schema.columns]
        super().__init__(schema, {binding.lower()})
        self.table = table
        self._key_lookup: Optional[tuple[int, BatchKernel]] = None

    def set_key_lookup(self, column_index: int, value_fn: BatchKernel) -> None:
        """Turn the scan into a point look-up ``key column = value_fn``; the
        kernel reads no column of its own, only ``outers``."""
        self._key_lookup = (column_index, value_fn)

    @property
    def has_key_lookup(self) -> bool:
        """Whether a primary-key point look-up replaced the scan."""
        return self._key_lookup is not None

    def estimate(self) -> int:
        """1 for a point look-up, else the table's row count."""
        if self._key_lookup is not None:
            return 1
        return max(len(self.table.rows), 1)

    def rows(self, outers: tuple) -> Sequence[tuple]:
        """The filtered scan (or look-up bucket) of the current table
        version; unfiltered = that version's row tuple itself."""
        data = self.table.data
        if self._key_lookup is not None:
            return self._apply_filters(self._bucket(data, outers), outers)
        if self._batch_filters:
            return self._scan(data, outers).rows
        return self._apply_filters(data.rows, outers)

    def batch(self, outers: tuple) -> RowBatch:
        """The filtered scan as a selection over one version's column caches."""
        data = self.table.data
        if self._key_lookup is not None:
            return RowBatch(self._apply_filters(self._bucket(data, outers), outers))
        return self._scan(data, outers)

    def join_index(self, columns: tuple[int, ...], stats) -> Optional[HashIndex]:
        """The current table version's index on ``columns`` as a join build
        side — nothing is scanned or hashed per statement — or ``None`` when
        the scan is not the whole table (a pushed filter, a key look-up).
        Building it (once per version) counts in ``stats.join_rows_hashed``."""
        if self._key_lookup is not None or self._batch_filters:
            return None
        data = self.table.data
        known = columns in data.indexes
        index = data.hash_index(*columns)
        if not known:
            stats.add(join_rows_hashed=index.size)
        return index

    def _bucket(self, data: TableData, outers: tuple) -> Sequence[tuple]:
        """The rows of ``data`` the point look-up's key value selects
        (``key = NULL`` is never true: the index holds no NULL key)."""
        column_index, value_fn = self._key_lookup
        return data.hash_index(column_index).rows(value_fn(RowBatch([()]), outers)[0])

    def _scan(self, data: TableData, outers: tuple) -> RowBatch:
        """The filtered full scan of ``data``: batch kernels read its column
        arrays (and typed payloads) instead of gathering ``row[index]``."""
        scan = RowBatch(data.rows, col_source=data.column_array, typed_source=data.typed_column)
        return self._filter_batch(scan, outers)


class PreparedSource(SourcePlan):
    """A derived table or view backed by a nested :class:`PreparedSelect`."""

    def __init__(self, prepared: "PreparedSelect", binding: str) -> None:
        schema = [(binding, column) for column in prepared.output_columns]
        super().__init__(schema, {binding.lower()})
        self._prepared = prepared

    def children(self) -> list["PreparedSelect"]:
        """The nested plan."""
        return [self._prepared]

    def estimate(self) -> int:
        """The nested plan's estimate."""
        return self._prepared.estimate()

    def rows(self, outers: tuple) -> list[tuple]:
        """The nested plan's (possibly cached) result, filtered."""
        return self._apply_filters(self._prepared.run(outers), outers)


class RowsSource(SourcePlan):
    """A scan over the inline rows of an :class:`~repro.sql.ast.RowsRef`."""

    def __init__(self, item: ast.RowsRef) -> None:
        schema = [(item.alias, column) for column in item.columns]
        super().__init__(schema, {item.alias.lower()})
        self._rows = item.rows

    def estimate(self) -> int:
        """The row count (at least 1, like a table scan)."""
        return max(len(self._rows), 1)

    def rows(self, outers: tuple) -> list[tuple]:
        """The inline rows, filtered."""
        return self._apply_filters(self._rows, outers)


class JoinSource(SourcePlan):
    """An explicit ``A [LEFT] JOIN B ON cond`` treated as one composite source.

    The ON-clause machinery is batch-compiled: build/probe key columns come
    from batch kernels, the residual condition evaluates once over the whole
    candidate batch, and LEFT-join null padding is reconstructed from a
    candidate→left-position index array — no per-row closure dispatch
    anywhere on the join path, and the output is a :class:`~repro.engine.vector.JoinedBatch` (``stats``
    counts the rows a consumer makes it concatenate).  The right side is
    ``step`` — a :class:`_JoinStep` without residuals — so an ON-clause join
    takes a table version's index, or reduces its build, exactly like a
    comma join.
    """

    def __init__(
        self,
        left: SourcePlan,
        step: "_JoinStep",
        join_type: ast.JoinType,
        residual: Optional[BatchKernel],
        stats=None,
    ) -> None:
        right = step.source
        super().__init__(list(left.schema) + list(right.schema), left.bindings | right.bindings)
        self._left = left
        self._step = step
        self._join_type = join_type
        self._residual = residual
        self._right_width = len(right.schema)
        self._stats = stats

    def children(self) -> list["PreparedSelect"]:
        """Nested plans of both sides."""
        return self._left.children() + self._step.source.children()

    def estimate(self) -> int:
        """The larger side's estimate."""
        return max(self._left.estimate(), self._step.source.estimate())

    def batch(self, outers: tuple) -> RowBatch:
        """Batch ON-clause join: key columns, one residual mask, index padding.

        Candidate pairs are collected in nested-loop order as ``(left
        position, right row)``; the residual is evaluated once over the
        candidate batch — never over a left row without a key match — and
        for LEFT joins the output is rebuilt in one pass over the left side,
        pairing rows whose candidates all failed with the shared null-pad
        tuple.  Output order is that of the nested loop (left row major),
        and the result is a :class:`~repro.engine.vector.JoinedBatch`: no
        joined tuple is built.
        """
        left = self._left.batch(outers)
        positions, matched = self._step.match(left, outers, self._stats)
        if positions is None and (
            self._residual is not None or self._join_type is ast.JoinType.LEFT
        ):
            positions = range(left.n)
        left_width = len(self._left.schema)

        def joined(positions: Optional[Sequence[int]], right_rows: Sequence[tuple]) -> RowBatch:
            return JoinedBatch.extend(
                left, left_width, positions, right_rows, self._right_width, self._stats
            )

        mask = None
        if self._residual is not None and positions:
            mask = self._residual(joined(positions, matched), outers)
        if self._join_type is ast.JoinType.LEFT:
            null_pad = (None,) * self._right_width
            cand_positions, cand_rows = positions, matched
            positions, matched = [], []
            index, total = 0, len(cand_positions)
            for left_position in range(left.n):
                unmatched = True
                while index < total and cand_positions[index] == left_position:
                    if mask is None or mask[index] is True:
                        positions.append(left_position)
                        matched.append(cand_rows[index])
                        unmatched = False
                    index += 1
                if unmatched:
                    positions.append(left_position)
                    matched.append(null_pad)
        elif mask is not None:
            kept = [index for index, keep in enumerate(mask) if keep is True]
            positions = [positions[index] for index in kept]
            matched = [matched[index] for index in kept]
        return self._filter_batch(joined(positions, matched), outers)

    def rows(self, outers: tuple) -> Sequence[tuple]:
        """The joined rows as tuples."""
        return self.batch(outers).rows


# ---------------------------------------------------------------------------
# Join pipeline over the comma-separated FROM list
# ---------------------------------------------------------------------------


class _JoinStep:
    """One hash-join step decided at prepare time: the source being joined
    (the build side), the key functions of both sides and the residuals.

    ``index_columns`` is set when every build key is a bare column of a
    :class:`TableSource`: at run time such a step probes the table version's
    own index (:meth:`TableSource.join_index`) unless the scan is filtered;
    every other build is hashed per statement, semi-join reduced by the keys
    it is probed with (:func:`_hash_build`).
    """

    def __init__(
        self,
        source: SourcePlan,
        probe_fns: list[BatchKernel],
        build_fns: list[BatchKernel],
        residuals: list[BatchKernel],
        nullable: bool,
        index_columns: Optional[tuple[int, ...]] = None,
    ) -> None:
        self.source = source
        self.probe_fns = probe_fns
        self.build_fns = build_fns
        self.residuals = residuals
        # whether a build key can be NULL; see _hash_build
        self.nullable = nullable
        self.index_columns = index_columns

    def build(self, outers: tuple, stats, probe_keys: Optional[Sequence] = None):
        """What a probe needs of the newly joined source: a
        :class:`~repro.engine.storage.HashIndex` (keyed step) or just its
        rows (cross product).  ``probe_keys`` let a per-statement build be
        reduced; the streaming spine, whose build is probed by many windows,
        passes none."""
        if self.index_columns is not None:
            index = self.source.join_index(self.index_columns, stats)
            if index is not None:
                return index
        batch = self.source.batch(outers)
        if self.probe_fns:
            return _hash_build(
                self.build_fns, self.nullable, batch, outers, stats, probe_keys
            )
        return batch.rows

    def match(
        self, current: RowBatch, outers: tuple, stats, built=None
    ) -> tuple[Optional[Sequence[int]], Sequence[tuple]]:
        """``current`` joined to the source as ``(left positions, build
        rows)`` (see :func:`_hash_probe`); ``built`` is a :meth:`build` to
        reuse."""
        if not self.probe_fns:
            return _cross_pairs(
                current.n, self.build(outers, stats) if built is None else built
            )
        keys = key_column(self.probe_fns, current, outers)
        return _hash_probe(
            keys, self.build(outers, stats, keys) if built is None else built
        )


class JoinPipeline:
    """Executes the planned sequence of scans, hash joins and residual filters.

    The probe/build key functions and residual filters are batch kernels:
    join keys are computed as key *columns* over whole row windows, residuals
    via :func:`~repro.engine.vector.apply_batch_predicates`, and every step's
    output is a late-materialized :class:`~repro.engine.vector.JoinedBatch`
    (``stats`` counts the rows a consumer makes it concatenate).  The
    streaming spine is :meth:`iter_batches`, which emits bounded batches
    (``batch_size`` rows) so ``LIMIT`` consumers touch O(batch) rows.
    """

    def __init__(
        self,
        first: SourcePlan,
        steps: list[_JoinStep],
        final_residuals: list,
        schema: list[tuple[Optional[str], str]],
        batch_size: int = DEFAULT_BATCH_SIZE,
        stats=None,
    ) -> None:
        self._first = first
        self._steps = steps
        self._final_residuals = final_residuals
        self.schema = schema
        self._batch_size = batch_size
        self._stats = stats

    def execute_batch(self, outers: tuple) -> RowBatch:
        """The pipeline's joined rows as one :class:`RowBatch`.

        With no join steps the first source's batch flows through directly,
        so a filtered base-table scan keeps its typed columns and selection
        view for the projection/aggregation stage; every join step extends
        a :class:`~repro.engine.vector.JoinedBatch` by the matched rows of
        the newly joined source — references only, no joined tuple is built
        (join intermediates have no stable storage columns to specialize
        over, so they carry no typed columns either).
        """
        current = self._first.batch(outers)
        width = len(self._first.schema)
        for step in self._steps:
            if current.n == 0:
                return current
            current = self._join_batch(step, current, width, outers)
            width += len(step.source.schema)
        if self._final_residuals and current.n:
            current = apply_batch_predicates(current, self._final_residuals, outers)
        return current

    def _join_batch(
        self, step: _JoinStep, current: RowBatch, width: int, outers: tuple, built=None
    ) -> RowBatch:
        """One join step: ``current`` (``width`` slots) joined to the step's
        source (``built`` when the caller reuses one, see
        :meth:`_JoinStep.build`), then the step's residual filters."""
        positions, matched = step.match(current, outers, self._stats, built)
        joined = JoinedBatch.extend(
            current, width, positions, matched, len(step.source.schema), self._stats
        )
        if step.residuals and joined.n:
            joined = apply_batch_predicates(joined, step.residuals, outers)
        return joined

    def iter_batches(self, outers: tuple, batch_size: Optional[int] = None):
        """Yield joined rows lazily as bounded batches (the streaming spine of
        :meth:`repro.engine.executor.PreparedSelect.stream`).

        Each source still materializes its own (filtered) scan and each join
        step takes its table's index or builds its hash table when first
        pulled (unreduced: many windows probe it), but left rows flow
        through the spine ``batch_size`` at a time and every yielded batch
        is re-bounded to at most ``batch_size`` rows — an early-``LIMIT``
        consumer therefore materializes O(batch) rows, never the join
        output.
        """
        size = batch_size or self._batch_size
        current = _windows(RowBatch(self._first.rows(outers)), size)
        width = len(self._first.schema)
        for step in self._steps:
            current = self._iter_step_batch(step, current, width, outers, size)
            width += len(step.source.schema)
        for batch in current:
            if self._final_residuals:
                batch = apply_batch_predicates(batch, self._final_residuals, outers)
            if batch.n:
                yield batch

    def _iter_step_batch(
        self, step: _JoinStep, current, width: int, outers: tuple, batch_size: int
    ):
        built = None
        for batch in current:
            if built is None:
                # built on first demand: a spine nobody pulls builds nothing
                built = step.build(outers, self._stats)
            joined = self._join_batch(step, batch, width, outers, built)
            # one-to-many joins can fan a batch out past the bound; re-slice
            yield from _windows(joined, batch_size)

    def children(self) -> list["PreparedSelect"]:
        """Nested plans of every source, in join order."""
        collected = list(self._first.children())
        for step in self._steps:
            collected.extend(step.source.children())
        return collected

    def estimate(self) -> int:
        """The largest source estimate along the pipeline."""
        estimate = self._first.estimate()
        for step in self._steps:
            estimate = max(estimate, step.source.estimate())
        return estimate


class EmptyPipeline:
    """FROM-less queries (``SELECT 1``) produce exactly one empty row."""

    schema: list[tuple[Optional[str], str]] = []

    def execute_batch(self, outers: tuple) -> RowBatch:
        """The single empty row as a one-row batch."""
        return RowBatch([()])

    def iter_batches(self, outers: tuple, batch_size: Optional[int] = None):
        """The single empty row as a one-row batch."""
        yield RowBatch([()])

    def children(self) -> list["PreparedSelect"]:
        """No sources, no nested plans."""
        return []

    def estimate(self) -> int:
        """One row."""
        return 1


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class Planner:
    """Builds a :class:`JoinPipeline` for a SELECT's FROM/WHERE clauses.

    Every :class:`Scope` the planner creates is recorded in
    :attr:`created_scopes`; the executor inspects their ``uses_parent`` flags
    to decide whether the resulting plan is correlated with the enclosing
    query (and therefore whether its result may be cached).
    """

    def __init__(
        self,
        context: "ExecutionContext",
        parent_scope: Optional[Scope],
    ) -> None:
        self._context = context
        self._parent_scope = parent_scope
        self.created_scopes: list[Scope] = []
        self._binding_columns: dict[str, set[str]] = {}
        self._batch_size = context.database.batch_size
        # binding (lower) -> column names (lower) the table's schema declares
        # NOT NULL (enforced by every INSERT / UPDATE / bulk load); populated
        # as base tables are planned, cleared for relations on the
        # null-padded side of a LEFT join
        self._proven_bindings: dict[str, frozenset[str]] = {}

    def _new_scope(self, columns: list[tuple[Optional[str], str]]) -> Scope:
        proven_bindings = self._proven_bindings
        if proven_bindings:
            proven = frozenset(
                index
                for index, (binding, column) in enumerate(columns)
                if binding is not None
                and column.lower() in proven_bindings.get(binding.lower(), ())
            )
        else:
            proven = frozenset()
        scope = Scope(columns, parent=self._parent_scope, proven=proven)
        self.created_scopes.append(scope)
        return scope

    def _batch_compiler(
        self, columns: list[tuple[Optional[str], str]]
    ) -> BatchExpressionCompiler:
        """A batch compiler over a new scope of ``columns``."""
        return BatchExpressionCompiler(self._new_scope(columns), self._context)

    # -- public API ----------------------------------------------------------

    def plan(
        self, select: ast.Select
    ) -> tuple[JoinPipeline | EmptyPipeline, Scope, list[ast.Expression]]:
        """Plan the FROM/WHERE part of a query.

        Returns the pipeline, the scope describing the joined row layout and
        the WHERE conjuncts containing sub-queries (evaluated afterwards by
        the executor because they cannot become join edges or push-downs).
        """
        if not select.from_items:
            scope = self._new_scope([])
            return EmptyPipeline(), scope, ast.split_conjuncts(select.where)

        sources = [self._plan_from_item(item) for item in select.from_items]

        plain: list[ast.Expression] = []
        subquery_conjuncts: list[ast.Expression] = []
        for conjunct in ast.split_conjuncts(select.where):
            if contains_subquery(conjunct):
                subquery_conjuncts.append(conjunct)
            else:
                plain.append(conjunct)

        self._binding_columns = {}
        for source in sources:
            for binding, column in source.schema:
                self._binding_columns.setdefault(binding.lower(), set()).add(column.lower())

        pushdown, join_edges, residual = self._classify(plain, sources)
        for source, predicates in pushdown.items():
            self._apply_pushdown(source, predicates)

        estimates = self._cost_estimates(sources, pushdown)
        pipeline = self._order_joins(sources, join_edges, residual, estimates)
        scope = self._new_scope(pipeline.schema)
        return pipeline, scope, subquery_conjuncts

    # -- FROM items ----------------------------------------------------------

    def _plan_from_item(self, item: ast.FromItem) -> SourcePlan:
        if isinstance(item, ast.TableRef):
            return self._plan_table(item)
        if isinstance(item, ast.SubqueryRef):
            prepared = self._context.prepare_subquery(item.query, self._parent_scope)
            return PreparedSource(prepared, item.alias)
        if isinstance(item, ast.Join):
            return self._plan_join(item)
        if isinstance(item, ast.RowsRef):
            return RowsSource(item)
        raise ExecutionError(f"unsupported FROM item {type(item).__name__}")

    def _plan_table(self, item: ast.TableRef) -> SourcePlan:
        catalog = self._context.database.catalog
        binding = item.alias or item.name
        if catalog.has_view(item.name):
            prepared = self._context.prepare_subquery(
                catalog.view(item.name), self._parent_scope
            )
            return PreparedSource(prepared, binding)
        table = catalog.table(item.name)
        proven = frozenset(column.key for column in table.schema.columns if column.not_null)
        if proven:
            self._proven_bindings[binding.lower()] = proven
        return TableSource(table, binding)

    def _plan_join(self, item: ast.Join) -> SourcePlan:
        left = self._plan_from_item(item.left)
        right = self._plan_from_item(item.right)
        if item.join_type is ast.JoinType.LEFT:
            # the right side is null-padded for unmatched left rows, so its
            # schema-proven NOT NULL guarantees do not survive the join
            for binding in right.bindings:
                self._proven_bindings.pop(binding, None)
        key_pairs: list[tuple[ast.Expression, ast.Expression]] = []
        residual_parts: list[ast.Expression] = []
        for conjunct in ast.split_conjuncts(item.condition):
            pair = self._equi_join_pair(conjunct, left, right)
            if pair is not None:
                key_pairs.append(pair)
            else:
                residual_parts.append(conjunct)
        step = self._join_step(left.schema, right, key_pairs, [])
        residual = None
        if residual_parts:
            combined_compiler = self._batch_compiler(list(left.schema) + list(right.schema))
            residual = combined_compiler.compile_predicate(ast.and_(*residual_parts))
        return JoinSource(
            left, step, item.join_type, residual, stats=self._context.database.stats
        )

    def _join_step(
        self,
        placed_schema: list[tuple[Optional[str], str]],
        source: SourcePlan,
        key_pairs: list[tuple[ast.Expression, ast.Expression]],
        residuals: list,
    ) -> _JoinStep:
        """The step joining ``source`` to a ``placed_schema`` batch on
        ``key_pairs`` (probe expression, build expression).  When every build
        key is a bare column of a base table, the step records their column
        indexes: it can probe the table version's index instead of hashing."""
        probe_compiler = self._batch_compiler(placed_schema)
        build_compiler = self._batch_compiler(source.schema)
        build_scope = build_compiler.scope
        probe_fns = [probe_compiler.compile(probe) for probe, _ in key_pairs]
        build_fns = [build_compiler.compile(build) for _, build in key_pairs]
        nullable = any(_can_be_null(build, build_scope) for _, build in key_pairs)
        index_columns = None
        if key_pairs and isinstance(source, TableSource):
            slots = [
                build_scope.resolve_local(build.name, build.table)
                if isinstance(build, ast.Column)
                else None
                for _, build in key_pairs
            ]
            if None not in slots:
                index_columns = tuple(slots)
        return _JoinStep(source, probe_fns, build_fns, residuals, nullable, index_columns)

    def _equi_join_pair(
        self, conjunct: ast.Expression, left: SourcePlan, right: SourcePlan
    ) -> Optional[tuple[ast.Expression, ast.Expression]]:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        if contains_subquery(conjunct):
            return None
        local_columns: dict[str, set[str]] = {}
        for source in (left, right):
            for binding, column in source.schema:
                local_columns.setdefault(binding.lower(), set()).add(column.lower())
        left_bindings = self._expression_bindings(conjunct.left, local_columns)
        right_bindings = self._expression_bindings(conjunct.right, local_columns)
        if left_bindings is None or right_bindings is None:
            return None
        if left_bindings and right_bindings:
            if left_bindings <= left.bindings and right_bindings <= right.bindings:
                return conjunct.left, conjunct.right
            if left_bindings <= right.bindings and right_bindings <= left.bindings:
                return conjunct.right, conjunct.left
        return None

    # -- WHERE classification --------------------------------------------------

    def _expression_bindings(
        self,
        expr: ast.Expression,
        binding_columns: Optional[dict[str, set[str]]] = None,
    ) -> Optional[set[str]]:
        """Bindings referenced by an expression.

        Columns that cannot be attributed to any local binding are treated as
        outer references when an enclosing scope exists (they do not
        contribute a binding); when no enclosing scope exists the result is
        ``None`` which keeps the predicate out of push-down and join-edge
        classification (the compile step will report the unknown column).
        """
        if binding_columns is None:
            binding_columns = self._binding_columns
        bindings: set[str] = set()
        for column in referenced_columns(expr):
            attributed = self._attribute_binding(column, binding_columns)
            if attributed is _OUTER:
                continue
            if attributed is None:
                return None
            bindings.add(attributed)
        return bindings

    def _attribute_binding(self, column: ast.Column, binding_columns: dict[str, set[str]]):
        if column.name.startswith("$"):
            return _OUTER
        name = column.name.lower()
        if column.table is not None:
            table = column.table.lower()
            if table in binding_columns:
                return table
            return _OUTER if self._parent_scope is not None else None
        matches = [
            binding for binding, columns in binding_columns.items() if name in columns
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            return _OUTER if self._parent_scope is not None else None
        # ambiguous unqualified reference: let the compile step raise
        return None

    def _classify(
        self, conjuncts: list[ast.Expression], sources: list[SourcePlan]
    ) -> tuple[
        dict[SourcePlan, list[ast.Expression]],
        list[tuple[set[str], ast.Expression, set[str], ast.Expression]],
        list[ast.Expression],
    ]:
        by_binding = {binding: source for source in sources for binding in source.bindings}
        pushdown: dict[SourcePlan, list[ast.Expression]] = {}
        join_edges: list[tuple[set[str], ast.Expression, set[str], ast.Expression]] = []
        residual: list[ast.Expression] = []
        for conjunct in conjuncts:
            bindings = self._expression_bindings(conjunct)
            if bindings is None:
                residual.append(conjunct)
                continue
            if len(bindings) <= 1:
                source = by_binding[next(iter(bindings))] if bindings else sources[0]
                pushdown.setdefault(source, []).append(conjunct)
                continue
            edge = self._join_edge(conjunct)
            if edge is not None:
                join_edges.append(edge)
            else:
                residual.append(conjunct)
        return pushdown, join_edges, residual

    def _join_edge(self, conjunct: ast.Expression):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        left_bindings = self._expression_bindings(conjunct.left)
        right_bindings = self._expression_bindings(conjunct.right)
        if not left_bindings or not right_bindings:
            return None
        if left_bindings.isdisjoint(right_bindings):
            return left_bindings, conjunct.left, right_bindings, conjunct.right
        return None

    # -- push-down ---------------------------------------------------------------

    def _apply_pushdown(self, source: SourcePlan, predicates: list[ast.Expression]) -> None:
        compiler = self._batch_compiler(source.schema)
        for predicate in predicates:
            if isinstance(source, TableSource) and self._try_key_lookup(source, predicate):
                continue
            source.add_batch_filter(compiler.compile_predicate(predicate))

    def _try_key_lookup(self, source: TableSource, predicate: ast.Expression) -> bool:
        if source.has_key_lookup:
            return False
        primary_key = source.table.schema.primary_key
        if len(primary_key) != 1:
            return False
        key_column = primary_key[0].lower()
        if not (isinstance(predicate, ast.BinaryOp) and predicate.op == "="):
            return False
        for column_side, value_side in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            if not isinstance(column_side, ast.Column):
                continue
            if column_side.name.lower() != key_column:
                continue
            if self._references_source(value_side, source):
                continue
            value_compiler = self._batch_compiler([])
            try:
                value_fn = value_compiler.compile(value_side)
            except ExecutionError:
                continue
            column_index = source.table.schema.column_index(key_column)
            source.set_key_lookup(column_index, value_fn)
            return True
        return False

    def _references_source(self, expr: ast.Expression, source: TableSource) -> bool:
        for column in referenced_columns(expr):
            if column.name.startswith("$"):
                continue
            if column.table is not None:
                if column.table.lower() in source.bindings:
                    return True
                continue
            if source.table.schema.has_column(column.name):
                return True
        return False

    # -- join ordering -----------------------------------------------------------

    def _cost_estimates(
        self,
        sources: list[SourcePlan],
        pushdown: dict[SourcePlan, list[ast.Expression]],
    ) -> dict[int, float]:
        """Filtered cardinality per source, keyed by ``id(source)``.

        The raw row count of each source is scaled by the estimated
        selectivity of its pushed-down predicates (with table statistics
        where collected, the model's default leaf selectivities otherwise),
        so a big-but-filtered table can order before a small-but-unfiltered
        one.
        """
        statistics = self._context.database.statistics()
        estimates: dict[int, float] = {}
        for source in sources:
            table_stats = None
            if isinstance(source, TableSource):
                table_stats = statistics.table(source.table.schema.name)
            predicate = ast.and_(*pushdown.get(source, []))
            selectivity = predicate_selectivity(predicate, table_stats)
            estimates[id(source)] = max(float(source.estimate()) * selectivity, 1.0)
        return estimates

    def _choose_next(
        self,
        remaining: list[SourcePlan],
        placed_bindings: set[str],
        unused_edges: list,
        estimates: dict[int, float],
    ) -> int:
        """Index of the next source to join into the pipeline: the connected
        source with the smallest filtered estimate — unconnected sources
        (cross products) only when nothing connects."""
        best_index = 0
        best_key: Optional[tuple[int, float]] = None
        for index, candidate in enumerate(remaining):
            connected = bool(
                self._connecting_edges(candidate, placed_bindings, unused_edges)
            )
            key = (0 if connected else 1, estimates[id(candidate)])
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    def _order_joins(
        self,
        sources: list[SourcePlan],
        join_edges: list[tuple[set[str], ast.Expression, set[str], ast.Expression]],
        residual: list[ast.Expression],
        estimates: dict[int, float],
    ) -> JoinPipeline:
        remaining = sorted(sources, key=lambda source: estimates[id(source)])
        first = remaining.pop(0)
        placed_bindings = set(first.bindings)
        placed_schema = list(first.schema)
        steps: list[_JoinStep] = []
        unused_edges = list(join_edges)
        pending_residuals = list(residual)

        pending_residuals, immediate = self._split_ready(pending_residuals, placed_bindings)
        if immediate:
            compiler = self._batch_compiler(placed_schema)
            for predicate in immediate:
                first.add_batch_filter(compiler.compile_predicate(predicate))

        while remaining:
            chosen_index = self._choose_next(
                remaining, placed_bindings, unused_edges, estimates
            )
            candidate = remaining.pop(chosen_index)
            edges = self._connecting_edges(candidate, placed_bindings, unused_edges)
            for edge in edges:
                unused_edges.remove(edge)

            key_pairs = [
                (left_expr, right_expr)
                if left_bindings <= placed_bindings
                else (right_expr, left_expr)
                for left_bindings, left_expr, _, right_expr in edges
            ]
            probe_schema = placed_schema

            placed_bindings |= candidate.bindings
            placed_schema = placed_schema + list(candidate.schema)

            # edges now fully contained in the placed set become residual filters
            contained = [edge for edge in unused_edges if edge[0] | edge[2] <= placed_bindings]
            for edge in contained:
                unused_edges.remove(edge)
                pending_residuals.append(ast.BinaryOp("=", edge[1], edge[3]))

            pending_residuals, ready = self._split_ready(pending_residuals, placed_bindings)
            residual_fns: list = []
            if ready:
                combined_compiler = self._batch_compiler(placed_schema)
                residual_fns = [combined_compiler.compile_predicate(predicate) for predicate in ready]
            steps.append(self._join_step(probe_schema, candidate, key_pairs, residual_fns))

        final_residuals: list = []
        leftover = pending_residuals + [
            ast.BinaryOp("=", edge[1], edge[3]) for edge in unused_edges
        ]
        if leftover:
            final_compiler = self._batch_compiler(placed_schema)
            final_residuals = [final_compiler.compile_predicate(predicate) for predicate in leftover]
        return JoinPipeline(
            first,
            steps,
            final_residuals,
            placed_schema,
            batch_size=self._batch_size,
            stats=self._context.database.stats,
        )

    def _split_ready(
        self, residuals: list[ast.Expression], placed_bindings: set[str]
    ) -> tuple[list[ast.Expression], list[ast.Expression]]:
        pending: list[ast.Expression] = []
        ready: list[ast.Expression] = []
        for predicate in residuals:
            bindings = self._expression_bindings(predicate)
            if bindings is not None and bindings <= placed_bindings:
                ready.append(predicate)
            else:
                pending.append(predicate)
        return pending, ready

    @staticmethod
    def _connecting_edges(
        candidate: SourcePlan,
        placed_bindings: set[str],
        edges: list[tuple[set[str], ast.Expression, set[str], ast.Expression]],
    ) -> list[tuple[set[str], ast.Expression, set[str], ast.Expression]]:
        connecting = []
        for edge in edges:
            left_bindings, _, right_bindings, _ = edge
            if left_bindings <= placed_bindings and right_bindings <= candidate.bindings:
                connecting.append(edge)
            elif right_bindings <= placed_bindings and left_bindings <= candidate.bindings:
                connecting.append(edge)
        return connecting
