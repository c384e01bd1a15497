"""Scalar functions, aggregates and user-defined functions (UDFs).

Two UDF flavours exist, mirroring what MTBase deploys on the DBMS:

* :class:`SQLFunction` — a function whose body is a SQL query with ``$1`` ...
  ``$n`` parameters (the paper's Listings 4-7 define conversion functions this
  way).  The body is parsed once and executed by the engine on every call.
* :class:`PythonFunction` — a thin wrapper around a Python callable, used by
  the test-suite and by conversion pairs whose semantics are easier to state
  directly in Python.

A function flagged ``immutable`` may have its results memoized.  Whether the
engine actually does so is a property of the back-end profile
(:class:`repro.engine.database.BackendProfile`): the PostgreSQL-like profile
caches, the System-C-like profile does not — this asymmetry drives the
appendix experiments of the paper.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import Counter
from itertools import filterfalse, repeat
from typing import Any, Callable, Optional, Sequence

from ..errors import ExecutionError, FunctionError
from ..sql import ast
from ..sql.parser import parse_query
from ..sql.types import Date, date_from_string


# ---------------------------------------------------------------------------
# User-defined functions
# ---------------------------------------------------------------------------


class Function:
    """Base class for scalar UDFs registered in the catalog."""

    def __init__(self, name: str, immutable: bool = False) -> None:
        self.name = name
        self.immutable = immutable
        self._cache: dict[tuple, Any] = {}
        # the memo cache is shared across the server's worker threads
        self._lock = threading.Lock()

    def invoke(self, args: Sequence[Any], context, use_cache: bool) -> tuple[Any, int]:
        """Call the function, optionally memoizing immutable results.

        Returns ``(value, executed)`` where ``executed`` is 1 when the body
        actually ran and 0 on a memo hit, for the caller's
        :class:`~repro.result.ExecutionStats`.
        The body runs outside the lock: two threads missing the same key do
        the work twice, but never corrupt the cache or block each other.
        """
        key: tuple | None = None
        if use_cache and self.immutable:
            try:
                key = tuple(args)
            except TypeError:  # pragma: no cover - defensive
                key = None
        if key is not None:
            with self._lock:
                if key in self._cache:
                    return self._cache[key], 0
            value = self._execute(args, context)
            with self._lock:
                self._cache[key] = value
            return value, 1
        return self._execute(args, context), 1

    def _execute(self, args: Sequence[Any], context) -> Any:
        raise NotImplementedError

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()


class PythonFunction(Function):
    """A UDF backed by a Python callable."""

    def __init__(self, name: str, fn: Callable[..., Any], immutable: bool = False) -> None:
        super().__init__(name, immutable=immutable)
        self._fn = fn

    def _execute(self, args: Sequence[Any], context) -> Any:
        return self._fn(*args)


class SQLFunction(Function):
    """A UDF whose body is a SQL query with ``$n`` positional parameters."""

    def __init__(
        self,
        name: str,
        body: str,
        arg_types: tuple[str, ...] = (),
        return_type: str = "",
        immutable: bool = False,
    ) -> None:
        super().__init__(name, immutable=immutable)
        self.body_text = body
        self.arg_types = arg_types
        self.return_type = return_type
        self.body: ast.Select = parse_query(body)

    def _execute(self, args: Sequence[Any], context) -> Any:
        if context is None:
            raise FunctionError(
                f"SQL function {self.name!r} needs an execution context"
            )
        return context.run_function_body(self, args)


# ---------------------------------------------------------------------------
# Built-in scalar functions
# ---------------------------------------------------------------------------


def _fn_concat(*args: Any) -> Optional[str]:
    if any(argument is None for argument in args):
        return None
    return "".join(str(argument) for argument in args)


def _fn_char_length(value: Any) -> Optional[int]:
    if value is None:
        return None
    return len(str(value))


def _fn_abs(value: Any) -> Any:
    if value is None:
        return None
    return abs(value)


def _fn_round(value: Any, digits: Any = 0) -> Any:
    if value is None:
        return None
    return round(value, int(digits or 0))


def _fn_floor(value: Any) -> Any:
    if value is None:
        return None
    return math.floor(value)


def _fn_ceil(value: Any) -> Any:
    if value is None:
        return None
    return math.ceil(value)


def _fn_upper(value: Any) -> Optional[str]:
    if value is None:
        return None
    return str(value).upper()


def _fn_lower(value: Any) -> Optional[str]:
    if value is None:
        return None
    return str(value).lower()


def _fn_coalesce(*args: Any) -> Any:
    for argument in args:
        if argument is not None:
            return argument
    return None


def _fn_mod(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if right == 0:
        raise ExecutionError("division by zero")
    return left % right


def _fn_year(value: Any) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, Date):
        return value.year
    return date_from_string(str(value)).year


BUILTIN_SCALARS: dict[str, Callable[..., Any]] = {
    "concat": _fn_concat,
    "char_length": _fn_char_length,
    "length": _fn_char_length,
    "abs": _fn_abs,
    "round": _fn_round,
    "floor": _fn_floor,
    "ceil": _fn_ceil,
    "ceiling": _fn_ceil,
    "upper": _fn_upper,
    "lower": _fn_lower,
    "coalesce": _fn_coalesce,
    "mod": _fn_mod,
    "year": _fn_year,
}


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Grouped state: one columnar accumulator per aggregate, for all groups
# ---------------------------------------------------------------------------


class GroupedState:
    """One aggregate's accumulator state for *every* group of a query.

    The executor numbers groups densely in first-seen order and keeps one of
    these per aggregate: plain lists indexed by group id, not one
    accumulator object per (group, aggregate).  Per window it
    calls :meth:`grow` with the number of groups the window introduced, then
    :meth:`fold` with the window's group ids and the aligned argument column
    — or :meth:`fold_one` when every row of the window belongs to one group,
    which keeps the running value in a local.  Values reach a group in row
    order through per-element arithmetic (SUM starts from the first value,
    AVG from ``0.0``, never builtin ``sum``), so float results are
    bit-identical to folding each group's values one at a time — the
    reference ``tests/engine/test_grouped_aggregation.py`` checks against.
    """

    __slots__ = ()

    def grow(self, count: int) -> None:
        """Append the initial state of ``count`` new groups."""
        raise NotImplementedError

    def fold(self, ids: Sequence[int], column: Sequence[Any]) -> None:
        """Fold ``column[i]`` into group ``ids[i]`` for every ``i``, in order."""
        raise NotImplementedError

    def fold_one(self, group: int, column: Sequence[Any]) -> None:
        """Fold the whole ``column`` into ``group``, in order."""
        raise NotImplementedError

    def results(self) -> list:
        """The aggregate's value per group, indexed by group id."""
        raise NotImplementedError


class CountState(GroupedState):
    """COUNT(*) (``count_star``: the column only lends its length) / COUNT(x)."""

    __slots__ = ("_counts", "_count_star")

    def __init__(self, count_star: bool = False) -> None:
        self._counts: list[int] = []
        self._count_star = count_star

    def grow(self, count: int) -> None:
        self._counts += [0] * count

    def fold(self, ids: Sequence[int], column: Sequence[Any]) -> None:
        # all() settles most columns at a third of the cost of the NULL search
        if not self._count_star and not all(column) and None in column:
            ids = [group for group, value in zip(ids, column) if value is not None]
        counts = self._counts
        for group, count in Counter(ids).items():
            counts[group] += count

    def fold_one(self, group: int, column: Sequence[Any]) -> None:
        nulls = 0 if self._count_star else column.count(None)
        self._counts[group] += len(column) - nulls

    def results(self) -> list:
        return self._counts


class SumState(GroupedState):
    __slots__ = ("_totals",)

    def __init__(self) -> None:
        self._totals: list = []

    def grow(self, count: int) -> None:
        self._totals += [None] * count

    def fold(self, ids: Sequence[int], column: Sequence[Any]) -> None:
        totals = self._totals
        for group, value in zip(ids, column):
            if value is not None:
                total = totals[group]
                totals[group] = value if total is None else total + value

    def fold_one(self, group: int, column: Sequence[Any]) -> None:
        total = self._totals[group]
        for value in column:
            if value is not None:
                total = value if total is None else total + value
        self._totals[group] = total

    def results(self) -> list:
        return self._totals


class AvgState(GroupedState):
    __slots__ = ("_totals", "_counts")

    def __init__(self) -> None:
        self._totals: list = []
        self._counts: list[int] = []

    def grow(self, count: int) -> None:
        self._totals += [0.0] * count
        self._counts += [0] * count

    def fold(self, ids: Sequence[int], column: Sequence[Any]) -> None:
        totals, counts = self._totals, self._counts
        for group, value in zip(ids, column):
            if value is not None:
                totals[group] += value
                counts[group] += 1

    def fold_one(self, group: int, column: Sequence[Any]) -> None:
        total, count = self._totals[group], self._counts[group]
        for value in column:
            if value is not None:
                total += value
                count += 1
        self._totals[group], self._counts[group] = total, count

    def results(self) -> list:
        return [
            None if count == 0 else total / count
            for total, count in zip(self._totals, self._counts)
        ]


class _ExtremeState(GroupedState):
    """Shared storage of MIN and MAX: the best value seen per group."""

    __slots__ = ("_best",)

    def __init__(self) -> None:
        self._best: list = []

    def grow(self, count: int) -> None:
        self._best += [None] * count

    def results(self) -> list:
        return self._best


class MinState(_ExtremeState):
    __slots__ = ()

    def fold(self, ids: Sequence[int], column: Sequence[Any]) -> None:
        best = self._best
        for group, value in zip(ids, column):
            if value is not None:
                current = best[group]
                if current is None or value < current:
                    best[group] = value

    def fold_one(self, group: int, column: Sequence[Any]) -> None:
        current = self._best[group]
        for value in column:
            if value is not None and (current is None or value < current):
                current = value
        self._best[group] = current


class MaxState(_ExtremeState):
    __slots__ = ()

    def fold(self, ids: Sequence[int], column: Sequence[Any]) -> None:
        best = self._best
        for group, value in zip(ids, column):
            if value is not None:
                current = best[group]
                if current is None or value > current:
                    best[group] = value

    def fold_one(self, group: int, column: Sequence[Any]) -> None:
        current = self._best[group]
        for value in column:
            if value is not None and (current is None or value > current):
                current = value
        self._best[group] = current


class DistinctState(GroupedState):
    """Hands another state each group's distinct values once, first seen first.

    One set of ``(group, value)`` pairs serves all groups.  A NULL passes
    through (once per group is as good as every time: the inner states skip
    it).
    """

    __slots__ = ("_inner", "_seen")

    def __init__(self, inner: GroupedState) -> None:
        self._inner = inner
        self._seen: set = set()

    def grow(self, count: int) -> None:
        self._inner.grow(count)

    def fold(self, ids: Sequence[int], column: Sequence[Any]) -> None:
        seen = self._seen
        # dedupe the window in row order, then against earlier windows
        fresh = list(filterfalse(seen.__contains__, dict.fromkeys(zip(ids, column))))
        if fresh:
            seen.update(fresh)
            self._inner.fold(*zip(*fresh))

    def fold_one(self, group: int, column: Sequence[Any]) -> None:
        self.fold(repeat(group), column)

    def results(self) -> list:
        return self._inner.results()


_GROUPED_STATES: dict[str, Callable[..., GroupedState]] = {
    "COUNT": CountState,
    "SUM": SumState,
    "AVG": AvgState,
    "MIN": MinState,
    "MAX": MaxState,
}


def is_count_star(call: ast.FunctionCall) -> bool:
    """Whether ``call`` is ``COUNT(*)``, which counts rows, not values."""
    return (
        call.name.upper() == "COUNT"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Star)
    )


def aggregate_factory(call: ast.FunctionCall) -> Callable[[], GroupedState]:
    """Resolve an aggregate FunctionCall node to its :class:`GroupedState`
    factory (resolved once per aggregate at prepare time, called once per
    run)."""
    name = call.name.upper()
    if name not in _GROUPED_STATES:
        raise FunctionError(f"unknown aggregate function {call.name!r}")
    base = _GROUPED_STATES[name]
    if name == "COUNT":
        base = functools.partial(base, is_count_star(call))
    if call.distinct:
        return lambda: DistinctState(base())
    return base
