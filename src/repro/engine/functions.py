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
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..errors import FunctionError
from ..sql import ast
from ..sql.parser import parse_query
from ..sql.types import Date, date_from_string


# ---------------------------------------------------------------------------
# User-defined functions
# ---------------------------------------------------------------------------


@dataclass
class FunctionStats:
    """Per-function call counters, exposed for tests and benchmark reporting."""

    calls: int = 0
    cache_hits: int = 0
    executions: int = 0


class Function:
    """Base class for scalar UDFs registered in the catalog."""

    def __init__(self, name: str, immutable: bool = False) -> None:
        self.name = name
        self.immutable = immutable
        self.stats = FunctionStats()
        self._cache: dict[tuple, Any] = {}
        # memo cache and stats are shared across the gateway's worker threads
        self._lock = threading.Lock()

    def invoke(self, args: Sequence[Any], context, use_cache: bool) -> tuple[Any, int]:
        """Call the function, optionally memoizing immutable results.

        Returns ``(value, executed)`` where ``executed`` is 1 when the body
        actually ran and 0 on a memo hit, so the caller can account cache
        hits without re-reading (racy under concurrency) stats counters.
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
                self.stats.calls += 1
                if key in self._cache:
                    self.stats.cache_hits += 1
                    return self._cache[key], 0
            value = self._execute(args, context)
            with self._lock:
                self.stats.executions += 1
                self._cache[key] = value
            return value, 1
        with self._lock:
            self.stats.calls += 1
            self.stats.executions += 1
        return self._execute(args, context), 1

    def add_memo_hits(self, count: int) -> None:
        """Account ``count`` memo hits in one lock acquisition.

        The vectorized executor deduplicates ``(function, args)`` keys inside
        a batch and calls :meth:`invoke` once per *distinct* key; the
        duplicate occurrences are still calls-that-hit-the-memo as far as the
        paper's UDF-cache ablation is concerned, so they are bulk-counted
        here to keep the counters identical to row-at-a-time execution.
        """
        if count <= 0:
            return
        with self._lock:
            self.stats.calls += count
            self.stats.cache_hits += count

    def _execute(self, args: Sequence[Any], context) -> Any:
        raise NotImplementedError

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = FunctionStats()


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


class Aggregate:
    """Streaming accumulator interface for SQL aggregate functions.

    :meth:`add_many` is the vectorized entry point: one call folds a whole
    column into the accumulator; :meth:`add_indexed` folds the positions of
    a group-index array without materializing the gathered slice (the
    grouped-aggregation hot path over typed columns).  Every override
    applies values in column order with the exact per-element arithmetic of
    :meth:`add` — in particular floats accumulate by the same sequence of
    binary additions — so batch and row execution produce bit-identical
    results.  Accumulators are built per group (tens of thousands per
    query), so every class declares ``__slots__``: one allocation, no
    ``__dict__``.
    """

    __slots__ = ()

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def add_many(self, values: Sequence[Any]) -> None:
        """Fold a column of values into the accumulator (batch hot path)."""
        for value in values:
            self.add(value)

    def add_indexed(self, values: Sequence[Any], indices: Sequence[int]) -> None:
        """Fold ``values[i] for i in indices`` (ascending group positions)."""
        add = self.add
        for i in indices:
            add(values[i])

    def result(self) -> Any:
        raise NotImplementedError


class CountAggregate(Aggregate):
    __slots__ = ("_count", "_count_star")

    def __init__(self, count_star: bool = False) -> None:
        self._count = 0
        self._count_star = count_star

    def add(self, value: Any) -> None:
        if self._count_star or value is not None:
            self._count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        if self._count_star:
            self._count += len(values)
            return
        self._count += sum(1 for value in values if value is not None)

    def add_count(self, count: int) -> None:
        """Count ``count`` rows at once (COUNT(*) over a batch needs no column)."""
        self._count += count

    def add_indexed(self, values: Sequence[Any], indices: Sequence[int]) -> None:
        if self._count_star:
            self._count += len(indices)
            return
        self._count += sum(1 for i in indices if values[i] is not None)

    def result(self) -> int:
        return self._count


class SumAggregate(Aggregate):
    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._total = value if self._total is None else self._total + value

    def add_many(self, values: Sequence[Any]) -> None:
        total = self._total
        for value in values:
            if value is not None:
                total = value if total is None else total + value
        self._total = total

    def add_indexed(self, values: Sequence[Any], indices: Sequence[int]) -> None:
        total = self._total
        for i in indices:
            value = values[i]
            if value is not None:
                total = value if total is None else total + value
        self._total = total

    def result(self) -> Any:
        return self._total


class AvgAggregate(Aggregate):
    __slots__ = ("_total", "_count")

    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._total += value
        self._count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        total = self._total
        count = self._count
        for value in values:
            if value is not None:
                total += value
                count += 1
        self._total = total
        self._count = count

    def add_indexed(self, values: Sequence[Any], indices: Sequence[int]) -> None:
        total = self._total
        count = self._count
        for i in indices:
            value = values[i]
            if value is not None:
                total += value
                count += 1
        self._total = total
        self._count = count

    def result(self) -> Any:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAggregate(Aggregate):
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value < self._value:
            self._value = value

    def add_many(self, values: Sequence[Any]) -> None:
        best = self._value
        for value in values:
            if value is not None and (best is None or value < best):
                best = value
        self._value = best

    def add_indexed(self, values: Sequence[Any], indices: Sequence[int]) -> None:
        best = self._value
        for i in indices:
            value = values[i]
            if value is not None and (best is None or value < best):
                best = value
        self._value = best

    def result(self) -> Any:
        return self._value


class MaxAggregate(Aggregate):
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value > self._value:
            self._value = value

    def add_many(self, values: Sequence[Any]) -> None:
        best = self._value
        for value in values:
            if value is not None and (best is None or value > best):
                best = value
        self._value = best

    def add_indexed(self, values: Sequence[Any], indices: Sequence[int]) -> None:
        best = self._value
        for i in indices:
            value = values[i]
            if value is not None and (best is None or value > best):
                best = value
        self._value = best

    def result(self) -> Any:
        return self._value


class DistinctAggregate(Aggregate):
    """Wraps another aggregate, feeding it each distinct value exactly once."""

    __slots__ = ("_inner", "_seen")

    def __init__(self, inner: Aggregate) -> None:
        self._inner = inner
        self._seen: set = set()

    def add(self, value: Any) -> None:
        if value is None:
            self._inner.add(value)
            return
        if value in self._seen:
            return
        self._seen.add(value)
        self._inner.add(value)

    def add_many(self, values: Sequence[Any]) -> None:
        seen = self._seen
        inner_add = self._inner.add
        for value in values:
            if value is None:
                inner_add(value)
            elif value not in seen:
                seen.add(value)
                inner_add(value)

    def add_indexed(self, values: Sequence[Any], indices: Sequence[int]) -> None:
        seen = self._seen
        inner_add = self._inner.add
        for i in indices:
            value = values[i]
            if value is None:
                inner_add(value)
            elif value not in seen:
                seen.add(value)
                inner_add(value)

    def result(self) -> Any:
        return self._inner.result()


_AGGREGATES: dict[str, Callable[[], Aggregate]] = {
    "SUM": SumAggregate,
    "AVG": AvgAggregate,
    "MIN": MinAggregate,
    "MAX": MaxAggregate,
}


def aggregate_factory(call: ast.FunctionCall) -> Callable[[], Aggregate]:
    """Resolve an aggregate FunctionCall node to its accumulator factory.

    Resolved once per aggregate at prepare time; the executor then calls
    the factory once per group without re-reading the AST node.
    """
    name = call.name.upper()
    if name == "COUNT":
        count_star = len(call.args) == 1 and isinstance(call.args[0], ast.Star)
        base: Callable[[], Aggregate] = functools.partial(CountAggregate, count_star)
    elif name in _AGGREGATES:
        base = _AGGREGATES[name]
    else:
        raise FunctionError(f"unknown aggregate function {call.name!r}")
    if call.distinct:
        return lambda: DistinctAggregate(base())
    return base

