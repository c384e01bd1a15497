"""Hash aggregation on dense group ids against per-group accumulators.

The executor maps every row to a dense group id and keeps one columnar
:class:`~repro.engine.functions.GroupedState` per aggregate.  The reference
here is the plainest possible aggregation: one accumulator object per
(group, aggregate), fed one value at a time in row order, in plain Python —
the accumulators below are the ones the engine's retired row interpreter
used.  Two kinds of evidence:

* a **property** over generated tables — int / float / NULL mixes, NULL group
  keys, zero to two key columns, the five aggregates with and without
  ``DISTINCT``, ``COUNT(*)``, expression arguments, ``WHERE``, ``HAVING``,
  empty inputs — that the engine produces the reference's rows in the same
  order with the same types and the same float bits, for windows of 1, 3
  and 1024 rows (so groups span windows), on both kernel legs;
* a **structural pin** by a program count: the executor constructs
  O(aggregates) state objects on a 1 000-group input, not O(groups).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

from hypothesis import given, settings, strategies as st

from repro.engine import Database
from repro.engine import functions
from tests.conftest import KERNEL_LEGS, kernel_leg


# ---------------------------------------------------------------------------
# the reference: one streaming accumulator per (group, aggregate)
# ---------------------------------------------------------------------------


class Aggregate:
    """Streaming accumulator of one SQL aggregate over one group's values."""

    __slots__ = ()

    def add(self, value: Any) -> None:
        raise NotImplementedError

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

    def result(self) -> Any:
        return self._inner.result()


_AGGREGATES: dict[str, Callable[..., Aggregate]] = {
    "COUNT": CountAggregate,
    "SUM": SumAggregate,
    "AVG": AvgAggregate,
    "MIN": MinAggregate,
    "MAX": MaxAggregate,
}


class Call:
    """One aggregate call: its SQL text and how the reference evaluates it.

    ``arg`` maps a row of ``t`` to the aggregate's input value; ``None``
    means ``*`` (``COUNT(*)`` counts the rows themselves)."""

    def __init__(self, name: str, arg_sql: str, arg, distinct: bool = False) -> None:
        self.name, self.arg, self.distinct = name, arg, distinct
        self.sql = f"{name}({'DISTINCT ' if distinct else ''}{arg_sql})"

    def accumulator(self) -> Aggregate:
        base = _AGGREGATES[self.name]
        if self.name == "COUNT":
            base = functools.partial(base, self.arg is None)
        return DistinctAggregate(base()) if self.distinct else base()


def _null_strict(op):
    return lambda a, b: None if a is None or b is None else op(a, b)


#: the columns of ``t`` by name, and null-strict arithmetic
SLOT = {"k1": 0, "k2": 1, "i": 2, "f": 3, "m": 4}
TIMES, PLUS, MINUS = (
    _null_strict(lambda a, b: a * b),
    _null_strict(lambda a, b: a + b),
    _null_strict(lambda a, b: a - b),
)


def _column(name: str):
    slot = SLOT[name]
    return lambda row: row[slot]


class Query:
    """A grouped query over ``t`` as SQL text plus its plain-Python reference."""

    def __init__(
        self,
        keys: list[str],
        calls: list[Call],
        where: Optional[tuple[str, Callable]] = None,
        having: Optional[tuple[str, list[Call], Callable]] = None,
    ) -> None:
        self.keys, self.calls, self.where, self.having = keys, calls, where, having
        key_list = ", ".join(keys)
        items = ", ".join(([key_list] if keys else []) + [call.sql for call in calls])
        self.sql = f"SELECT {items} FROM t"
        if where is not None:
            self.sql += f" WHERE {where[0]}"
        if keys:
            self.sql += f" GROUP BY {key_list}"
        if having is not None:
            self.sql += f" HAVING {having[0]}"

    def reference(self, rows) -> list[tuple]:
        """Each group folded value by value, groups in first-seen order."""
        slots = [SLOT[key] for key in self.keys]
        calls = self.calls + (self.having[1] if self.having is not None else [])
        groups: dict[tuple, list[Aggregate]] = {}
        for row in rows:
            if self.where is not None and not self.where[1](row):
                continue
            key = tuple(row[slot] for slot in slots)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = [call.accumulator() for call in calls]
            for accumulator, call in zip(accumulators, calls):
                accumulator.add(row if call.arg is None else call.arg(row))
        if not groups and not slots:
            groups[()] = [call.accumulator() for call in calls]
        result = []
        count = len(self.calls)
        for key, accumulators in groups.items():
            values = [accumulator.result() for accumulator in accumulators]
            if self.having is not None and not self.having[2](*values[count:]):
                continue
            result.append(key + tuple(values[:count]))
        return result


KEYS = st.none() | st.integers(0, 3)
NAMES = st.none() | st.sampled_from(["a", "b"])
INTS = st.none() | st.integers(-3, 3)
FLOATS = st.none() | st.sampled_from([0.1, 0.2, 0.3, -0.0, 1e16, -1e16, 2.5])
#: a DECIMAL slot the loader filled with ints *and* floats: no typed payload
MIXED = st.none() | st.integers(-2, 2) | st.sampled_from([0.1, 0.7, 1e16, 2.0])

ROWS = st.lists(st.tuples(KEYS, NAMES, INTS, FLOATS, MIXED), max_size=12)

GROUPINGS = [[], ["k1"], ["k1", "k2"]]


def _aggregates(column: str) -> list[Call]:
    arg = _column(column)
    calls = [Call("COUNT", "*", None)]
    for distinct in (False, True):
        calls += [
            Call(name, column, arg, distinct) for name in ("COUNT", "SUM", "AVG", "MIN", "MAX")
        ]
    return calls


def _queries() -> list[Query]:
    i, f, m = _column("i"), _column("f"), _column("m")
    queries = []
    for keys in GROUPINGS:
        for column in ("i", "f", "m"):
            queries.append(Query(keys, _aggregates(column)))
        # arguments that are expressions, a filtered-to-empty input, HAVING
        queries.append(
            Query(
                keys,
                [
                    Call("SUM", "f * 2", lambda row: TIMES(f(row), 2)),
                    Call("AVG", "i + f", lambda row: PLUS(i(row), f(row))),
                    Call("MAX", "f - i", lambda row: MINUS(f(row), i(row))),
                ],
            )
        )
        queries.append(
            Query(
                keys,
                [Call("COUNT", "*", None), Call("SUM", "f", f), Call("MIN", "i", i)],
                where=("i > 100", lambda row: i(row) is not None and i(row) > 100),
            )
        )
        queries.append(
            Query(
                keys,
                [Call("SUM", "m", m), Call("COUNT", "i", i, distinct=True)],
                having=(
                    "COUNT(*) > 1 AND SUM(f) IS NOT NULL",
                    [Call("COUNT", "*", None), Call("SUM", "f", f)],
                    lambda rows, total: rows > 1 and total is not None,
                ),
            )
        )
    queries.append(Query(["k1"], []))
    return queries


QUERIES = _queries()


def _database(batch_size: int, rows) -> Database:
    database = Database(batch_size=batch_size)
    database.execute(
        "CREATE TABLE t (k1 INTEGER, k2 VARCHAR(5), i INTEGER, f DECIMAL(10,2), m DECIMAL(10,2))"
    )
    database.insert_rows("t", rows)
    return database


def _exact(rows):
    """Rows with every cell's type and, for floats, its bits."""
    return [
        tuple(
            (type(cell).__name__, cell.hex() if isinstance(cell, float) else cell)
            for cell in row
        )
        for row in rows
    ]


@settings(max_examples=40, deadline=None)
@given(rows=ROWS)
def test_grouped_aggregation_matches_the_reference_bit_for_bit(rows):
    expected = [_exact(query.reference(rows)) for query in QUERIES]
    for batch_size in (1, 3, 1024):
        database = _database(batch_size, rows)
        for leg in KERNEL_LEGS:
            with kernel_leg(leg):
                for query, rows_expected in zip(QUERIES, expected):
                    assert _exact(database.query(query.sql).rows) == rows_expected, (
                        query.sql,
                        batch_size,
                        leg,
                    )


def test_argument_less_aggregates_take_the_row_tuples():
    """``COUNT(*)`` only needs the window's length; the odd argument-less
    shapes are fed the row tuples (``COUNT(DISTINCT *)`` counts distinct
    rows, ``COUNT()`` counts rows)."""
    rows = [(1, "a", 1, 0.5, 1), (1, "a", 1, 0.5, 1), (2, None, None, None, None)]
    sql = "SELECT k1, COUNT(*), COUNT(DISTINCT *), COUNT() FROM t GROUP BY k1"
    database = _database(2, rows)
    assert database.query(sql).rows == [(1, 2, 1, 2), (2, 1, 1, 1)]


def test_state_objects_scale_with_aggregates_not_with_groups(monkeypatch):
    built = []

    def counting(cls):
        def build(*args):
            built.append(cls.__name__)
            return cls(*args)

        return build

    for name, cls in list(functions._GROUPED_STATES.items()):
        monkeypatch.setitem(functions._GROUPED_STATES, name, counting(cls))
    monkeypatch.setattr(functions, "DistinctState", counting(functions.DistinctState))

    database = Database(batch_size=64)
    database.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    database.insert_rows("t", [(i % 1000, i) for i in range(3000)])
    sql = (
        "SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v), COUNT(DISTINCT v) "
        "FROM t GROUP BY k"
    )
    rows = database.query(sql).rows
    assert len(rows) == 1000 and rows[7] == (7, 3, 3021, 1007.0, 7, 2007, 3)
    # one state per aggregate, a DISTINCT one and the state it feeds; no
    # per-group accumulator
    assert sorted(built) == sorted(
        ["CountState", "SumState", "AvgState", "MinState", "MaxState", "DistinctState", "CountState"]
    )
