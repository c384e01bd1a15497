"""Hash aggregation on dense group ids against the row-mode accumulators.

The vectorized executor maps every row to a dense group id and keeps one
columnar :class:`~repro.engine.functions.GroupedState` per aggregate; the row
interpreter keeps one :class:`~repro.engine.functions.Aggregate` object per
(group, aggregate) and is the oracle.  Two kinds of evidence:

* a **property** over generated tables — int / float / NULL mixes, NULL group
  keys, zero to two key columns, the six aggregates with and without
  ``DISTINCT``, ``HAVING``, empty inputs — that both produce the same rows in
  the same order with the same types and the same float bits, for windows of
  1, 3 and 1024 rows (so groups span windows);
* a **structural pin** by a program count: the vectorized path constructs
  O(aggregates) state objects on a 1 000-group input, not O(groups).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database, VectorConfig
from repro.engine import functions

KEYS = st.none() | st.integers(0, 3)
NAMES = st.none() | st.sampled_from(["a", "b"])
INTS = st.none() | st.integers(-3, 3)
FLOATS = st.none() | st.sampled_from([0.1, 0.2, 0.3, -0.0, 1e16, -1e16, 2.5])
#: a DECIMAL slot the loader filled with ints *and* floats: no typed payload
MIXED = st.none() | st.integers(-2, 2) | st.sampled_from([0.1, 0.7, 1e16, 2.0])

ROWS = st.lists(st.tuples(KEYS, NAMES, INTS, FLOATS, MIXED), max_size=12)

GROUPINGS = ["", "k1", "k1, k2"]


def _aggregates(column: str) -> str:
    calls = [f"{name}({column})" for name in ("COUNT", "SUM", "AVG", "MIN", "MAX")]
    calls += [f"{name}(DISTINCT {column})" for name in ("COUNT", "SUM", "AVG", "MIN", "MAX")]
    return ", ".join(["COUNT(*)"] + calls)


def _queries() -> list[str]:
    queries = []
    for keys in GROUPINGS:
        prefix = f"{keys}, " if keys else ""
        group_by = f" GROUP BY {keys}" if keys else ""
        for column in ("i", "f", "m"):
            queries.append(f"SELECT {prefix}{_aggregates(column)} FROM t{group_by}")
        # arguments that are expressions, a filtered-to-empty input, HAVING
        queries.append(f"SELECT {prefix}SUM(f * 2), AVG(i + f), MAX(f - i) FROM t{group_by}")
        queries.append(f"SELECT {prefix}COUNT(*), SUM(f), MIN(i) FROM t WHERE i > 100{group_by}")
        queries.append(
            f"SELECT {prefix}SUM(m), COUNT(DISTINCT i) FROM t{group_by} "
            "HAVING COUNT(*) > 1 AND SUM(f) IS NOT NULL"
        )
    queries.append("SELECT k1 FROM t GROUP BY k1")
    return queries


QUERIES = _queries()


def _database(vector: VectorConfig, rows) -> Database:
    database = Database(vector=vector)
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
def test_grouped_aggregation_matches_row_mode_bit_for_bit(rows):
    oracle = _database(VectorConfig(enabled=False), rows)
    expected = {sql: _exact(oracle.query(sql).rows) for sql in QUERIES}
    for batch_size in (1, 3, 1024):
        for typed in (True, False):
            vector = VectorConfig(enabled=True, batch_size=batch_size, typed=typed)
            database = _database(vector, rows)
            for sql in QUERIES:
                assert _exact(database.query(sql).rows) == expected[sql], (sql, batch_size)


def test_argument_less_aggregates_match_row_mode():
    """``COUNT(*)`` only needs the window's length; the odd argument-less
    shapes are fed the row tuples, like the row interpreter feeds them."""
    rows = [(1, "a", 1, 0.5, 1), (1, "a", 1, 0.5, 1), (2, None, None, None, None)]
    sql = "SELECT k1, COUNT(*), COUNT(DISTINCT *), COUNT() FROM t GROUP BY k1"
    expected = _database(VectorConfig(enabled=False), rows).query(sql).rows
    assert expected == [(1, 2, 1, 2), (2, 1, 1, 1)]
    assert _database(VectorConfig(enabled=True, batch_size=2), rows).query(sql).rows == expected


def test_state_objects_scale_with_aggregates_not_with_groups(monkeypatch):
    built = []

    def counting(cls):
        def build(*args):
            built.append(cls.__name__)
            return cls(*args)

        return build

    for name, cls in list(functions._GROUPED_STATES.items()):
        monkeypatch.setitem(functions._GROUPED_STATES, name, counting(cls))
    for name, cls in list(functions._AGGREGATES.items()):
        monkeypatch.setitem(functions._AGGREGATES, name, counting(cls))
    monkeypatch.setattr(functions, "DistinctState", counting(functions.DistinctState))

    database = Database(vector=VectorConfig(enabled=True, batch_size=64))
    database.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    database.insert_rows("t", [(i % 1000, i) for i in range(3000)])
    sql = (
        "SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v), COUNT(DISTINCT v) "
        "FROM t GROUP BY k"
    )
    rows = database.query(sql).rows
    assert len(rows) == 1000 and rows[7] == (7, 3, 3021, 1007.0, 7, 2007, 3)
    # one state per aggregate, a DISTINCT one and the state it feeds; no
    # per-group accumulator of the row interpreter
    assert sorted(built) == sorted(
        ["CountState", "SumState", "AvgState", "MinState", "MaxState", "DistinctState", "CountState"]
    )
