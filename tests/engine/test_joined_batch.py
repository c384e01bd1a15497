"""Late-materialized join intermediates: ``JoinedBatch`` and its consumers.

A join step's output references its source rows instead of concatenating
them.  Three kinds of evidence:

* a **property**: for random parts, filters, selects and windows (and a
  LEFT join's shared null-pad tuple) every column of a ``JoinedBatch``
  equals the column of its concatenated rows, and the rows equal what the
  old per-row ``left_row + right_row`` produced;
* **structural pins** by a program count: MT-H Q7 and Q9 at o4 never
  concatenate a joined row (``join_rows_materialized == 0``), nor does
  Q18's ``IN (sub-query)`` post-filter, while a correlated sub-query over a
  join *does* materialize — and is counted;
* **semantics**: sub-query kernels keep SQL's three-valued logic, as literal
  expected rows, on both kernel legs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import EngineBackend
from repro.engine import Database
from repro.engine.vector import JoinedBatch, RowBatch
from repro.mth.loader import load_mth
from repro.mth.queries import query_text
from repro.result import ExecutionStats
from tests.conftest import KERNEL_LEGS, kernel_leg

# ---------------------------------------------------------------------------
# the property: a JoinedBatch is observationally its concatenated rows
# ---------------------------------------------------------------------------

CELLS = st.none() | st.integers(-5, 5) | st.sampled_from(["a", "b", 1.5])


@st.composite
def joins(draw):
    """A chain of joins as ``(source rows, widths, per-step (positions, right rows))``."""
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    sources = [
        draw(st.lists(st.tuples(*[CELLS] * width), min_size=1, max_size=6))
        for width in widths
    ]
    steps = []
    left_n = len(sources[0])
    for source, width in zip(sources[1:], widths[1:]):
        # a LEFT join pairs unmatched left rows with one shared null-pad tuple
        pad = (None,) * width
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, left_n - 1), st.sampled_from(source + [pad])),
                max_size=8,
            )
        )
        steps.append(([p for p, _ in pairs], [r for _, r in pairs]))
        left_n = max(len(pairs), 1)
        if not pairs:
            break
    return sources, widths, steps


def _build(sources, widths, steps, stats):
    """The JoinedBatch and, independently, the old concatenated tuples."""
    batch = RowBatch(sources[0])
    expected = list(sources[0])
    width = widths[0]
    for (positions, right_rows), right_width in zip(steps, widths[1:]):
        batch = JoinedBatch.extend(batch, width, positions, right_rows, right_width, stats)
        expected = [expected[p] + r for p, r in zip(positions, right_rows)]
        width += right_width
    return batch, expected, width


def _assert_same(batch, expected, width):
    assert batch.n == len(expected)
    for slot in range(width):
        assert list(batch.column(slot)) == [row[slot] for row in expected]
        assert batch.typed_column(slot) is None
    assert batch.sel is None
    assert list(batch.rows) == expected


@settings(max_examples=150, deadline=None)
@given(joins(), st.data())
def test_joined_batch_equals_its_concatenated_rows(join, data):
    sources, widths, steps = join
    stats = ExecutionStats()
    batch, expected, width = _build(sources, widths, steps, stats)
    assert isinstance(batch, JoinedBatch)
    assert stats.join_rows_materialized == 0  # columns alone never concatenate

    mask = data.draw(
        st.lists(st.sampled_from([True, False, None]), min_size=batch.n, max_size=batch.n)
    )
    kept = [i for i, keep in enumerate(mask) if keep is True]
    filtered = batch.filter(mask)
    if len(kept) == batch.n:
        assert filtered is batch  # nothing dropped: no copy, cached columns stay
    _assert_same(filtered, [expected[i] for i in kept], width)

    indices = data.draw(st.lists(st.integers(0, max(batch.n - 1, 0)), max_size=6))
    if batch.n:
        _assert_same(batch.select(indices), [expected[i] for i in indices], width)

    start = data.draw(st.integers(0, batch.n))
    stop = data.draw(st.integers(start, batch.n + 3))
    _assert_same(batch.window(start, stop), expected[start:stop], width)

    _assert_same(batch, expected, width)
    assert batch.rows is batch.rows  # concatenated once, then cached
    assert stats.join_rows_materialized >= batch.n


def test_rows_are_references_not_copies():
    left = [(1, "x"), (2, "y")]
    right = [(10,), (20,)]
    pad = (None,)
    stats = ExecutionStats()
    batch = JoinedBatch.extend(RowBatch(left), 2, [0, 0, 1], [right[0], right[1], pad], 1, stats)
    assert all(row is left[0] for row in batch._parts[0][:2])
    assert batch._parts[1][2] is pad
    assert batch.rows == [(1, "x", 10), (1, "x", 20), (2, "y", None)]
    assert stats.join_rows_materialized == 3


# ---------------------------------------------------------------------------
# structural pins on MT-H (explicit engine configuration: leg-independent)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mth(tiny_tpch_data):
    database = Database(batch_size=256)
    instance = load_mth(
        data=tiny_tpch_data, tenants=4, backend=EngineBackend(database=database)
    )
    connection = instance.middleware.connect(1, optimization="o4")
    connection.set_scope("IN ()")
    return instance, connection


@pytest.mark.parametrize("query_id", [7, 9])
def test_multi_join_queries_never_concatenate_a_row(mth, query_id):
    instance, connection = mth
    stats = instance.database.stats
    before = stats.join_rows_materialized
    assert connection.query(query_text(query_id)).rows
    assert stats.join_rows_materialized == before
    report = connection.explain(query_text(query_id), analyze=True)
    assert all(profile.join_rows_materialized == 0 for profile in report.operators)


def test_q18_post_filter_materializes_no_joined_row(mth):
    """Q18's uncorrelated ``IN (sub-query)`` post-filter reads the joined
    batch's columns; it never needs a row tuple."""
    instance, connection = mth
    stats = instance.database.stats
    before = stats.join_rows_materialized
    assert connection.query(query_text(18)).rows
    assert stats.join_rows_materialized == before


def test_correlated_subquery_over_a_join_materializes_and_is_counted(mth):
    instance, connection = mth
    database = instance.database
    before = database.stats.join_rows_materialized
    result = database.query(
        "SELECT COUNT(*) FROM orders, customer WHERE o_custkey = c_custkey "
        "AND o_ttid = c_ttid AND EXISTS (SELECT 1 FROM lineitem "
        "WHERE l_orderkey = o_orderkey AND l_ttid = o_ttid)"
    )
    joined = database.query(
        "SELECT COUNT(*) FROM orders, customer WHERE o_custkey = c_custkey "
        "AND o_ttid = c_ttid"
    ).scalar()
    assert 0 < result.scalar() <= joined
    assert database.stats.join_rows_materialized - before == joined


def test_explain_analyze_shows_materialized_join_rows():
    database = Database(batch_size=4)
    database.execute("CREATE TABLE a (x INTEGER NOT NULL)")
    database.execute("CREATE TABLE b (y INTEGER NOT NULL)")
    database.insert_rows("a", [(n,) for n in range(6)])
    database.insert_rows("b", [(n,) for n in range(0, 6, 2)])
    rows = database.query(
        "SELECT x FROM a, b WHERE x = y AND EXISTS (SELECT 1 FROM a a2 WHERE a2.x = b.y + 1)"
    ).rows
    assert rows == [(0,), (2,), (4,)]
    filter_profile = {p.operator: p for p in database.stats.operator_snapshot()}["filter"]
    assert filter_profile.join_rows_materialized == 3
    assert "join rows materialized=3" in filter_profile.describe()


# ---------------------------------------------------------------------------
# sub-query kernels keep SQL's three-valued logic
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def databases():
    loaded = {}
    for leg in KERNEL_LEGS:
        database = Database(batch_size=3)
        database.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        database.execute("CREATE TABLE u (k INTEGER)")
        database.execute("CREATE TABLE s (k INTEGER)")
        database.execute("CREATE TABLE nulls (k INTEGER)")
        database.execute("CREATE TABLE empty (k INTEGER)")
        database.insert_rows("t", [(1, 10), (2, 20), (None, 30), (4, 40), (5, 50)])
        database.insert_rows("u", [(1,), (5,), (7,)])
        database.insert_rows("s", [(1,), (None,)])
        database.insert_rows("nulls", [(None,)])
        loaded[leg] = database
    return loaded


def _query(databases, leg: str, sql: str) -> list[tuple]:
    with kernel_leg(leg):
        return databases[leg].query(sql).rows


SUBQUERY_CASES = [
    # IN / NOT IN: hit, miss, NULL value; a set holding NULL turns misses into NULL
    ("SELECT v, k IN (SELECT k FROM u) FROM t", [(10, True), (20, False), (30, None), (40, False), (50, True)]),
    ("SELECT v, k NOT IN (SELECT k FROM u) FROM t", [(10, False), (20, True), (30, None), (40, True), (50, False)]),
    ("SELECT v, k IN (SELECT k FROM s) FROM t", [(10, True), (20, None), (30, None), (40, None), (50, None)]),
    ("SELECT v, k NOT IN (SELECT k FROM s) FROM t", [(10, False), (20, None), (30, None), (40, None), (50, None)]),
    ("SELECT v, k IN (SELECT k FROM empty) FROM t", [(10, False), (20, False), (30, None), (40, False), (50, False)]),
    ("SELECT v FROM t WHERE k IN (SELECT k FROM u) ORDER BY v", [(10,), (50,)]),
    ("SELECT v FROM t WHERE k NOT IN (SELECT k FROM s) ORDER BY v", []),
    # scalar: broadcast, empty -> NULL
    ("SELECT v FROM t WHERE v > (SELECT MIN(k) * 10 FROM u) ORDER BY v", [(20,), (30,), (40,), (50,)]),
    ("SELECT v, (SELECT k FROM empty) FROM t WHERE k = 1", [(10, None)]),
    # EXISTS / NOT EXISTS: broadcast
    ("SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM u)", [(5,)]),
    ("SELECT COUNT(*) FROM t WHERE NOT EXISTS (SELECT 1 FROM empty)", [(5,)]),
    ("SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM empty)", [(0,)]),
    # over a join intermediate, and correlated (one run per row) next to it
    ("SELECT v FROM t, u WHERE t.k = u.k AND t.k IN (SELECT k FROM s)", [(10,)]),
    ("SELECT v FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k) ORDER BY v", [(10,), (50,)]),
]


@pytest.mark.parametrize("sql,expected", SUBQUERY_CASES)
def test_subquery_predicates_agree_across_modes(databases, sql, expected):
    results = {leg: _query(databases, leg, sql) for leg in KERNEL_LEGS}
    assert results["typed"] == results["generic"] == expected


def test_multi_column_scalar_subquery_raises_in_every_mode(databases):
    from repro.errors import ExecutionError

    for leg in KERNEL_LEGS:
        with pytest.raises(ExecutionError, match="single column"):
            _query(databases, leg, "SELECT (SELECT k, k FROM u) FROM t")


def test_in_subquery_is_not_run_for_all_null_values(databases):
    for leg in KERNEL_LEGS:
        database = databases[leg]
        before = database.stats.subquery_runs
        rows = _query(databases, leg, "SELECT k IN (SELECT k FROM u) FROM nulls")
        assert rows == [(None,)]
        assert database.stats.subquery_runs - before == 1  # the outer query only
