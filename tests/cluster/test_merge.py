"""The gather side: merge queries run by the coordinator's engine.

A partial-aggregate or row-stream plan's merge is a SQL query over the
gathered shard rows (:func:`repro.sql.transform.split_partial_aggregates` /
:func:`~repro.sql.transform.split_row_stream` build it, the coordinator's
engine database runs it).  The tests drive that seam directly:
a :class:`ShardCoordinator` over fake shard connections that answer the shard
query with canned partial rows, with the merge engine's default batch size
and with batches of 3 rows, so a merge crosses window boundaries.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import PartialAggregatePlan, RowStreamPlan, ShardCoordinator
from repro.engine import DEFAULT_BATCH_SIZE, Database
from repro.errors import ExecutionError, FunctionError, ParameterError, SplitError
from repro.result import QueryResult
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.sql.transform import split_partial_aggregates, split_row_stream


class _CannedShard:
    """A shard connection that answers every query with fixed rows."""

    def __init__(self, rows):
        self.rows = rows

    def execute_scoped(self, statement, dataset=None, parameters=None, compiled=None):
        columns = [item.alias for item in statement.items]
        return QueryResult(columns=columns, rows=list(self.rows))


class _EngineShard:
    """A shard connection over a bare engine database (no backend protocol)."""

    def __init__(self, database):
        self.database = database

    def execute_scoped(self, statement, dataset=None, parameters=None, compiled=None):
        return self.database.query(statement)


#: the merge engine's batch sizes: the default, and one every merge crosses
BATCH_SIZES = (DEFAULT_BATCH_SIZE, 3)


@pytest.fixture(params=BATCH_SIZES)
def batch_size(request):
    """The batch size of the merge engine."""
    return request.param


#: how each scatter-gather plan kind splits its statement
_SPLITS = {PartialAggregatePlan: split_partial_aggregates, RowStreamPlan: split_row_stream}


def _merge(sql, shards, batch_size, functions=None, parameters=None, kind=PartialAggregatePlan):
    """Run ``sql`` as a ``kind`` plan (partial-aggregate by default) over ``shards``.

    ``shards`` are shard connections, or row lists — the partial rows one
    shard returns for the shard query (group keys, then one column per
    distinct aggregate in first-use order, two for ``AVG``).
    """
    statement = parse_query(sql)
    connections = [
        shard if hasattr(shard, "execute_scoped") else _CannedShard(shard) for shard in shards
    ]
    coordinator = ShardCoordinator(connections)
    coordinator.merge_database = Database(batch_size=batch_size)
    for name, fn in (functions or {}).items():
        coordinator.register_python_function(name, fn)
    plan = kind(
        shards=tuple(range(len(connections))),
        split=_SPLITS[kind](statement),
        statement=statement,
    )
    try:
        return coordinator.execute(plan, parameters)
    finally:
        coordinator.close()


def _typed(rows):
    return [tuple((type(value), value) for value in row) for row in rows]


class TestPartialMerge:
    def test_sum_count_min_max_across_shards(self, batch_size):
        result = _merge(
            "SELECT g, SUM(x), COUNT(x), MIN(x), MAX(x) FROM t GROUP BY g",
            [
                [("a", 10.0, 2, 1, 9)],
                [("a", 5.0, 1, 0, 5), ("b", 7.0, 3, 2, 4)],
            ],
            batch_size,
        )
        assert result.columns == ["g", "SUM(x)", "COUNT(x)", "MIN(x)", "MAX(x)"]
        assert result.rows == [("a", 15.0, 3, 0, 9), ("b", 7.0, 3, 2, 4)]

    def test_avg_is_global_sum_over_global_count(self, batch_size):
        """AVG must not average the per-shard averages."""
        # shard 0: one row of 10; shard 1: three rows of 1 -> global AVG 3.25
        result = _merge("SELECT AVG(x) FROM t", [[(10.0, 1)], [(3.0, 3)]], batch_size)
        assert result.rows == [(3.25,)]

    def test_null_semantics(self, batch_size):
        """SUM of an all-NULL input is NULL, COUNT is the int 0, AVG and MIN
        over no rows are NULL — every shard of a global aggregate answers
        one row, and a zero total count must not divide."""
        result = _merge(
            "SELECT SUM(x), COUNT(x), AVG(x), MIN(x) FROM t",
            [[(None, 0, None, 0, None)], [(None, 0, None, 0, None)]],
            batch_size,
        )
        assert _typed(result.rows) == _typed([(None, 0, None, None)])

    def test_null_group_keys_merge_into_one_group(self, batch_size):
        result = _merge(
            "SELECT g, h, SUM(x) FROM t GROUP BY g, h",
            [[(None, 1, 2), ("a", None, 3)], [(None, 1, 5), ("a", None, 7)]],
            batch_size,
        )
        assert result.rows == [(None, 1, 7), ("a", None, 10)]

    def test_groups_keep_first_seen_order_in_shard_order(self, batch_size):
        result = _merge(
            "SELECT g, COUNT(*) FROM t GROUP BY g",
            [[("b", 1), ("a", 1)], [("c", 2), ("a", 4)]],
            batch_size,
        )
        assert result.rows == [("b", 1), ("a", 5), ("c", 2)]


class TestResiduals:
    """Expressions around the merged aggregates are the engine's own."""

    def test_arithmetic_over_merged_aggregates(self, batch_size):
        result = _merge(
            "SELECT SUM(a) / SUM(b) AS ratio FROM t", [[(4.0, 1.0)], [(6.0, 3.0)]], batch_size
        )
        assert result.columns == ["ratio"]
        assert result.rows == [(2.5,)]

    def test_null_propagation(self, batch_size):
        result = _merge("SELECT SUM(a) * 2 FROM t", [[(None,)], [(None,)]], batch_size)
        assert result.rows == [(None,)]

    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("CASE WHEN SUM(a) > 5 THEN 'big' ELSE 'small' END", ["big", "small", "small"]),
            ("COALESCE(SUM(a), 0) + COUNT(a)", [14.0, 0, -1.5]),
            ("g * 2 - COUNT(a)", [-2, 4, 5]),
            ("SUM(a) IS NULL", [False, True, False]),
            ("SUM(a) IS NOT NULL", [True, False, True]),
            ("SUM(a) BETWEEN 0 AND 100", [True, None, False]),
            ("g IN (1, 3)", [True, False, True]),
            ("SUM(a) NOT IN (10, NULL)", [False, None, None]),
            ("NOT (COUNT(a) > 2)", [False, True, True]),
            ("-SUM(a)", [-10.0, None, 2.5]),
            ("g || '/' || COUNT(a)", ["1/4", "2/0", "3/1"]),
        ],
    )
    def test_residual_shapes(self, batch_size, expression, expected):
        # the leading items pin the partial layout to (g, SUM(a), COUNT(a))
        result = _merge(
            f"SELECT SUM(a), COUNT(a), {expression} FROM t GROUP BY g",
            [[(1, 4.0, 3), (2, None, 0)], [(1, 6.0, 1), (3, -2.5, 1)]],
            batch_size,
        )
        assert _typed(row[2:] for row in result.rows) == _typed(
            (value,) for value in expected
        )

    def test_division_by_zero_matches_the_engine(self, batch_size):
        with pytest.raises(ExecutionError, match="division by zero"):
            _merge("SELECT SUM(a) / SUM(b) FROM t", [[(1.0, 0)], [(2.0, 0)]], batch_size)

    def test_python_udf_over_a_merged_aggregate(self, batch_size):
        """COALESCE and registered Python UDFs evaluate post-merge."""
        functions = {"my_rate": lambda key: {1: 2.0}[key]}
        sql = "SELECT COALESCE(SUM(a), 0) * MY_RATE(1) FROM t"
        assert _merge(sql, [[(None,)], [(None,)]], batch_size, functions).rows == [(0.0,)]
        assert _merge(sql, [[(1.0,)], [(2.0,)]], batch_size, functions).rows == [(6.0,)]

    def test_unknown_function_raises(self, batch_size):
        with pytest.raises(FunctionError, match="unknown function 'mystery'"):
            _merge("SELECT mystery(SUM(a)) FROM t", [[(1.0,)]], batch_size)

    def test_unbound_column_raises(self, batch_size):
        with pytest.raises(ExecutionError, match="unknown column 'stray'"):
            _merge("SELECT stray, SUM(a) FROM t", [[(1.0,)]], batch_size)

    def test_parameters_bind_into_the_merge_query(self, batch_size):
        sql = "SELECT SUM(a) * ? FROM t HAVING SUM(a) > ?"
        shards = [[(1.0,)], [(2.0,)]]
        assert _merge(sql, shards, batch_size, parameters=(10, 2)).rows == [(30.0,)]
        assert _merge(sql, shards, batch_size, parameters=(10, 3)).rows == []

    def test_unbound_parameter_raises(self, batch_size):
        with pytest.raises(ExecutionError, match="unbound parameter"):
            _merge("SELECT SUM(a) * ? FROM t", [[(1.0,)]], batch_size)
        with pytest.raises(ParameterError, match="only 1 value"):
            _merge("SELECT SUM(a) * ?2 FROM t", [[(1.0,)]], batch_size, parameters=(5,))


class TestClauses:
    """HAVING, ORDER BY, DISTINCT and LIMIT re-applied over the merged groups."""

    def test_alias_visible_in_having_and_order_by(self, batch_size):
        result = _merge(
            "SELECT g, SUM(a) AS total FROM t GROUP BY g HAVING total > 3 "
            "ORDER BY total DESC",
            [[("x", 1), ("y", 2), ("z", 9)], [("x", 1), ("y", 2)]],
            batch_size,
        )
        assert result.columns == ["g", "total"]
        assert result.rows == [("z", 9), ("y", 4)]

    def test_alias_not_visible_in_sibling_items(self, batch_size):
        with pytest.raises(ExecutionError, match="unknown column 'total'"):
            _merge("SELECT SUM(a) AS total, total + 1 FROM t", [[(1,)]], batch_size)

    def test_having_on_an_aggregate_outside_the_select_list(self, batch_size):
        result = _merge(
            "SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1 ORDER BY MAX(a)",
            [[("x", 1, 5), ("y", 1, 3)], [("x", 1, 7), ("y", 1, 2), ("z", 1, 0)]],
            batch_size,
        )
        assert result.rows == [("y",), ("x",)]

    def test_date_plus_interval_sort_key(self, batch_size):
        """An ORDER BY key like ``d + INTERVAL '1' MONTH`` evaluates post-merge."""
        january, march = datetime.date(1998, 1, 31), datetime.date(1998, 3, 1)
        result = _merge(
            "SELECT d, d + INTERVAL '1' MONTH AS due, COUNT(*) FROM t GROUP BY d "
            "ORDER BY d + INTERVAL '1' MONTH DESC",
            [[(january, 1)], [(march, 2), (january, 1)]],
            batch_size,
        )
        assert result.rows == [
            (march, datetime.date(1998, 4, 1), 2),
            (january, datetime.date(1998, 2, 28), 2),
        ]

    def test_distinct_then_order_by_then_limit(self, batch_size):
        result = _merge(
            "SELECT DISTINCT SUM(a) AS s FROM t GROUP BY g ORDER BY s DESC LIMIT 2",
            [[("p", 1), ("q", 2), ("r", 3)], [("p", 2), ("q", 1), ("s", 1)]],
            batch_size,
        )
        # sums are p=3, q=3, r=3, s=1: DISTINCT first, then the sort, then LIMIT
        assert result.rows == [(3,), (1,)]

    def test_limit_without_order_keeps_first_seen_groups(self, batch_size):
        result = _merge(
            "SELECT g, SUM(a) FROM t GROUP BY g LIMIT 2",
            [[("p", 1), ("q", 2)], [("r", 3), ("p", 1)]],
            batch_size,
        )
        assert result.rows == [("p", 2), ("q", 2)]


def test_sharded_modulo_by_zero_in_having(paper_example_factory):
    """A merged ``HAVING SUM(a) % SUM(b)`` with a zero divisor is the engine's
    typed error, raised out of a real two-shard partial-aggregate plan."""
    from repro.backends import ShardedBackend
    from repro.cluster import ExplicitPlacement

    backend = ShardedBackend(placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2))
    paper_example_factory(backend=backend)
    cluster = backend.connect()
    query = (
        "SELECT E_reg_id, SUM(E_age) FROM Employees GROUP BY E_reg_id "
        "HAVING SUM(E_age) % SUM(E_age - E_age) = 0"
    )
    with pytest.raises(ExecutionError, match="division by zero"):
        cluster.execute(query)
    assert isinstance(cluster.last_plan, PartialAggregatePlan)
    assert cluster.execute(query.replace("E_age - E_age", "1")).rows


# -- property: sharded merge == the engine on the union ----------------------------

_PROPERTY_QUERIES = (
    "SELECT g, SUM(a), COUNT(a), COUNT(*), MIN(a), MAX(a), AVG(a), SUM(b), AVG(b), MIN(b) "
    "FROM t GROUP BY g",
    "SELECT SUM(a), COUNT(b), AVG(a), MAX(b), COUNT(*) FROM t",
    "SELECT g, SUM(a) + COALESCE(MAX(b), 0) AS v, CASE WHEN AVG(b) > 0 THEN 'pos' END "
    "FROM t GROUP BY g HAVING COUNT(*) > 1 ORDER BY v DESC, g LIMIT 3",
    "SELECT DISTINCT COUNT(a) AS n FROM t GROUP BY g ORDER BY n",
)

# ints and dyadic rationals: every partial sum is exact, so regrouping the
# additions across shards cannot change a float's bits
_ROWS = st.lists(
    st.tuples(
        st.sampled_from([None, "x", "y", "z"]),
        st.none() | st.integers(min_value=-50, max_value=50),
        st.none() | st.integers(min_value=-200, max_value=200).map(lambda n: n / 4),
    ),
    max_size=24,
)


def _database(rows, batch_size):
    database = Database(batch_size=batch_size)
    database.execute("CREATE TABLE t (g VARCHAR(4), a INTEGER, b DOUBLE)")
    database.insert_rows("t", rows)
    return database


@settings(max_examples=60, deadline=None)
@given(
    rows=_ROWS,
    cuts=st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=3),
    batch_size=st.sampled_from(BATCH_SIZES),
)
def test_merge_equals_the_engine_on_the_union(rows, cuts, batch_size):
    """Rows split over 2–4 shards and merged give, value for value and type
    for type, what the engine gives for the original query on their union."""
    _assert_merges_like_the_union(rows, cuts, batch_size, _PROPERTY_QUERIES, PartialAggregatePlan)


#: DISTINCT, a hidden ORDER BY key, DESC, LIMIT, an alias key, first-seen order
_ROW_STREAM_QUERIES = (
    "SELECT g, a FROM t ORDER BY b DESC, g LIMIT 5",
    "SELECT DISTINCT g, a FROM t ORDER BY a DESC, g",
    "SELECT a + 1 AS x, b FROM t WHERE a IS NOT NULL ORDER BY x, b DESC",
    "SELECT DISTINCT g FROM t LIMIT 2",
    "SELECT b, g FROM t",
)


@settings(max_examples=60, deadline=None)
@given(
    rows=_ROWS,
    cuts=st.lists(st.integers(min_value=0, max_value=24), min_size=1, max_size=3),
    batch_size=st.sampled_from(BATCH_SIZES),
)
def test_row_stream_merge_equals_the_engine_on_the_union(rows, cuts, batch_size):
    """The row-stream twin: per-shard streams merged by the merge query give
    what the engine gives for the original query on the union of the shards."""
    _assert_merges_like_the_union(rows, cuts, batch_size, _ROW_STREAM_QUERIES, RowStreamPlan)


def _assert_merges_like_the_union(rows, cuts, batch_size, queries, kind):
    bounds = [0, *sorted(cuts), len(rows)]
    slices = [rows[low:high] for low, high in zip(bounds, bounds[1:])]
    shards = [_EngineShard(_database(part, batch_size)) for part in slices]
    union = _database(rows, batch_size)
    for sql in queries:
        merged = _merge(sql, shards, batch_size, kind=kind)
        expected = union.query(sql)
        assert merged.columns == expected.columns, sql
        assert _typed(merged.rows) == _typed(expected.rows), sql


class TestSplits:
    def test_split_partial_aggregates_layout(self):
        query = parse_query(
            "SELECT g, SUM(a) AS s, AVG(b) AS m, COUNT(*) AS n FROM t GROUP BY g "
            "HAVING SUM(a) > 1 ORDER BY s DESC LIMIT 5"
        )
        split = split_partial_aggregates(query)
        assert split.key_texts == ("g",)
        assert split.aggregate_texts == ("SUM(a)", "AVG(b)", "COUNT(*)")
        # shard query: keys first, then partials; merge clauses stripped
        assert to_sql(split.shard_query) == (
            "SELECT g AS mt_key_0, SUM(a) AS mt_part_0, SUM(b) AS mt_part_1s, "
            "COUNT(b) AS mt_part_1c, COUNT(*) AS mt_part_2 FROM t GROUP BY g"
        )
        # merge query: the same clauses over the shard query's output aliases
        assert to_sql(split.merge_query) == (
            "SELECT mt_key_0, SUM(mt_part_0) AS s, "
            "CASE WHEN SUM(mt_part_1c) > 0 "
            "THEN SUM(mt_part_1s) / SUM(mt_part_1c) END AS m, "
            "SUM(mt_part_2) AS n FROM mt_partials GROUP BY mt_key_0 "
            "HAVING SUM(mt_part_0) > 1 ORDER BY s DESC LIMIT 5"
        )

    def test_whole_subtree_texts_win_over_their_parts(self):
        """``SUM(g)`` is an aggregate, not an aggregate over the key column."""
        query = parse_query("SELECT g + 1, SUM(g), MIN(g + 1) FROM t GROUP BY g + 1, g")
        merge = split_partial_aggregates(query).merge_query
        assert to_sql(merge) == (
            "SELECT mt_key_0, SUM(mt_part_0), MIN(mt_part_1) FROM mt_partials "
            "GROUP BY mt_key_0, mt_key_1"
        )

    def test_split_rejects_distinct_aggregates(self):
        query = parse_query("SELECT COUNT(DISTINCT a) FROM t")
        with pytest.raises(SplitError, match="not partial-mergeable"):
            split_partial_aggregates(query)

    def test_split_row_stream_layout(self):
        query = parse_query("SELECT a, b FROM t ORDER BY c DESC, a LIMIT 3")
        split = split_row_stream(query)
        # c is appended as a hidden sort key; ORDER BY / LIMIT leave the shards
        assert to_sql(split.shard_query) == (
            "SELECT a AS mt_col_0, b AS mt_col_1, c AS mt_col_2 FROM t"
        )
        assert to_sql(split.merge_query) == (
            "SELECT mt_col_0, mt_col_1 FROM mt_partials "
            "ORDER BY mt_col_2 DESC, mt_col_0 LIMIT 3"
        )
        # nothing to re-apply: the union of the streams is the answer
        plain = split_row_stream(parse_query("SELECT a, b FROM t WHERE c > 1"))
        assert to_sql(plain.shard_query) == "SELECT a AS mt_col_0, b AS mt_col_1 FROM t WHERE c > 1"
        assert plain.merge_query is None

    def test_split_row_stream_rejects_distinct_with_hidden_key(self):
        query = parse_query("SELECT DISTINCT a FROM t ORDER BY b")
        with pytest.raises(SplitError, match="DISTINCT"):
            split_row_stream(query)
