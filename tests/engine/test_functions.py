"""Tests for built-in functions, aggregates, UDFs and UDF result caching."""

import pytest

from repro.engine import Database
from repro.engine.functions import (
    AvgState,
    CountState,
    DistinctState,
    MaxState,
    MinState,
    SumState,
    aggregate_factory,
)
from repro.errors import FunctionError
from repro.sql import ast


def _fold(state, values, groups=1):
    """Fold ``values`` into group 0 of ``state``, one window per value (the
    per-id path), and return every group's result."""
    state.grow(groups)
    for value in values:
        state.fold([0], [value])
    return state.results()


class TestAggregateAccumulators:
    def test_count_star_counts_everything(self):
        assert _fold(CountState(True), (1, None, "x")) == [3]

    def test_count_column_skips_nulls(self):
        assert _fold(CountState(False), (1, None, 2)) == [2]

    def test_sum_ignores_nulls_and_empty_is_null(self):
        assert _fold(SumState(), ()) == [None]
        assert _fold(SumState(), (1, None, 2.5)) == [3.5]

    def test_avg(self):
        assert _fold(AvgState(), ()) == [None]
        assert _fold(AvgState(), (2, 4, None)) == [3]

    def test_min_max(self):
        values = (5, None, 2, 9)
        assert (_fold(MinState(), values), _fold(MaxState(), values)) == ([2], [9])

    def test_distinct_wrapper(self):
        assert _fold(DistinctState(SumState()), (3, 3, 4, None)) == [7]

    def test_fold_one_equals_fold(self):
        values = [0.1, None, 0.2, 0.3]
        for make in (lambda: CountState(False), SumState, AvgState, MinState, MaxState):
            whole = make()
            whole.grow(2)
            whole.fold_one(1, values)
            assert whole.results() == _fold(make(), (), groups=1) + _fold(make(), values)

    def test_aggregate_factory_dispatch(self):
        call = ast.FunctionCall(name="AVG", args=(ast.Column("x"),))
        assert isinstance(aggregate_factory(call)(), AvgState)
        distinct = ast.FunctionCall(name="SUM", args=(ast.Column("x"),), distinct=True)
        assert isinstance(aggregate_factory(distinct)(), DistinctState)
        star = aggregate_factory(ast.FunctionCall(name="count", args=(ast.Star(),)))
        first, second = star(), star()
        assert (_fold(first, (None,)), _fold(second, ())) == ([1], [0])  # fresh state per call
        with pytest.raises(FunctionError):
            aggregate_factory(ast.FunctionCall(name="MEDIAN", args=(ast.Column("x"),)))

    def test_accumulators_carry_no_instance_dict(self):
        for state in (
            CountState(False), SumState(), AvgState(), MinState(),
            MaxState(), DistinctState(SumState()),
        ):
            assert not hasattr(state, "__dict__")


class TestBuiltinScalars:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute("CREATE TABLE t (s VARCHAR(20), n DECIMAL(10,2))")
        database.execute("INSERT INTO t VALUES ('hello', 3.7), (NULL, -2.0)")
        return database

    def test_string_builtins(self, db):
        row = db.query(
            "SELECT CONCAT(s, '!') AS c, CHAR_LENGTH(s) AS l, UPPER(s) AS u, LOWER('ABC') AS lo "
            "FROM t WHERE s IS NOT NULL"
        ).rows[0]
        assert row == ("hello!", 5, "HELLO", "abc")

    def test_numeric_builtins(self, db):
        row = db.query(
            "SELECT ABS(n) AS a, ROUND(n) AS r, FLOOR(n) AS f, CEIL(n) AS c, MOD(7, 3) AS m "
            "FROM t WHERE n < 0"
        ).rows[0]
        assert row == (2.0, -2.0, -2, -2, 1)

    def test_coalesce(self, db):
        assert db.query("SELECT COALESCE(s, 'fallback') AS v FROM t WHERE s IS NULL").rows == [
            ("fallback",)
        ]

    def test_null_propagation_through_builtins(self, db):
        assert db.query("SELECT CHAR_LENGTH(s) AS l FROM t WHERE s IS NULL").rows == [(None,)]

    def test_unknown_function_raises(self, db):
        with pytest.raises(FunctionError):
            db.query("SELECT NO_SUCH_FUNCTION(1) AS x FROM t")


class TestUserDefinedFunctions:
    def test_python_function(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (2), (5)")
        db.register_python_function("triple", lambda x: x * 3)
        assert db.query("SELECT triple(x) AS t FROM t ORDER BY t").rows == [(6,), (15,)]

    def test_sql_function_with_parameters(self):
        db = Database()
        db.execute("CREATE TABLE rates (k INTEGER NOT NULL, factor DECIMAL(10,4) NOT NULL,"
                   " CONSTRAINT pk PRIMARY KEY (k))")
        db.execute("INSERT INTO rates VALUES (1, 2.0), (2, 10.0)")
        db.execute(
            "CREATE FUNCTION scale (DECIMAL(10,2), INTEGER) RETURNS DECIMAL(10,2) AS "
            "'SELECT factor * $1 FROM rates WHERE k = $2' LANGUAGE SQL IMMUTABLE"
        )
        db.execute("CREATE TABLE v (amount DECIMAL(10,2), rate_key INTEGER)")
        db.execute("INSERT INTO v VALUES (3, 1), (3, 2)")
        assert db.query("SELECT scale(amount, rate_key) AS s FROM v ORDER BY s").rows == [
            (6.0,), (30.0,)
        ]

    def test_sql_function_returns_null_when_no_row_matches(self):
        db = Database()
        db.execute("CREATE TABLE rates (k INTEGER NOT NULL, factor DECIMAL(10,4) NOT NULL)")
        db.execute(
            "CREATE FUNCTION scale (DECIMAL(10,2), INTEGER) RETURNS DECIMAL(10,2) AS "
            "'SELECT factor * $1 FROM rates WHERE k = $2' LANGUAGE SQL"
        )
        assert db.query("SELECT scale(1.0, 99) AS s").rows == [(None,)]

    def test_non_sql_language_rejected(self):
        db = Database()
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            db.execute(
                "CREATE FUNCTION f (INTEGER) RETURNS INTEGER AS 'whatever' LANGUAGE PLPGSQL"
            )


class TestUdfResultCaching:
    """The postgres profile memoizes immutable UDFs; system_c never does (§6.1)."""

    def _run(self, profile: str):
        db = Database(profile)
        calls = []

        def expensive(value):
            calls.append(value)
            return value * 2

        db.register_python_function("expensive", expensive, immutable=True)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES " + ", ".join(f"({i % 3})" for i in range(30)))
        db.query("SELECT expensive(x) AS y FROM t")
        return db, calls

    def test_postgres_profile_caches_immutable_functions(self):
        db, calls = self._run("postgres")
        assert len(calls) == 3  # one execution per distinct argument
        assert db.stats.udf_calls == 30
        assert db.stats.udf_cache_hits == 27

    def test_system_c_profile_never_caches(self):
        db, calls = self._run("system_c")
        assert len(calls) == 30
        assert db.stats.udf_cache_hits == 0

    def test_mutable_function_not_cached_even_on_postgres(self):
        db = Database("postgres")
        counter = []
        db.register_python_function("impure", lambda x: counter.append(x) or len(counter))
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (1), (1)")
        db.query("SELECT impure(x) AS y FROM t")
        assert len(counter) == 3

    def test_clear_function_caches(self):
        db, calls = self._run("postgres")
        db.clear_function_caches()
        db.query("SELECT expensive(x) AS y FROM t")
        assert len(calls) == 6

    def test_unknown_profile_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            Database("oracle")
