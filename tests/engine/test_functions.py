"""Tests for built-in functions, aggregates, UDFs and UDF result caching."""

import pytest

from repro.engine import Database
from repro.engine.functions import (
    AvgAggregate,
    CountAggregate,
    DistinctAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
    aggregate_factory,
)
from repro.errors import FunctionError
from repro.sql import ast


class TestAggregateAccumulators:
    def test_count_star_counts_everything(self):
        aggregate = CountAggregate(count_star=True)
        for value in (1, None, "x"):
            aggregate.add(value)
        assert aggregate.result() == 3

    def test_count_column_skips_nulls(self):
        aggregate = CountAggregate()
        for value in (1, None, 2):
            aggregate.add(value)
        assert aggregate.result() == 2

    def test_sum_ignores_nulls_and_empty_is_null(self):
        aggregate = SumAggregate()
        assert aggregate.result() is None
        for value in (1, None, 2.5):
            aggregate.add(value)
        assert aggregate.result() == 3.5

    def test_avg(self):
        aggregate = AvgAggregate()
        assert aggregate.result() is None
        for value in (2, 4, None):
            aggregate.add(value)
        assert aggregate.result() == 3

    def test_min_max(self):
        low, high = MinAggregate(), MaxAggregate()
        for value in (5, None, 2, 9):
            low.add(value)
            high.add(value)
        assert (low.result(), high.result()) == (2, 9)

    def test_distinct_wrapper(self):
        aggregate = DistinctAggregate(SumAggregate())
        for value in (3, 3, 4, None):
            aggregate.add(value)
        assert aggregate.result() == 7

    def test_aggregate_factory_dispatch(self):
        call = ast.FunctionCall(name="AVG", args=(ast.Column("x"),))
        assert isinstance(aggregate_factory(call)(), AvgAggregate)
        distinct = ast.FunctionCall(name="SUM", args=(ast.Column("x"),), distinct=True)
        assert isinstance(aggregate_factory(distinct)(), DistinctAggregate)
        star = aggregate_factory(ast.FunctionCall(name="count", args=(ast.Star(),)))
        first, second = star(), star()
        first.add(None)
        assert (first.result(), second.result()) == (1, 0)  # one fresh accumulator per call
        with pytest.raises(FunctionError):
            aggregate_factory(ast.FunctionCall(name="MEDIAN", args=(ast.Column("x"),)))

    def test_accumulators_carry_no_instance_dict(self):
        for accumulator in (
            CountAggregate(), SumAggregate(), AvgAggregate(), MinAggregate(),
            MaxAggregate(), DistinctAggregate(SumAggregate()),
        ):
            assert not hasattr(accumulator, "__dict__")


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
