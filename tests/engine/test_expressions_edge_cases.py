"""Expression-evaluation edge cases: NULL logic, errors, LIKE, date arithmetic."""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR(20), d DATE)")
    database.execute(
        "INSERT INTO t VALUES (1, NULL, 'alpha', DATE '2000-02-29'),"
        " (2, 0, 'Beta_x', NULL), (NULL, 3, NULL, DATE '1999-12-31')"
    )
    return database


class TestThreeValuedLogic:
    def test_null_comparison_filters_row(self, db):
        assert db.query("SELECT a FROM t WHERE b > 1").rows == [(None,)]

    def test_null_in_arithmetic_propagates(self, db):
        assert db.query("SELECT a + b AS x FROM t WHERE a = 1").rows == [(None,)]
        assert db.query("SELECT a + b AS x FROM t WHERE a = 2").rows == [(2,)]

    def test_not_of_null_is_null(self, db):
        # NOT (b > 1) is NULL for the NULL row: the row must not qualify
        names = db.query("SELECT a FROM t WHERE NOT (b > 1)").rows
        assert names == [(2,)]

    def test_and_or_kleene_logic(self, db):
        # b IS NULL OR b > 1: row1 (b NULL) -> TRUE, row3 (b=3) -> TRUE
        assert len(db.query("SELECT a FROM t WHERE b IS NULL OR b > 1").rows) == 2
        # a > 0 AND b > 0: NULL AND TRUE -> NULL (filtered)
        assert db.query("SELECT s FROM t WHERE a > 0 AND b > 0").rows == []

    def test_in_list_with_null_semantics(self, db):
        # 2 IN (0) -> FALSE; NOT IN with NULL item -> NULL (filtered)
        assert db.query("SELECT a FROM t WHERE a IN (2, 99)").rows == [(2,)]
        assert db.query("SELECT a FROM t WHERE a NOT IN (1, NULL)").rows == []

    def test_case_with_null_condition_falls_through(self, db):
        rows = db.query(
            "SELECT CASE WHEN b > 1 THEN 'big' WHEN b = 0 THEN 'zero' END AS label FROM t ORDER BY a"
        ).rows
        assert (None,) in rows  # the NULL-condition row gets NULL (no ELSE)

    def test_coalesce_ordering(self, db):
        rows = db.query("SELECT COALESCE(b, a, -1) AS v FROM t ORDER BY v").rows
        assert sorted(value for (value,) in rows) == [0, 1, 3]


class TestStringsAndLike:
    def test_like_is_case_sensitive(self, db):
        assert db.query("SELECT s FROM t WHERE s LIKE 'beta%'").rows == []
        assert db.query("SELECT s FROM t WHERE s LIKE 'Beta%'").rows == [("Beta_x",)]

    def test_like_underscore_matches_single_character(self, db):
        assert db.query("SELECT s FROM t WHERE s LIKE 'Beta__'").rows == [("Beta_x",)]
        assert db.query("SELECT s FROM t WHERE s LIKE 'Beta_'").rows == []

    def test_like_on_null_is_null(self, db):
        assert db.query("SELECT a FROM t WHERE s LIKE '%'").rows != [(None,)]
        assert len(db.query("SELECT a FROM t WHERE s NOT LIKE 'zzz%'").rows) == 2

    def test_like_special_regex_characters_are_literal(self, db):
        db.execute("INSERT INTO t VALUES (9, 9, 'a.c+d', NULL)")
        assert db.query("SELECT a FROM t WHERE s LIKE 'a.c+d'").rows == [(9,)]
        assert db.query("SELECT a FROM t WHERE s LIKE 'axc+d'").rows == []

    def test_concat_operator_and_function(self, db):
        rows = db.query("SELECT s || '!' AS x FROM t WHERE a = 1").rows
        assert rows == [("alpha!",)]

    def test_substring_beyond_length(self, db):
        assert db.query("SELECT SUBSTRING(s FROM 4 FOR 10) AS x FROM t WHERE a = 1").rows == [("ha",)]


class TestErrorsAndDates:
    def test_division_by_zero_raises(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT a / b AS x FROM t WHERE a = 2")

    @pytest.mark.parametrize("expression", ["a % b", "MOD(a, b)"])
    def test_modulo_by_zero_is_a_typed_error(self, leg, expression):
        """``%`` and ``MOD`` by zero raise like ``/``, never ``ZeroDivisionError``."""
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER)")
        database.execute("INSERT INTO t VALUES (7, 2), (5, 0), (3, NULL)")
        with pytest.raises(ExecutionError, match="division by zero"):
            database.query(f"SELECT {expression} AS x FROM t")
        # a NULL divisor yields NULL, and a filtered-out zero divisor is no error
        rows = database.query(
            f"SELECT {expression} AS x FROM t WHERE b <> 0 OR b IS NULL"
        ).rows
        assert rows == [(1,), (None,)]

    def test_comparing_string_with_number_raises(self, db):
        from repro.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            db.query("SELECT a FROM t WHERE s > 5")

    def test_leap_day_date_round_trip(self, db):
        rows = db.query("SELECT EXTRACT(DAY FROM d) AS day FROM t WHERE a = 1").rows
        assert rows == [(29,)]

    def test_date_difference_in_days(self, db):
        rows = db.query(
            "SELECT d - DATE '2000-02-01' AS delta FROM t WHERE a = 1"
        ).rows
        assert rows == [(28,)]

    def test_date_expressions_yield_stdlib_dates(self, db):
        import datetime

        rows = db.query(
            "SELECT d, d + INTERVAL '1' YEAR, d - INTERVAL '1' MONTH, d + 2, d - 60, "
            "DATE '2000-01-31' + INTERVAL '1' MONTH, "
            "EXTRACT(YEAR FROM d), EXTRACT(MONTH FROM d), EXTRACT(DAY FROM d) "
            "FROM t WHERE a = 1"
        ).rows
        assert rows == [(
            datetime.date(2000, 2, 29),
            datetime.date(2001, 2, 28),  # clamped to the month's end
            datetime.date(2000, 1, 29),
            datetime.date(2000, 3, 2),
            datetime.date(1999, 12, 31),
            datetime.date(2000, 2, 29),
            2000, 2, 29,
        )]
        assert all(type(value) is datetime.date for value in rows[0][:6])

    def test_interval_year_arithmetic(self, db):
        rows = db.query(
            "SELECT a FROM t WHERE d >= DATE '1999-02-01' + INTERVAL '1' YEAR"
        ).rows
        assert rows == [(1,)]

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT a FROM t WHERE SUM(a) > 1")

    def test_star_outside_select_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT a FROM t WHERE * > 1")

    def test_unknown_extract_part_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT EXTRACT(EPOCH FROM d) AS e FROM t WHERE d IS NOT NULL")


class TestNumericBehaviour:
    def test_integer_and_float_mix(self, db):
        rows = db.query("SELECT a * 2.5 AS x FROM t WHERE a = 2").rows
        assert rows == [(5.0,)]

    def test_unary_minus(self, db):
        assert db.query("SELECT -a AS x FROM t WHERE a = 1").rows == [(-1,)]

    def test_modulo(self, db):
        assert db.query("SELECT a % 2 AS x FROM t WHERE a = 2").rows == [(0,)]

    def test_between_inclusive(self, db):
        assert len(db.query("SELECT a FROM t WHERE a BETWEEN 1 AND 2").rows) == 2
        assert db.query("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 1").rows == [(2,)]
