"""Unit and property tests for the SQL value model (dates, intervals, NULLs)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TypeMismatchError
from repro.sql.types import (
    Date,
    Interval,
    IntervalUnit,
    SQLType,
    add_date_interval,
    date_add_days,
    date_add_months,
    date_days,
    date_from_days,
    date_from_string,
    format_value,
    sort_key,
    sql_compare,
    sql_equal,
)


class TestSQLType:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("INTEGER", SQLType.INTEGER),
            ("int", SQLType.INTEGER),
            ("BIGINT", SQLType.INTEGER),
            ("DECIMAL(15,2)", SQLType.DECIMAL),
            ("VARCHAR(25)", SQLType.VARCHAR),
            ("varchar", SQLType.VARCHAR),
            ("DATE", SQLType.DATE),
            ("BOOLEAN", SQLType.BOOLEAN),
        ],
    )
    def test_from_name(self, name, expected):
        assert SQLType.from_name(name) is expected

    def test_unknown_type_raises(self):
        with pytest.raises(TypeMismatchError):
            SQLType.from_name("GEOMETRY")


class TestDates:
    def test_from_string_round_trip(self):
        date = date_from_string("1998-12-01")
        assert str(date) == "1998-12-01"
        assert (date.year, date.month, date.day) == (1998, 12, 1)

    def test_ordering_follows_calendar(self):
        assert date_from_string("1995-03-15") < date_from_string("1995-03-16")
        assert date_from_string("1996-01-01") > date_from_string("1995-12-31")

    def test_add_days(self):
        assert date_add_days(date_from_string("1998-12-01"), -90) == date_from_string("1998-09-02")

    def test_add_months_clamps_day(self):
        assert date_add_months(Date(1996, 1, 31), 1) == Date(1996, 2, 29)
        assert date_add_months(Date(1995, 1, 31), 1) == Date(1995, 2, 28)

    def test_add_months_year_wrap(self):
        assert date_add_months(Date(1994, 11, 15), 3) == Date(1995, 2, 15)

    @given(st.integers(min_value=0, max_value=20000), st.integers(min_value=-500, max_value=500))
    def test_add_days_is_invertible(self, days, delta):
        date = date_from_days(days)
        assert date_add_days(date_add_days(date, delta), -delta) == date

    @given(st.integers(min_value=0, max_value=20000), st.integers(min_value=0, max_value=48))
    def test_add_months_monotone(self, days, months):
        date = date_from_days(days)
        assert date_add_months(date, months) >= date


class TestDateValueModel:
    """DATE values are stdlib dates; the ``date_*`` functions are the rest."""

    def test_date_is_the_stdlib_class(self):
        import datetime
        import gc

        import repro.api

        assert Date is datetime.date is repro.api.Date
        value = Date(1998, 9, 2)
        assert isinstance(value, Date) and type(value) is Date
        # a C-level object: never GC-tracked, nor is a tuple of them once seen
        assert not gc.is_tracked(value)

    @given(st.integers(min_value=-700_000, max_value=2_900_000))
    def test_day_ordinal_round_trip(self, days):
        assert date_days(date_from_days(days)) == days

    def test_day_ordinal_epoch_and_order(self):
        assert date_from_days(0) == Date(1970, 1, 1)
        assert date_days(Date(1995, 6, 17)) == 9298
        assert date_from_days(-1) < date_from_days(0) < date_from_days(1)

    def test_one_shared_object_per_day(self):
        day = date_from_days(9298)
        assert date_from_days(9298) is day
        assert date_from_string("1995-06-17") is day
        assert date_add_days(Date(1995, 6, 16), 1) is day
        assert date_add_months(Date(1995, 5, 17), 1) is day

    def test_iso_parse_ignores_surrounding_whitespace(self):
        assert date_from_string("  1994-01-01\n") == Date(1994, 1, 1)
        for bad in ("1994-13-01", "not a date", ""):
            with pytest.raises(ValueError):
                date_from_string(bad)

    def test_out_of_calendar_ordinals_raise(self):
        for days in (-719_163, 2_932_897):
            with pytest.raises((ValueError, OverflowError)):
                date_from_days(days)

    @pytest.mark.parametrize(
        "start,months,expected",
        [
            ((2000, 1, 31), 1, (2000, 2, 29)),  # leap February
            ((1900, 1, 31), 1, (1900, 2, 28)),  # century: no leap day
            ((1996, 3, 31), -1, (1996, 2, 29)),
            ((1995, 12, 31), 2, (1996, 2, 29)),
            ((1996, 2, 29), 12, (1997, 2, 28)),
            ((1996, 2, 29), -12, (1995, 2, 28)),
            ((1994, 1, 15), -13, (1992, 12, 15)),
            ((1994, 8, 31), 1, (1994, 9, 30)),
        ],
    )
    def test_add_months_clamps_to_the_month_end(self, start, months, expected):
        assert date_add_months(Date(*start), months) == Date(*expected)

    @given(
        st.integers(min_value=0, max_value=20000),
        st.integers(min_value=-48, max_value=48),
    )
    def test_add_months_keeps_the_day_or_clamps(self, days, months):
        date = date_from_days(days)
        moved = date_add_months(date, months)
        assert (moved.year * 12 + moved.month) - (date.year * 12 + date.month) == months
        assert moved.day == date.day or (
            moved.day < date.day and date_add_days(moved, 1).day == 1
        )

    def test_sort_key_orders_dates_by_calendar(self):
        dates = [Date(1996, 1, 1), Date(1995, 12, 31), None, Date(1995, 1, 1)]
        assert sorted(dates, key=sort_key) == [
            None, Date(1995, 1, 1), Date(1995, 12, 31), Date(1996, 1, 1),
        ]


class TestIntervals:
    def test_interval_day_addition(self):
        result = add_date_interval(date_from_string("1994-01-01"), Interval(90, IntervalUnit.DAY))
        assert result == date_from_string("1994-04-01")

    def test_interval_month_and_year(self):
        start = date_from_string("1993-07-01")
        assert add_date_interval(start, Interval(3, IntervalUnit.MONTH)) == date_from_string("1993-10-01")
        assert add_date_interval(start, Interval(1, IntervalUnit.YEAR)) == date_from_string("1994-07-01")

    def test_interval_subtraction(self):
        result = add_date_interval(date_from_string("1998-12-01"), Interval(90, IntervalUnit.DAY), -1)
        assert result == date_from_string("1998-09-02")

    def test_day_interval_has_no_months(self):
        with pytest.raises(TypeMismatchError):
            Interval(3, IntervalUnit.DAY).months()


class TestThreeValuedLogic:
    def test_equal_with_null_is_null(self):
        assert sql_equal(None, 1) is None
        assert sql_equal(1, None) is None

    def test_equal_numeric_coercion(self):
        assert sql_equal(1, 1.0) is True
        assert sql_equal(2, 3) is False

    def test_compare_with_null_is_null(self):
        assert sql_compare(None, 5) is None

    def test_compare_orders(self):
        assert sql_compare(1, 2) == -1
        assert sql_compare("b", "a") == 1
        assert sql_compare(3.0, 3) == 0

    def test_date_compares_with_date_string(self):
        assert sql_compare(date_from_string("1994-01-01"), "1994-06-01") == -1

    def test_date_number_comparison_rejected(self):
        with pytest.raises(TypeMismatchError):
            sql_compare(date_from_string("1994-01-01"), 12)

    def test_string_number_comparison_rejected(self):
        with pytest.raises(TypeMismatchError):
            sql_compare("abc", 1)

    @given(st.integers() | st.floats(allow_nan=False, allow_infinity=False))
    def test_equality_is_reflexive(self, value):
        assert sql_equal(value, value) is True


class TestSortKeyAndFormatting:
    def test_nulls_sort_first(self):
        values = [3, None, 1]
        assert sorted(values, key=sort_key)[0] is None

    def test_mixed_types_sortable(self):
        values = [None, 2, date_from_string("1994-01-01"), "abc", 1.5]
        assert sorted(values, key=sort_key)  # does not raise

    def test_format_value(self):
        assert format_value(None) == "NULL"
        assert format_value(1.5) == "1.50"
        assert format_value("x") == "x"
