"""Unit tests for the typed-column layer and its kernel-dispatch contracts.

The schema decides which kernels specialize: only a column its table
declares NOT NULL feeds a typed kernel.  :mod:`repro.engine.columns` still
checks the values: a column types only when every stored value round-trips
exactly through the compact payload, and any doubt — a NULL, ``bool`` for
``int``, int64 overflow, mixed types, an unparseable date string, a VARCHAR
column — refuses (``None``) back to the generic object-list kernels.  These
tests pin the payloads and refusals, the per-version storage cache, and
the proven/generic kernel counters surfaced through ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.engine.columns import build_typed_column
from repro.sql.types import SQLType, date_days, date_from_string

# ---------------------------------------------------------------------------
# build_typed_column: payloads and refusals
# ---------------------------------------------------------------------------


def test_integer_column_types_as_int64_array():
    column = build_typed_column(SQLType.INTEGER, [1, 2, 3])
    assert column is not None
    assert column.kind == "int"
    assert column.values.typecode == "q"
    assert list(column.values) == [1, 2, 3]


def test_decimal_column_types_as_double_array():
    column = build_typed_column(SQLType.DECIMAL, [0.5, -1.25, 3.0])
    assert column is not None
    assert column.kind == "float"
    assert column.values.typecode == "d"
    assert list(column.values) == [0.5, -1.25, 3.0]


@pytest.mark.parametrize(
    "sql_type, values",
    [
        (SQLType.INTEGER, [7, None, 9]),
        (SQLType.DECIMAL, [None, 1.5]),
        (SQLType.DATE, [date_from_string("1970-01-02"), "2020-01-05", None]),
    ],
    ids=["int", "float", "date"],
)
def test_a_null_refuses_the_column(sql_type, values):
    """A typed payload holds no NULL: a NULL is refused like a type
    mismatch (the safety net under a NOT NULL declaration)."""
    assert build_typed_column(sql_type, values) is None
    assert build_typed_column(sql_type, [value for value in values if value is not None])


def test_bool_never_masquerades_as_int():
    assert build_typed_column(SQLType.INTEGER, [1, True, 3]) is None


def test_int_out_of_int64_range_refuses():
    assert build_typed_column(SQLType.INTEGER, [1, 2**63]) is None
    assert build_typed_column(SQLType.INTEGER, [-(2**63) - 1]) is None
    # the boundary values themselves are fine
    edge = build_typed_column(SQLType.INTEGER, [2**63 - 1, -(2**63)])
    assert edge is not None and list(edge.values) == [2**63 - 1, -(2**63)]


def test_mixed_numeric_types_refuse():
    assert build_typed_column(SQLType.INTEGER, [1, 2.0]) is None
    assert build_typed_column(SQLType.DECIMAL, [1.0, 2]) is None


def test_date_column_stores_day_ordinals():
    column = build_typed_column(SQLType.DATE, [date_from_string("1970-01-02"), "2020-01-05"])
    assert column is not None
    assert column.kind == "date"
    assert column.values[0] == 1  # one day past the 1970-01-01 epoch
    assert column.values[1] == date_days(date_from_string("2020-01-05"))
    assert column.parsed  # one cell was an ISO string


def test_unparseable_date_string_refuses():
    assert build_typed_column(SQLType.DATE, ["2020-01-05", "not a date"]) is None


def test_varchar_refuses():
    """No kernel specializes over strings, so no string payload is built."""
    assert build_typed_column(SQLType.VARCHAR, ["a", "b", "c"]) is None


# ---------------------------------------------------------------------------
# dispatch: NOT NULL columns run typed, nullable ones generic
# ---------------------------------------------------------------------------

QUERY = "SELECT SUM(b * 2.0) FROM t WHERE a > 3"


def _kernel_db(not_null: bool = True) -> Database:
    constraint = " NOT NULL" if not_null else ""
    db = Database(batch_size=4)
    db.execute(f"CREATE TABLE t (a INTEGER{constraint}, b DECIMAL(10,2){constraint})")
    db.insert_rows("t", [(i, float(i)) for i in range(10)])
    return db


def _kernels(db: Database, query: str) -> tuple[list, tuple[int, int, int]]:
    db.stats.reset()
    rows = db.query(query).rows
    return rows, db.stats.kernels.snapshot()


def test_a_not_null_column_dispatches_proven_and_its_nullable_twin_generically():
    rows, (typed, generic, proven) = _kernels(_kernel_db(), QUERY)
    assert proven > 0 and generic == 0 and typed == 0
    twin_rows, twin_counts = _kernels(_kernel_db(not_null=False), QUERY)
    assert twin_rows == rows == [(2 * sum(range(4, 10)),)]
    # no typed kernel was compiled at all: nothing dispatched, nothing fell back
    assert twin_counts == (0, 0, 0)


def test_an_unstable_column_falls_back_per_batch():
    """A destabilized NOT NULL column refuses typing but stays correct."""
    db = _kernel_db()
    db.insert_rows("t", [(True, 10.0)])  # bool destabilizes column a
    rows, (typed, generic, proven) = _kernels(db, "SELECT COUNT(*) FROM t WHERE a >= 3")
    assert rows == [(7,)]  # ints 3..9 match; True >= 3 is False
    assert typed == proven == 0 and generic > 0


def test_operator_profiles_report_proven_and_generic_kernels():
    db = _kernel_db()
    db.stats.reset()
    db.query("SELECT a FROM t WHERE a > 3")
    scan = {p.operator: p for p in db.stats.operator_snapshot()}["scan+join"]
    assert scan.proven_kernels == 1  # the pushed-down filter, over the whole scan
    assert scan.generic_kernels == 0
    assert "kernels proven=1 generic=0" in scan.describe()
