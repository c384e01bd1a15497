"""Unit tests for the typed-column layer and its kernel-dispatch contracts.

:mod:`repro.engine.columns` promises *observed* stability: a column types
only when every stored value round-trips exactly through the compact
payload, and any doubt refuses (``None``) back to the generic object-list
kernels.  These tests pin the refusal rules (``bool`` is not ``int``,
int64 overflow, mixed types, unparseable date strings), the per-version
storage cache, the ``REPRO_ENGINE_TYPED`` knob, and the typed/generic
kernel counters surfaced through ``EXPLAIN ANALYZE``.
"""

from __future__ import annotations

import pytest

from repro.engine import Database, VectorConfig
from repro.engine.columns import build_typed_column
from repro.engine.config import env_typed
from repro.errors import ConfigurationError
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
    assert column.null_free
    assert column.object_values() is column.values


def test_decimal_column_types_as_double_array():
    column = build_typed_column(SQLType.DECIMAL, [0.5, -1.25, 3.0])
    assert column is not None
    assert column.kind == "float"
    assert column.values.typecode == "d"
    assert list(column.values) == [0.5, -1.25, 3.0]


def test_nulls_become_explicit_positions_with_zero_padding():
    column = build_typed_column(SQLType.INTEGER, [7, None, 9, None])
    assert column is not None
    assert column.nulls == frozenset({1, 3})
    assert list(column.values) == [7, 0, 9, 0]
    assert not column.null_free
    # padded payload is NOT the object column: generic callers must gather
    assert column.object_values() is None


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
    column = build_typed_column(
        SQLType.DATE, [date_from_string("1970-01-02"), "2020-01-05", None]
    )
    assert column is not None
    assert column.kind == "date"
    assert column.values[0] == 1  # one day past the 1970-01-01 epoch
    assert column.values[1] == date_days(date_from_string("2020-01-05"))
    assert column.nulls == frozenset({2})
    # day ordinals are not the stored objects: no zero-copy object view
    assert column.object_values() is None


def test_unparseable_date_string_refuses():
    assert build_typed_column(SQLType.DATE, ["2020-01-05", "not a date"]) is None


def test_varchar_column_is_zero_copy():
    values = ["a", None, "c"]
    column = build_typed_column(SQLType.VARCHAR, values)
    assert column is not None
    assert column.kind == "str"
    assert column.values is values  # by reference, no copy
    assert column.nulls == frozenset({1})
    assert column.object_values() is values
    assert build_typed_column(SQLType.VARCHAR, ["a", 1]) is None


# ---------------------------------------------------------------------------
# configuration: env knob and runtime switch
# ---------------------------------------------------------------------------


def test_env_typed_accepts_only_the_two_flags(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_TYPED", "1")
    assert env_typed() is True
    monkeypatch.setenv("REPRO_ENGINE_TYPED", "0")
    assert env_typed() is False
    monkeypatch.setenv("REPRO_ENGINE_TYPED", "true")
    with pytest.raises(ConfigurationError, match="REPRO_ENGINE_TYPED"):
        env_typed()


def _kernel_db(typed: bool) -> Database:
    db = Database(vector=VectorConfig(batch_size=4, typed=typed))
    db.execute("CREATE TABLE t (a INTEGER, b DECIMAL(10,2))")
    db.insert_rows("t", [(i, float(i)) for i in range(10)])
    return db


def _kernels(db: Database, query: str) -> tuple[int, int]:
    db.stats.reset()
    rows = db.query(query).rows
    kernels = db.stats.kernels
    return rows, (kernels.typed, kernels.generic)


def test_typed_kernels_dispatch_only_when_enabled():
    query = "SELECT SUM(b * 2.0) FROM t WHERE a > 3"
    rows_on, (typed_on, _) = _kernels(_kernel_db(typed=True), query)
    rows_off, (typed_off, generic_off) = _kernels(_kernel_db(typed=False), query)
    assert rows_on == rows_off
    assert typed_on > 0
    # typed=False compiles no typed-capable kernels at all: both counters
    # stay zero (generic counts only *runtime fallbacks* from typed kernels)
    assert typed_off == 0 and generic_off == 0


def test_set_typed_flips_dispatch_and_replans():
    db = _kernel_db(typed=True)
    query = "SELECT COUNT(*) FROM t WHERE a > 3"
    rows_before, (typed, _) = _kernels(db, query)
    assert typed > 0
    db.set_typed(False)
    assert db.vector.typed is False
    assert db.vector.batch_size == 4  # only the typed layer switches off
    rows_after, (typed, generic) = _kernels(db, query)
    assert rows_after == rows_before
    assert typed == 0 and generic == 0
    db.set_typed(True)
    _, (typed, _) = _kernels(db, query)
    assert typed > 0


def test_unstable_column_falls_back_per_batch():
    """A destabilized column refuses typing but stays correct generically."""
    db = _kernel_db(typed=True)
    db.insert_rows("t", [(True, 10.0)])  # bool destabilizes column a
    query = "SELECT COUNT(*) FROM t WHERE a >= 3"
    rows, (typed, generic) = _kernels(db, query)
    assert rows == [(7,)]  # ints 3..9 match; True >= 3 is False
    assert typed == 0 and generic > 0


def test_operator_profiles_report_kernel_counts():
    db = _kernel_db(typed=True)
    db.stats.reset()
    db.query("SELECT a FROM t WHERE a > 3")
    profiles = {p.operator: p for p in db.stats.operator_snapshot()}
    scan = profiles["scan+join"]
    assert scan.typed_kernels >= 1
    assert "kernels typed=" in scan.describe()
