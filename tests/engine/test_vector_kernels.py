"""Unit tests pinning the batch kernels' semantics and configuration.

The differential suite proves the typed and the generic kernels agree on
whole MT-H queries (and pins their rows); these tests pin the *local*
contracts, against stdlib :mod:`sqlite3` or literal rows: three-valued logic
inside batch kernels, NULL-skipping batch aggregation, memo-batched
conversion-UDF dispatch with exact counters, correlated sub-queries and
non-literal ``IN`` lists evaluated per row but only over the rows still
undecided, and the batch-bounded streaming guarantee (LIMIT + ``fetchmany``
consume at most one extra batch).
"""

from __future__ import annotations

import importlib
import inspect
import sqlite3

import pytest

import repro.api as api
from repro.backends import EngineBackend
from repro.engine import Database
from repro.errors import ExecutionError, TypeMismatchError
from repro.mth import load_mth, query_text
from repro.sql.types import Date
from tests.conftest import KERNEL_LEGS, kernel_leg


def _db(batch_size: int = 4, profile: str = "postgres"):
    return Database(profile, batch_size=batch_size)


def _both_kernels(setup, query: str):
    """Run ``query`` on both kernel legs of a database built by ``setup``;
    they must agree, and the agreed rows are returned."""
    db = _db()
    setup(db)
    results = []
    for leg in KERNEL_LEGS:
        with kernel_leg(leg):
            results.append(db.query(query).rows)
    assert results[0] == results[1]
    return results[0]


NULL_ROWS = [
    (1, 10, "alpha"),
    (2, None, "beta"),
    (None, 30, None),
    (4, None, "delta"),
    (None, None, "alpha"),
]


def _null_table(db) -> None:
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR(10))")
    db.insert_rows("t", NULL_ROWS)


# ---------------------------------------------------------------------------
# three-valued logic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "predicate",
    [
        "a < 3",
        "a <> 2",
        "a = b",
        "a < b OR b IS NULL",
        "a > 1 AND b > 5",
        "NOT (a > 1)",
        "a IN (1, 4)",
        "a IN (1, NULL)",
        "a NOT IN (2, NULL)",
        "a BETWEEN 1 AND 3",
        "s LIKE 'a%'",
        "s IS NOT NULL",
        "a + b > 10",
        "CASE WHEN a IS NULL THEN b ELSE a END > 2",
    ],
)
def test_null_predicates_match_sqlite(predicate):
    """NULL-involving predicates keep exactly the rows SQLite keeps."""
    query = f"SELECT a, b, s FROM t WHERE {predicate}"
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (a, b, s)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", NULL_ROWS)
    assert _both_kernels(_null_table, query) == connection.execute(query).fetchall()


def test_null_propagation_in_projections():
    query = (
        "SELECT a + b, a = b, a < b, -a, NOT (a > 2), s || '!', "
        "CASE WHEN a > 2 THEN 'big' END FROM t"
    )
    assert _both_kernels(_null_table, query) == [
        (11, False, True, -1, True, "alpha!", None),
        (None, None, None, -2, True, "beta!", None),
        (None, None, None, None, None, None, None),
        (None, None, None, -4, False, "delta!", "big"),
        (None, None, None, None, None, "alpha!", None),
    ]


def test_case_branches_see_only_their_rows():
    """The sub-batched CASE must not evaluate a branch on foreign rows —
    here the THEN division would raise on the rows the WHEN filters out."""

    def setup(db):
        db.execute("CREATE TABLE t (a INTEGER, d INTEGER)")
        db.insert_rows("t", [(10, 2), (20, 0), (30, 5), (40, 0)])

    query = "SELECT CASE WHEN d > 0 THEN a / d ELSE -1 END FROM t"
    assert _both_kernels(setup, query) == [(5.0,), (-1,), (6.0,), (-1,)]


# ---------------------------------------------------------------------------
# NULL-skipping batch aggregation
# ---------------------------------------------------------------------------


def test_aggregates_skip_nulls():
    query = (
        "SELECT COUNT(*), COUNT(b), SUM(b), AVG(b), MIN(b), MAX(b), "
        "COUNT(DISTINCT s) FROM t"
    )
    assert _both_kernels(_null_table, query) == [(5, 2, 40, 20.0, 10, 30, 3)]


def test_all_null_group_aggregates_are_null():
    def setup(db):
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.insert_rows("t", [(1, None), (1, None), (2, 7)])

    query = "SELECT k, SUM(v), AVG(v), MIN(v), COUNT(v) FROM t GROUP BY k ORDER BY k"
    assert _both_kernels(setup, query) == [(1, None, None, None, 0), (2, 7, 7.0, 7, 1)]


def test_grouped_sums_are_bit_identical():
    """Batch accumulators fold in row order, so float sums match exactly."""

    rows = [(i % 3, 0.1 * i) for i in range(1000)]

    def setup(db):
        db.execute("CREATE TABLE t (k INTEGER, v DOUBLE)")
        db.insert_rows("t", rows)

    expected = []
    for key in range(3):
        total, avg_total = None, 0.0
        values = [v for k, v in rows if k == key]
        for value in values:
            total = value if total is None else total + value
            avg_total += value
        expected.append((key, total, avg_total / len(values)))
    query = "SELECT k, SUM(v), AVG(v) FROM t GROUP BY k ORDER BY k"
    assert _both_kernels(setup, query) == expected  # == : bit-identical floats


# ---------------------------------------------------------------------------
# memo-batched conversion UDFs
# ---------------------------------------------------------------------------

_UDF_DDL = (
    "CREATE FUNCTION double_it (INTEGER) RETURNS INTEGER AS "
    "'SELECT $1 + $1' LANGUAGE SQL IMMUTABLE"
)


def _udf_workload(profile: str, leg: str = "typed"):
    db = _db(profile=profile)
    db.execute("CREATE TABLE t (v INTEGER)")
    # 12 rows, 3 distinct argument values -> the memo collapses 12 calls
    db.insert_rows("t", [(i % 3,) for i in range(12)])
    db.execute(_UDF_DDL)
    with kernel_leg(leg):
        db.query("SELECT double_it(v) FROM t")
    stats = db.stats
    return (stats.udf_calls, stats.udf_executions, stats.udf_cache_hits)


@pytest.mark.parametrize("profile", ["postgres", "system_c"])
def test_udf_counters_have_parity(profile):
    """Both kernel legs report identical call/execution/cache-hit counts."""
    assert _udf_workload(profile) == _udf_workload(profile, leg="generic")


def test_postgres_memo_dedupes_within_a_batch():
    calls, executions, hits = _udf_workload("postgres")
    assert calls == 12
    assert executions == 3  # one per distinct argument
    assert hits == 9


def test_system_c_profile_never_caches():
    calls, executions, hits = _udf_workload("system_c")
    assert calls == 12
    assert executions == 12
    assert hits == 0


def _recording_db():
    """A database with an immutable two-argument Python UDF that logs its
    calls, over 8 rows holding 3 distinct ``(a, b)`` pairs."""
    db = _db()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.insert_rows("t", [(a % 3, (a % 3) * 10) for a in (2, 0, 2, 1, 0, 2, 1, 0)])
    seen: list = []
    db.register_python_function(
        "pair", lambda a, b: seen.append((a, b)) or a + b, immutable=True
    )
    return db, seen


def test_memo_batch_invokes_distinct_keys_in_first_seen_order():
    db, seen = _recording_db()
    rows = db.query("SELECT pair(a, b) FROM t").rows
    assert rows == [(22,), (0,), (22,), (11,), (0,), (22,), (11,), (0,)]
    assert seen == [(2, 20), (0, 0), (1, 10)]
    assert (db.stats.udf_calls, db.stats.udf_executions, db.stats.udf_cache_hits) == (8, 3, 5)


def test_memo_batch_of_a_zero_argument_call_invokes_once():
    db, _ = _recording_db()
    calls: list = []
    db.register_python_function("tick", lambda: calls.append(1) or 7, immutable=True)
    assert db.query("SELECT tick() FROM t").rows == [(7,)] * 8
    assert calls == [1]
    assert (db.stats.udf_calls, db.stats.udf_executions, db.stats.udf_cache_hits) == (8, 1, 7)


def test_builtin_scalars_map_over_their_columns():
    db, _ = _recording_db()
    rows = db.query("SELECT CONCAT(a, '-', b), ABS(a - 5) FROM t").rows
    assert rows[:2] == [("2-20", 3), ("0-0", 5)]
    assert db.stats.udf_calls == 0


# ---------------------------------------------------------------------------
# configuration: the schema picks the kernels, only the batch size is set
# ---------------------------------------------------------------------------


def test_kernel_specialization_is_no_configuration():
    """No module, knob or constructor option selects typed kernels; a
    database takes its batch size and nothing else about execution."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.config")
    assert list(inspect.signature(Database).parameters) == ["profile", "batch_size"]
    assert Database(batch_size=8).batch_size == 8


# ---------------------------------------------------------------------------
# operator profiles
# ---------------------------------------------------------------------------


def test_operator_profiles_record_batched_execution():
    db = _db(batch_size=8)
    db.execute("CREATE TABLE t (a INTEGER)")
    db.insert_rows("t", [(i,) for i in range(40)])
    db.stats.reset()
    db.query("SELECT a + 1 FROM t WHERE a >= 0 ORDER BY a")
    profiles = {p.operator: p for p in db.stats.operator_snapshot()}
    assert profiles["scan+join"].rows == 40
    assert profiles["project"].rows == 40
    assert profiles["project"].batches == 5  # 40 rows / 8 per batch
    assert profiles["project"].rows_per_batch == 8.0
    assert profiles["order"].rows == 40
    for profile in profiles.values():
        assert profile.seconds >= 0.0
        assert "rows/batch" in profile.describe()


# ---------------------------------------------------------------------------
# batch-bounded streaming
# ---------------------------------------------------------------------------


class _Probe:
    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, value):
        self.calls += 1
        return value


def test_limit_and_fetchmany_consume_at_most_one_extra_batch():
    """The streaming contract: a pull of N rows evaluates at most the
    batches spanning those N rows — never the whole table."""
    batch = 32
    backend = EngineBackend(database=Database(batch_size=batch))
    probe = _Probe()
    backend.connect().register_python_function("probe", probe)
    with api.connect(backend) as connection:
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        cursor.executemany(
            "INSERT INTO t (a) VALUES (?)", [(i,) for i in range(1000)]
        )
        cursor.execute("SELECT probe(a) FROM t LIMIT 10")
        assert cursor.fetchall() == [(i,) for i in range(10)]
        assert probe.calls <= batch  # LIMIT 10 touched one batch of 1000 rows

        probe.calls = 0
        cursor.execute("SELECT probe(a) FROM t")
        assert cursor.fetchmany(40) == [(i,) for i in range(40)]
        # 40 rows span two 32-row batches: one extra batch at most
        assert probe.calls <= 2 * batch
        assert len(cursor.fetchall()) == 960
        assert probe.calls == 1000


def test_query_limit_stops_the_projection_early():
    """``query()`` runs the plan the way a stream does: without ORDER BY or
    DISTINCT, LIMIT stops the windowed projection instead of slicing a
    fully projected result."""
    db = _db(batch_size=32)
    probe = _Probe()
    db.register_python_function("probe", probe)
    db.execute("CREATE TABLE t (a INTEGER NOT NULL)")
    db.insert_rows("t", [(i,) for i in range(1000)])
    assert db.query("SELECT probe(a) FROM t LIMIT 5").rows == [(i,) for i in range(5)]
    assert probe.calls <= 32
    # a barrier still sees every row before LIMIT applies
    probe.calls = 0
    assert db.query("SELECT probe(a) FROM t ORDER BY a DESC LIMIT 2").rows == [(999,), (998,)]
    assert probe.calls == 1000


def test_a_sparse_scan_builds_no_table_column_for_its_few_rows():
    """A scan keeping fewer than one row per window of its table hands its
    rows on as tuples, executed or streamed: projecting them builds no
    column list or typed payload of the whole version (which every later
    write would copy); the filter's own column is built as before."""
    db = _db(batch_size=64)
    db.execute("CREATE TABLE t (k INTEGER NOT NULL, a INTEGER NOT NULL, b INTEGER NOT NULL)")
    db.insert_rows("t", [(i, 2 * i, 3 * i) for i in range(3000)])
    sql = "SELECT a, b + 1 FROM t WHERE k = 7"
    assert db.query(sql).rows == [(14, 22)]
    assert db.execute_stream(sql).materialize().rows == [(14, 22)]
    data = db.catalog.table("t").data
    assert {1, 2}.isdisjoint(data._columns) and {1, 2}.isdisjoint(data._typed)
    # a selection of at least one row per window keeps the version's caches
    assert len(db.query("SELECT a FROM t WHERE k < 100").rows) == 100
    assert 1 in data._columns or 1 in data._typed


def test_stream_profiles_count_the_projection_not_the_consumer():
    """A streamed statement records operator profiles, and the projection's
    seconds are its own windows': the consumer's pauses between fetches
    count in no stage."""
    import time

    db = _db(batch_size=64)
    db.execute("CREATE TABLE t (a INTEGER NOT NULL)")
    db.insert_rows("t", [(i,) for i in range(600)])
    db.stats.reset()
    stream = db.execute_stream("SELECT a + 1 FROM t")
    pages = []
    for _ in range(2):
        pages.append(stream.fetchmany(100))
        time.sleep(0.05)
    pages.append(stream.materialize().rows)
    assert [row for page in pages for row in page] == [(i + 1,) for i in range(600)]
    profiles = {p.operator: p for p in db.stats.operator_snapshot()}
    assert profiles["scan+join"].rows == 600
    assert (profiles["project"].rows, profiles["project"].batches) == (600, 10)
    # the consumer slept 100 ms between pulls; projecting 600 rows takes ~1 ms
    assert profiles["project"].seconds < 0.05

    # a stream closed early records the windows it projected
    db.stats.reset()
    stream = db.execute_stream("SELECT a + 1 FROM t")
    assert stream.fetchmany(3) == [(1,), (2,), (3,)]
    stream.close()
    profiles = {p.operator: p for p in db.stats.operator_snapshot()}
    assert (profiles["project"].rows, profiles["project"].batches) == (64, 1)


# ---------------------------------------------------------------------------
# date column vs date column: day ordinals, not sql_compare per row
# ---------------------------------------------------------------------------

_DATE_PREDICATES = ["c < r", "c <= r", "c > r", "c >= r", "c = r", "c <> r", "r > c AND c > s"]


def _date_table(db, cells=lambda value: value, not_null: bool = True) -> None:
    """Ten rows over four columns declared NOT NULL — or, for the nullable
    twin, the same table without the constraint plus a row with a NULL ``c``."""
    constraint = " NOT NULL" if not_null else ""
    db.execute(
        f"CREATE TABLE t (id INTEGER NOT NULL, c DATE{constraint}, r DATE{constraint},"
        f" s DATE{constraint}, n INTEGER{constraint})"
    )
    days = [Date(1994, 1, day) for day in range(1, 11)]
    rows = [(i, cells(days[i]), cells(days[(i * 3) % 10]), cells(days[0]), i) for i in range(10)]
    if not not_null:
        rows.append((10, None, cells(days[2]), cells(days[0]), 10))
    db.insert_rows("t", rows)


def _date_run(leg: str, predicate: str, cells=lambda value: value, not_null: bool = True):
    db = Database(batch_size=4)
    _date_table(db, cells, not_null)
    with kernel_leg(leg):
        rows = db.query(f"SELECT id, {predicate} FROM t WHERE n < 100").rows
    return rows, db.stats.kernels.snapshot()


@pytest.mark.parametrize("predicate", _DATE_PREDICATES)
def test_date_column_comparisons_run_typed_and_bit_identical(predicate):
    typed_rows, (typed, generic, proven) = _date_run("typed", predicate)
    generic_rows, (_, fallbacks, generic_proven) = _date_run("generic", predicate)
    assert typed_rows == generic_rows
    # the filter and every 4-row window of the comparison took the ordinal
    # kernel; the generic leg fell back on each of them
    assert proven >= 1 + 3 and generic == typed == 0
    assert generic_proven == 0 and fallbacks == proven


@pytest.mark.parametrize("predicate", _DATE_PREDICATES)
def test_nullable_date_columns_compare_generically(predicate):
    """The nullable twin: the same comparisons over columns that may hold
    NULL compile no typed kernel, and the NULL date keeps three-valued
    logic."""
    rows, counts = _date_run("typed", predicate, not_null=False)
    assert counts == (0, 0, 0)
    assert rows[:10] == _date_run("typed", predicate)[0]
    assert rows[10][1] is None


def test_date_columns_holding_iso_strings_compare_generically():
    """Two ISO strings compare as text, so a DATE column stored as strings
    is left to the generic kernel."""
    rows, (_, generic, _) = _date_run("typed", "c < r", cells=str)
    assert generic > 0
    assert rows == _date_run("generic", "c < r", cells=str)[0]


def test_date_vs_number_column_still_raises(leg):
    db = Database(batch_size=4)
    _date_table(db)
    with pytest.raises(TypeMismatchError):
        db.query("SELECT id FROM t WHERE c < n")


def test_q4_scan_filter_is_proven_not_generic(tiny_tpch_data):
    """``l_commitdate < l_receiptdate`` (MT-H Q4) dispatches a proven kernel;
    it used to pass the compile-time shape test and fall back per batch."""
    database = Database()
    instance = load_mth(
        data=tiny_tpch_data, tenants=4, backend=EngineBackend(database=database)
    )
    connection = instance.middleware.connect(1, optimization="o4")
    connection.set_scope("IN ()")
    instance.middleware.backend.reset_stats()
    connection.query(query_text(4))
    kernels = database.stats.kernels
    assert kernels.generic == 0
    assert kernels.proven >= 3  # two o_orderdate bounds and the date pair


# ---------------------------------------------------------------------------
# correlated sub-queries: one run per row, across batch boundaries
# ---------------------------------------------------------------------------

#: seven rows over three 3-row batches (``_db`` uses batch_size 3 here)
OUTER_ROWS = [
    (1, 1, 10), (2, 1, 20), (None, 1, 30), (1, 2, 40), (3, 2, 50), (None, 3, 60), (7, 3, 70),
]
#: group 1 holds {1, 5}, group 2 {3, NULL}, group 3 nothing
MEMBER_ROWS = [(1, 1), (1, 5), (2, 3), (2, None)]


@pytest.fixture
def correlated(leg):
    db = _db(batch_size=3)
    db.execute("CREATE TABLE t (k INTEGER, g INTEGER, v INTEGER)")
    db.execute("CREATE TABLE mem (g INTEGER, m INTEGER)")
    db.insert_rows("t", OUTER_ROWS)
    db.insert_rows("mem", MEMBER_ROWS)
    return db


def test_correlated_scalar_subquery_is_null_over_no_rows(correlated):
    rows = correlated.query("SELECT v, (SELECT MAX(m) FROM mem WHERE mem.g = t.g) FROM t").rows
    assert rows == [(10, 5), (20, 5), (30, 5), (40, 3), (50, 3), (60, None), (70, None)]
    rows = correlated.query("SELECT v, (SELECT m FROM mem WHERE mem.m = t.k) FROM t").rows
    assert rows == [(10, 1), (20, None), (30, None), (40, 1), (50, 3), (60, None), (70, None)]


def test_correlated_scalar_subquery_of_two_columns_raises(correlated):
    with pytest.raises(ExecutionError, match="single column"):
        correlated.query("SELECT (SELECT g, m FROM mem WHERE mem.m = t.k) FROM t")


@pytest.mark.parametrize(
    "negated,expected",
    [
        ("", [True, False, None, None, True, None, False]),
        ("NOT ", [False, True, None, None, False, None, True]),
    ],
)
def test_correlated_in_with_null_values_and_null_members(correlated, negated, expected):
    """A NULL value is NULL and runs no sub-query; a miss against a member
    set holding NULL is NULL; an empty set is a plain miss."""
    before = correlated.stats.subquery_runs
    rows = correlated.query(
        f"SELECT k {negated}IN (SELECT m FROM mem WHERE mem.g = t.g) FROM t"
    ).rows
    assert [row[0] for row in rows] == expected
    # the outer statement plus one run per non-NULL value (five of seven)
    assert correlated.stats.subquery_runs - before == 1 + 5


@pytest.mark.parametrize(
    "predicate,expected",
    [
        ("EXISTS", [10, 20, 30, 40, 50]),
        ("NOT EXISTS", [60, 70]),
    ],
)
def test_correlated_exists_across_batch_boundaries(correlated, predicate, expected):
    rows = correlated.query(
        f"SELECT v FROM t WHERE {predicate} (SELECT 1 FROM mem WHERE mem.g = t.g) ORDER BY v"
    ).rows
    assert [row[0] for row in rows] == expected


# ---------------------------------------------------------------------------
# non-literal IN lists: item k only sees the rows items 0..k-1 left undecided
# ---------------------------------------------------------------------------

IN_ROWS = [(1, 0), (2, 5), (None, 0), (4, 2), (6, 3)]


@pytest.fixture
def in_list(leg):
    db = _db(batch_size=3)
    db.execute("CREATE TABLE x (a INTEGER, b INTEGER)")
    db.insert_rows("x", IN_ROWS)
    return db


def test_a_decided_row_never_evaluates_a_later_item(in_list):
    """``10 / b`` divides by zero on (1, 0) and (NULL, 0), but the first
    item already matched a = 1 and a NULL value evaluates no item."""
    rows = in_list.query("SELECT a IN (1, 10 / b) FROM x").rows
    assert rows == [(True,), (True,), (None,), (False,), (False,)]
    rows = in_list.query("SELECT a NOT IN (1, 10 / b, NULL) FROM x").rows
    assert rows == [(False,), (False,), (None,), (None,), (None,)]
    with pytest.raises(ExecutionError, match="division by zero"):
        in_list.query("SELECT a IN (2, 10 / b) FROM x")


def test_a_udf_item_is_called_only_for_undecided_rows(in_list):
    calls = []

    def probe(value):
        calls.append(value)
        return value

    in_list.register_python_function("probe", probe)
    before = in_list.stats.udf_calls
    rows = in_list.query("SELECT a IN (1, probe(b + 2), probe(b + 3)) FROM x").rows
    assert rows == [(True,), (False,), (None,), (True,), (True,)]
    # per batch of 3: item 2 runs for (2, 5) | (4, 2), (6, 3); item 3 only
    # for the rows item 2 missed, (2, 5) | (6, 3)
    assert calls == [7, 8, 4, 5, 6]
    assert in_list.stats.udf_calls - before == 5
