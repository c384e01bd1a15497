"""A ``?`` stays a parameter into the engine: one plan per value types.

(i) a differential property: one owner runs parameterized statements over a
random sequence of values — int, float, bool, str, NULL and DATE — with
writes between executions, and every run's rows, or the error it raises,
equal a fresh run of the statement with its values bound as literals
(:func:`repro.sql.params.bind_parameters`); the owner prepares each
statement once per value types, whatever the writes; (ii) key look-ups
take parameter probes and keep the scan's verdict on a value the index
cannot judge; (iii) every predicate kernel is a mask of True, False and
None, which is what lets :meth:`RowBatch.filter` compress by truth.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import BatchExpressionCompiler, Database
from repro.engine.expressions import Scope
from repro.engine.planner import scan_batch
from repro.errors import ReproError, TypeMismatchError
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_expression, parse_query
from repro.sql.types import Date
from tests.engine.test_plan_memo import _engine_plans, _Owner

SCHEMA = (
    "CREATE TABLE t (id INTEGER NOT NULL, i INTEGER NOT NULL, f DECIMAL NOT NULL,"
    " s VARCHAR(8) NOT NULL, d DATE NOT NULL, n INTEGER, CONSTRAINT pk_t PRIMARY KEY (id))"
)

#: statements over every kernel shape a constant operand takes: typed
#: compares by name (both ways round), DATE day ordinals, BETWEEN, generic
#: arithmetic, key look-ups, IN lists, LIKE, CASE, a bare parameter as the
#: predicate, and aggregates over an expression with a parameter
TEMPLATES = (
    "SELECT id FROM t WHERE i >= ?",
    "SELECT id FROM t WHERE ? < f",
    "SELECT id FROM t WHERE i = ? OR s = ?",
    "SELECT id FROM t WHERE d >= ?",
    "SELECT id FROM t WHERE i BETWEEN ? AND ?",
    "SELECT id FROM t WHERE d NOT BETWEEN ? AND ?",
    "SELECT id, i * ?, ? - f FROM t WHERE n = ?",
    "SELECT id, f / ? FROM t WHERE i < 6",
    "SELECT id FROM t WHERE id = ?",
    "SELECT id, s FROM t WHERE id IN (?) AND i > ?",
    "SELECT id FROM t WHERE i IN (?, 3, ?)",
    "SELECT id FROM t WHERE s LIKE ?",
    "SELECT id FROM t WHERE ?",
    "SELECT id, CASE WHEN i > ? THEN ? ELSE s END FROM t",
    "SELECT COUNT(*), SUM(f * ?) FROM t WHERE n + ? > 3",
    "SELECT id FROM t WHERE i > (SELECT MIN(i) FROM t WHERE f > ?)",
)

WRITES = (
    "INSERT INTO t VALUES ({k}, {k}, {k}.5, 'w{k}', DATE '1996-01-0{day}', NULL)",
    "UPDATE t SET i = i + 1, n = {k} WHERE id < {k}",
    "DELETE FROM t WHERE id = {k}",
    "UPDATE t SET s = 'x', d = DATE '1995-06-1{day}' WHERE i > {k}",
)

VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([0.5, 2.0, 7.25, -1.5, 0.0]),
    st.booleans(),
    st.sampled_from(["3", "w1%", "a", "%", "x"]),
    st.none(),
    st.sampled_from([Date(1995, 6, 12), Date(1996, 1, 3), Date(1997, 2, 1)]),
)

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(0, len(TEMPLATES) - 1), st.lists(VALUES, min_size=3, max_size=3)),
        st.tuples(st.just("write"), st.integers(0, len(WRITES) - 1), st.integers(1, 9)),
    ),
    min_size=1,
    max_size=25,
)


def _database() -> Database:
    database = Database(batch_size=4)  # several windows per scan
    database.execute(SCHEMA)
    database.insert_rows(
        "t",
        [
            (k, k % 7, k * 1.25, f"w{k}", Date(1995, 6, 10 + k % 9), None if k % 3 else k)
            for k in range(1, 13)
        ],
    )
    return database


def _outcome(run):
    """``run()``'s rows (a write's row count), or the type and text of the
    error it raises (whatever it is: both runs must raise alike)."""
    try:
        result = run()
        return result.rows if hasattr(result, "rows") else result.rowcount
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(STEPS)
def test_a_parameter_run_equals_its_literal_bound_run(steps):
    memoized, fresh = _database(), _database()
    owner = _Owner()
    statements = [parse_query(template) for template in TEMPLATES]
    signatures: set = set()
    for kind, which, detail in steps:
        if kind == "write":
            sql = WRITES[which].format(k=detail, day=1 + detail % 9)
            assert _outcome(lambda: memoized.execute(sql)) == _outcome(lambda: fresh.execute(sql))
            continue
        statement = statements[which]
        values = tuple(detail[: TEMPLATES[which].count("?")])
        expected = _outcome(lambda: fresh.query(bind_parameters(statement, values)))
        actual = _outcome(
            lambda: memoized.query(statement, plans=owner.attachments, parameters=values)
        )
        assert actual == expected, (TEMPLATES[which], values)
        signatures.add((which, tuple(map(type, values))))
    # a plan per statement and value types, across every write between runs
    # (a failing prepare stores nothing, so it may count more than once)
    assert memoized.stats.plans_prepared >= len(_engine_plans(owner.attachments))
    assert len(owner.attachments) <= len(signatures)


def test_a_warm_parameter_plan_prepares_nothing_across_writes():
    database = _database()
    owner = _Owner()
    read = parse_query("SELECT id, s FROM t WHERE id = ?")
    scan = parse_query("SELECT COUNT(*) FROM t WHERE f BETWEEN ? AND ? AND i < ?")
    database.query(read, plans=owner.attachments, parameters=(1,))
    database.query(scan, plans=owner.attachments, parameters=(1.0, 9.0, 5))
    prepared = database.stats.plans_prepared
    for k in range(20, 26):
        database.execute(f"INSERT INTO t VALUES ({k}, 1, 2.5, 'n', DATE '1996-01-01', NULL)")
        assert database.query(read, plans=owner.attachments, parameters=(k,)).rows == [(k, "n")]
        database.execute(f"UPDATE t SET s = 'u' WHERE id = {k}")
        assert database.query(read, plans=owner.attachments, parameters=(k,)).rows == [(k, "u")]
        database.execute(f"DELETE FROM t WHERE id = {k}")
        assert database.query(read, plans=owner.attachments, parameters=(k,)).rows == []
        count = database.query(scan, plans=owner.attachments, parameters=(1.0, 9.0, 5))
        assert count.rows == database.query(
            bind_parameters(scan, (1.0, 9.0, 5))
        ).rows
    assert database.stats.plans_prepared == prepared + 6  # the unmemoized checks only


# ---------------------------------------------------------------------------
# (ii) key look-ups take parameter probes
# ---------------------------------------------------------------------------


def test_a_parameter_probes_the_key_index():
    database = _database()
    owner = _Owner()
    statement = parse_query("SELECT id, i FROM t WHERE id = ?")
    for key in (3, 5, 99, 5.0, True):
        expected = database.query(bind_parameters(statement, (key,))).rows
        assert database.query(statement, plans=owner.attachments, parameters=(key,)).rows == expected
    assert database.stats.plans_prepared == 3 + 5  # int, float, bool; five literal runs


def test_a_string_probe_of_an_integer_key_raises_as_its_literal_does():
    database = _database()
    statement = parse_query("SELECT id FROM t WHERE id = ?")
    with pytest.raises(TypeMismatchError) as literal:
        database.query("SELECT id FROM t WHERE id = '5'")
    with pytest.raises(TypeMismatchError) as bound:
        database.query(statement, plans={}, parameters=("5",))
    assert str(bound.value) == str(literal.value)


# ---------------------------------------------------------------------------
# (iii) predicate kernels are masks
# ---------------------------------------------------------------------------

_LEAVES = st.sampled_from(
    ["i", "n", "f", "s", "d", "twice(n)", "1", "0", "NULL", "TRUE", "FALSE", "'w3'",
     "2.5", "DATE '1995-06-12'", "i - 3", "n * 2"]
)


@st.composite
def _predicates(draw, depth: int = 2):
    """SQL text of a WHERE predicate: any shape the compiler takes,
    a bare value (column, UDF call, CASE, arithmetic) included."""
    leaf = draw(_LEAVES)
    if depth == 0:
        return leaf
    left, right = draw(_predicates(depth - 1)), draw(_predicates(depth - 1))
    shape = draw(st.sampled_from(range(9)))
    return [
        leaf,
        f"({left} AND {right})",
        f"({left} OR {right})",
        f"(NOT {left})",
        f"({leaf} {draw(st.sampled_from(['=', '<>', '<', '<=', '>', '>=']))} {draw(_LEAVES)})",
        f"({leaf} IS {draw(st.sampled_from(['', 'NOT ']))}NULL)",
        f"(CASE WHEN {left} THEN {draw(_LEAVES)} ELSE {draw(_LEAVES)} END)",
        f"({leaf} IN (1, {draw(_LEAVES)}))",
        f"({leaf} BETWEEN 1 AND {draw(_LEAVES)})",
    ][shape]


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_predicates())
def test_every_predicate_kernel_is_a_mask(predicate):
    database = _database()
    database.register_python_function("twice", lambda v: None if v is None else v * 2)
    table = database.catalog.table("t")
    compiler = BatchExpressionCompiler(
        Scope([("t", column.name) for column in table.schema.columns]),
        database.executor.context,
    )
    batch = scan_batch(table.data)
    try:
        mask = compiler.compile_predicate(parse_expression(predicate))(batch, ())
    except (ReproError, ValueError):  # a DATE against a non-ISO string: ValueError
        return  # a predicate the engine rejects has no mask
    assert len(mask) == batch.n
    assert {type(entry) for entry in mask} <= {bool, type(None)}, predicate
    kept = batch.filter(mask)
    assert list(kept.rows) == [row for row, keep in zip(batch.rows, mask) if keep is True]
