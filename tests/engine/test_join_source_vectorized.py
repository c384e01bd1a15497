"""Direct unit coverage for the vectorized ``JoinSource`` ON-clause path.

PR 7 vectorized the comma-join pipeline but deliberately left explicit
``A [LEFT] JOIN B ON cond`` row-based; the typed-columns PR batch-compiles
that last row-at-a-time loop too.  These tests pin its contracts directly —
LEFT-join unmatched padding, multi-key ON clauses, residual conditions that
would raise if they were (wrongly) evaluated over unmatched or non-candidate
rows — each asserted bit-identical between the typed and the generic kernel
leg on the same data, and equal as a multiset to stdlib
:mod:`sqlite3` over the same rows.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.engine import Database
from repro.errors import ExecutionError
from tests.conftest import KERNEL_LEGS, kernel_leg

#: small batch so multi-batch behaviour is exercised by the larger fixtures
BATCH = 4


ORDERS = [
    (1, 10, 100.0),
    (2, 11, 50.0),
    (3, 99, 75.0),  # no matching customer: LEFT padding
    (4, 10, 20.0),
    (5, None, 10.0),  # NULL key never matches
    (6, 12, 60.0),
    (7, 11, 40.0),
    (8, 13, 30.0),  # matches a customer with c_limit 0 (raise bait)
]
CUSTOMERS = [
    (10, 1, "alpha", 500.0),
    (11, 1, "beta", 45.0),
    (11, 2, "beta2", 500.0),  # duplicate key: one-to-many fan-out
    (12, 2, "gamma", None),
    (14, 3, "delta", 0.0),  # unmatched build row with zero limit
]


def _load() -> Database:
    db = Database(batch_size=BATCH)
    db.execute(
        "CREATE TABLE orders (o_id INTEGER NOT NULL, o_cust INTEGER, "
        "o_total DECIMAL(10,2), PRIMARY KEY (o_id))"
    )
    db.execute(
        "CREATE TABLE customers (c_id INTEGER NOT NULL, c_region INTEGER, "
        "c_name VARCHAR(20), c_limit DECIMAL(10,2), PRIMARY KEY (c_id))"
    )
    db.insert_rows("orders", ORDERS)
    db.insert_rows("customers", CUSTOMERS)
    return db


def _sqlite(sql: str) -> list[tuple]:
    """The same query on stdlib sqlite3 over the same rows (it divides by
    zero to NULL, which no candidate row of these queries reaches)."""
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE orders (o_id, o_cust, o_total)")
    connection.execute("CREATE TABLE customers (c_id, c_region, c_name, c_limit)")
    connection.executemany("INSERT INTO orders VALUES (?, ?, ?)", ORDERS)
    connection.executemany("INSERT INTO customers VALUES (?, ?, ?, ?)", CUSTOMERS)
    return connection.execute(sql).fetchall()


@pytest.fixture(scope="module")
def databases() -> dict[str, Database]:
    return {leg: _load() for leg in KERNEL_LEGS}


def _query(databases, leg: str, sql: str) -> list[tuple]:
    with kernel_leg(leg):
        return databases[leg].query(sql).rows


def _all_modes(databases, sql: str):
    results = {leg: _query(databases, leg, sql) for leg in KERNEL_LEGS}
    assert results["typed"] == results["generic"]
    assert sorted(results["typed"], key=repr) == sorted(_sqlite(sql), key=repr)
    return results["typed"]


def test_left_join_pads_unmatched_rows(databases):
    rows = _all_modes(
        databases,
        "SELECT o.o_id, c.c_name FROM orders o LEFT JOIN customers c "
        "ON o.o_cust = c.c_id",
    )
    padded = {o_id for o_id, name in rows if name is None}
    # order 3 (missing key), order 5 (NULL key), order 8 only matches c_id 13
    assert padded == {3, 5, 8}
    # one-to-many fan-out keeps both matches of customer key 11, in build order
    assert [name for o_id, name in rows if o_id == 2] == ["beta", "beta2"]


def test_inner_join_drops_unmatched_rows(databases):
    rows = _all_modes(
        databases,
        "SELECT o.o_id, c.c_name FROM orders o JOIN customers c "
        "ON o.o_cust = c.c_id",
    )
    assert all(name is not None for _, name in rows)
    assert {o_id for o_id, _ in rows} == {1, 2, 4, 6, 7}


def test_multi_key_on_clause(databases):
    # both conjuncts become hash-join key pairs: (o_cust, o_id) vs (c_id, c_region)
    rows = _all_modes(
        databases,
        "SELECT o.o_id, c.c_name FROM orders o LEFT JOIN customers c "
        "ON o.o_cust = c.c_id AND o.o_id = c.c_region",
    )
    # order 1 matches (10, 1)=alpha; order 2 matches (11, 2)=beta2; rest pad
    assert [name for o_id, name in rows if o_id == 1] == ["alpha"]
    assert [name for o_id, name in rows if o_id == 2] == ["beta2"]
    assert sum(1 for _, name in rows if name is None) == len(rows) - 2


def test_residual_on_condition_filters_candidates(databases):
    # equi key + non-equi residual: residual keeps only affordable orders
    rows = _all_modes(
        databases,
        "SELECT o.o_id, c.c_name FROM orders o LEFT JOIN customers c "
        "ON o.o_cust = c.c_id AND o.o_total <= c.c_limit",
    )
    by_id = {}
    for o_id, name in rows:
        by_id.setdefault(o_id, []).append(name)
    assert by_id[1] == ["alpha"]  # 100.0 <= 500.0
    # order 2 (50.0): fails beta's 45.0 limit, passes beta2's 500.0
    assert by_id[2] == ["beta2"]
    # order 6 matches gamma but c_limit IS NULL -> residual NULL -> padded
    assert by_id[6] == [None]


def test_raising_residual_never_sees_unmatched_rows(databases):
    """A residual that raises on some *non-candidate* rows must not raise.

    ``100 / c.c_limit`` divides by zero for customer 14 (c_limit 0.0) — but
    no order joins to key 14, so a nested loop never evaluates the residual
    over that row.  The batched residual must restrict itself to the key-matched
    candidate rows exactly the same way, in every mode.
    """
    rows = _all_modes(
        databases,
        "SELECT o.o_id, c.c_name FROM orders o LEFT JOIN customers c "
        "ON o.o_cust = c.c_id AND 100 / c.c_limit > 0.1",
    )
    assert [name for o_id, name in rows if o_id == 1] == ["alpha"]


def test_raising_residual_does_raise_on_matched_rows(databases):
    """The same division *must* still raise when a candidate row hits it."""
    db_orders = [(20, 14, 5.0)]
    for db in databases.values():
        db.insert_rows("orders", db_orders)
    try:
        for leg in KERNEL_LEGS:
            with pytest.raises(ExecutionError, match="division by zero"):
                _query(
                    databases,
                    leg,
                    "SELECT o.o_id FROM orders o LEFT JOIN customers c "
                    "ON o.o_cust = c.c_id AND 100 / c.c_limit > 0.1",
                )
    finally:
        for db in databases.values():
            db.execute("DELETE FROM orders WHERE o_id = 20")


def test_cross_on_condition_without_keys(databases):
    # ON clause with no equi conjunct: candidate set is the cross product
    rows = _all_modes(
        databases,
        "SELECT o.o_id, c.c_id FROM orders o LEFT JOIN customers c "
        "ON o.o_total < c.c_limit",
    )
    row_ids = [o_id for o_id, _ in rows]
    # left order is preserved and every left row appears at least once
    assert row_ids == sorted(row_ids)
    assert set(row_ids) == {1, 2, 3, 4, 5, 6, 7, 8}
