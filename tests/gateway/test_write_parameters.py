"""A write's ``?`` stays a parameter from the gateway down to the engine.

(i) a differential property: INSERT / UPDATE / DELETE templates with ``?``
in VALUES, in SET arithmetic, in key and non-key WHERE and in a WHERE
sub-query run through a
gateway session with their values passed through, and through the
session's connection with the values bound as literals
(:func:`repro.sql.params.bind_parameters`), on the engine, SQLite and a
2-shard cluster, for D = {C} and for a two-owner D whose foreign owner gets
every written salary wrapped in conversions.  Table contents, row counts
and the class and text of any error are equal.  (ii) a warm prepared
UPDATE adds no gateway miss and prepares no engine write plan; DDL or a
GRANT makes the next execution prepare exactly once more.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import QueryGateway
from repro.mth.loader import load_mth
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_statement
from repro.sql.types import Date, sort_key
from tests.conftest import build_paper_example

BACKENDS = ("engine", "sqlite", "sharded:2")
SCOPES = (None, "IN (0, 1)")

ITEMS = """CREATE TABLE Items SPECIFIC (
    I_id INTEGER NOT NULL SPECIFIC,
    I_name VARCHAR(8) NOT NULL COMPARABLE,
    I_price DECIMAL(15,2) CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
    I_day DATE COMPARABLE,
    I_qty INTEGER COMPARABLE,
    CONSTRAINT pk_items PRIMARY KEY (I_id)
)"""

TEMPLATES = (
    "INSERT INTO Items (I_id, I_name, I_price, I_day, I_qty) VALUES (?, ?, ?, ?, ?)",
    "INSERT INTO Items VALUES (7, 'fixed', ?, DATE '1996-01-02', ?)",
    "UPDATE Items SET I_price = I_price * ? + ?, I_qty = ? WHERE I_id = ?",
    "UPDATE Items SET I_name = ?, I_day = ? WHERE I_qty > ? AND I_price < ?",
    "UPDATE Items SET I_price = ? WHERE I_day >= ?",
    "DELETE FROM Items WHERE I_id = ?",
    "DELETE FROM Items WHERE I_day < ? OR I_qty = ?",
    "DELETE FROM Items WHERE I_price > ? AND I_id > ?",
    "UPDATE Items SET I_qty = ? WHERE I_qty IN (SELECT Re_reg_id FROM Regions WHERE Re_reg_id < ?)",
)


def _pairs(values: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(values, values)


#: two values of one type: a step runs its template with the first of each
#: pair, then again with the second, which a memoized plan must read afresh
VALUE_PAIRS = st.one_of(
    _pairs(st.integers(-2, 9)),
    _pairs(st.sampled_from([0.5, 2.0, 7.25, -1.5, 40.0])),
    _pairs(st.sampled_from(["a", "zz", "3"])),
    st.just((None, None)),
    _pairs(st.sampled_from([Date(1995, 6, 12), Date(1996, 1, 3), Date(1997, 2, 1)])),
)

STEPS = st.lists(
    st.tuples(
        st.integers(0, len(TEMPLATES) - 1),
        st.lists(VALUE_PAIRS, min_size=5, max_size=5),
        st.integers(0, len(SCOPES) - 1),
    ),
    min_size=1,
    max_size=10,
)


def _instance(backend: str):
    """The paper example on ``backend`` with a tenant-specific ``Items``
    table: four rows per tenant, NULLs in the nullable columns."""
    mt = build_paper_example(backend=backend)
    mt.create_table(ITEMS, ttid_column="I_ttid")
    rows = []
    for ttid in (0, 1):
        for k in range(1, 5):
            day = "NULL" if k == 4 else f"DATE '1996-01-0{k}'"
            qty = "NULL" if k == 3 else str(k + ttid)
            rows.append(f"({ttid}, {k}, 'n{k}', {k * 10.5}, {day}, {qty})")
    mt.backend.execute("INSERT INTO Items VALUES " + ", ".join(rows))
    return mt


def _contents(mt) -> list:
    rows = mt.backend.execute("SELECT * FROM Items").rows
    return sorted(rows, key=lambda row: tuple(map(sort_key, row)))


def _outcome(run):
    """``run()``'s row count, or the type and text of the error it raises
    (whatever it is: both sides must raise alike)."""
    try:
        return run().rowcount
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(steps=STEPS)
def test_a_passed_through_write_equals_its_literal_bound_write(backend, steps):
    passed, bound = _instance(backend), _instance(backend)
    gateway = QueryGateway(passed)
    sessions = [gateway.session(0, scope=scope) for scope in SCOPES]
    connections = [bound.connect(0) for _ in SCOPES]
    for connection, scope in zip(connections, SCOPES):
        if scope is not None:
            connection.set_scope(scope)
    handles = [[session.prepare(template) for template in TEMPLATES] for session in sessions]
    statements = [parse_statement(template) for template in TEMPLATES]
    for which, pairs, scope in steps:
        for values in zip(*pairs[: TEMPLATES[which].count("?")]):
            actual = _outcome(
                lambda: sessions[scope].execute(handles[scope][which], parameters=values)
            )
            expected = _outcome(
                lambda: connections[scope].execute(bind_parameters(statements[which], values))
            )
            assert actual == expected, (TEMPLATES[which], values, SCOPES[scope])
            assert _contents(passed) == _contents(bound), (TEMPLATES[which], values)


@pytest.fixture(scope="module")
def orders_gateway(tiny_tpch_data):
    """A fresh MT-H instance (this module writes to it) behind a gateway."""
    instance = load_mth(data=tiny_tpch_data, tenants=4, distribution="uniform")
    return instance, QueryGateway(instance.middleware)


def test_a_warm_prepared_update_adds_no_miss_and_no_write_plan(orders_gateway):
    instance, gateway = orders_gateway
    stats = instance.database.stats
    session = gateway.session(2)
    keys = [row[0] for row in session.query("SELECT o_orderkey FROM orders").rows[:20]]
    handle = session.prepare("UPDATE orders SET o_totalprice = ? WHERE o_orderkey = ?")

    def counts():
        return gateway.cache_stats.misses, stats.plans_prepared, stats.write_plans_prepared

    assert session.execute(handle, parameters=(1.0, keys[0])).rowcount == 1  # cold
    before = counts()
    for position, key in enumerate(keys):
        assert session.execute(handle, parameters=(100.0 + position, key)).rowcount == 1
    assert counts() == before
    read = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey IN ({})".format(
        ", ".join(map(str, keys))
    )
    assert sorted(session.query(read).rows) == sorted(
        (key, 100.0 + position) for position, key in enumerate(keys)
    )
    for change in (
        "CREATE TABLE memo_probe (a INTEGER NOT NULL)",
        "GRANT READ ON orders TO 3",
    ):
        session.execute(change)
        misses, prepared, written = counts()
        for key in keys[:3]:
            session.execute(handle, parameters=(5.0, key))
        assert counts() == (misses + 1, prepared, written + 1), change
