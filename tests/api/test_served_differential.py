"""Served vs in-process row identity: the wire must not change a result.

All 22 MT-H queries run on {engine, sqlite, sharded:2}, once through the
middleware in-process and once through ``server://`` (column-major typed
pages, ``fetchmany`` paging) — the rows must be the same values of the same
Python types in the same order.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.mth import ALL_QUERY_IDS, query_text
from repro.server import serve

CLIENT = 1
SCOPE = "IN ()"


@pytest.fixture(
    scope="module", params=("tiny_mth_engine", "tiny_mth_sqlite", "tiny_mth_sharded")
)
def served(request):
    """(middleware, open server:// connection) for one backend family."""
    middleware = request.getfixturevalue(request.param).middleware
    with serve(middleware) as live:
        host, port = live.address
        with api.connect(
            f"server://{host}:{port}", client=CLIENT, optimization="o4", scope=SCOPE
        ) as connection:
            yield middleware, connection


def typed(rows):
    return [[(type(value), value) for value in row] for row in rows]


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_served_rows_are_identical_to_in_process_rows(served, query_id):
    middleware, connection = served
    local = middleware.connect(CLIENT, optimization="o4")
    local.set_scope(SCOPE)
    expected = local.query(query_text(query_id)).rows

    cursor = connection.cursor()
    cursor.execute(query_text(query_id))
    rows = []
    while page := cursor.fetchmany(7):
        rows.extend(page)
    assert typed(rows) == typed(expected), f"Q{query_id} differs over the wire"
    cursor.execute(query_text(query_id))
    assert typed(cursor.fetchall()) == typed(expected), f"Q{query_id} fetchall differs"
