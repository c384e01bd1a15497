"""Streaming acceptance: first rows without materializing the result set.

The proof strategy is a counting UDF in the SELECT list: the projection runs
once per row of a *pulled batch* (one ``RowBatch`` of rows at a time), so if
``fetchmany`` returns the first rows while the counter is at most one batch
— far below the table's row count — the backend demonstrably did not materialize the
result.  Covered: the engine's lazy pipeline, SQLite's incremental cursor,
the cluster's single-shard fast path delegation, plus the
:class:`~repro.result.RowStream` container semantics and the lazy
``iter_dicts`` protocol.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.backends import EngineBackend, SQLiteBackend
from repro.engine import Database
from repro.errors import ExecutionError
from repro.result import QueryResult, RowStream

ROWS = 600


class _Probe:
    """A pass-through UDF counting how many rows were actually evaluated."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, value):
        self.calls += 1
        return value


def _loaded(connection) -> None:
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE t (a INTEGER NOT NULL)")
    cursor.executemany(
        "INSERT INTO t (a) VALUES (?)", [(index,) for index in range(ROWS)]
    )


BATCH = 64


def _small_batch_engine() -> EngineBackend:
    return EngineBackend(database=Database(batch_size=BATCH))


def test_engine_fetchmany_is_batch_bounded():
    backend = _small_batch_engine()
    probe = _Probe()
    backend.connect().register_python_function("probe", probe)
    with api.connect(backend) as connection:
        _loaded(connection)
        cursor = connection.cursor()
        cursor.execute("SELECT probe(a) FROM t")
        assert cursor.fetchmany(3) == [(0,), (1,), (2,)]
        # the engine's lazy pipeline evaluated at most one pulled batch
        assert probe.calls <= BATCH
        assert cursor.fetchall() == [(index,) for index in range(3, ROWS)]
        assert probe.calls == ROWS
        assert cursor.rowcount == ROWS


def test_engine_limit_stops_the_pull_early():
    backend = _small_batch_engine()
    probe = _Probe()
    backend.connect().register_python_function("probe", probe)
    with api.connect(backend) as connection:
        _loaded(connection)
        cursor = connection.cursor()
        cursor.execute("SELECT probe(a) FROM t LIMIT 5")
        assert cursor.fetchall() == [(index,) for index in range(5)]
        # LIMIT 5 touched at most one batch, not the 600-row table
        assert probe.calls <= BATCH


def test_sqlite_fetchmany_pulls_incremental_batches():
    backend = SQLiteBackend()
    try:
        probe = _Probe()
        backend.connect().register_python_function("probe", probe)
        with api.connect(backend.connect()) as connection:
            _loaded(connection)
            cursor = connection.cursor()
            cursor.execute("SELECT probe(a) FROM t")
            assert cursor.fetchmany(5) == [(index,) for index in range(5)]
            # one stream batch at most — far below the full table
            assert probe.calls < ROWS
            assert len(cursor.fetchall()) == ROWS - 5
    finally:
        backend.close()


def test_engine_barrier_shapes_still_stream_correct_rows():
    """ORDER BY/GROUP BY/DISTINCT materialize internally but replay fine."""
    with api.connect("engine") as connection:
        _loaded(connection)
        cursor = connection.cursor()
        cursor.execute("SELECT a FROM t ORDER BY a DESC LIMIT 4")
        assert cursor.fetchmany(2) == [(599,), (598,)]
        assert cursor.fetchall() == [(597,), (596,)]
        cursor.execute("SELECT COUNT(*) FROM t")
        assert cursor.fetchone() == (ROWS,)


def test_cluster_single_shard_path_delegates_the_stream(tiny_mth_sharded):
    """On a cluster, D' on one shard streams through that shard's backend."""
    from repro.cluster.planner import SingleShardPlan

    mth = tiny_mth_sharded
    gateway = mth.middleware.gateway()
    try:
        session = gateway.session(1, optimization="o4", scope="IN (1)")
        stream = session.execute_stream(
            "SELECT o_orderkey FROM orders WHERE o_totalprice > ?",
            parameters=(0.0,),
        )
        assert isinstance(stream, RowStream)
        first = stream.fetch()
        assert first is not None
        assert isinstance(mth.backend.last_plan, SingleShardPlan)
        stream.close()
        # scatter-gather shapes materialize but stay row-identical
        merged = session.execute_stream(
            "SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
            "WHERE l_quantity < ? GROUP BY l_returnflag",
            scope="IN ()",
            parameters=(30,),
        ).materialize()
        reference = session.query(
            "SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
            "WHERE l_quantity < 30 GROUP BY l_returnflag"
        )
        assert sorted(merged.rows) == sorted(reference.rows)
    finally:
        gateway.close()


# ---------------------------------------------------------------------------
# RowStream container semantics
# ---------------------------------------------------------------------------


def test_row_stream_fetch_and_materialize():
    stream = RowStream(["a"], iter([(1,), (2,), (3,)]))
    assert stream.fetch() == (1,)
    assert stream.fetchmany(5) == [(2,), (3,)]
    assert stream.fetch() is None  # exhaustion is not an error
    assert stream.rows_produced == 3


def test_row_stream_materialize_drains_the_remainder():
    stream = RowStream(["a", "b"], iter([(1, "x"), (2, "y")]))
    assert stream.fetch() == (1, "x")
    result = stream.materialize()
    assert isinstance(result, QueryResult)
    assert result.rows == [(2, "y")]


def test_row_stream_close_releases_and_blocks_reads():
    released = []
    stream = RowStream(["a"], iter([(1,)]), on_close=lambda: released.append(True))
    stream.close()
    assert released == [True]
    with pytest.raises(ExecutionError, match="closed"):
        stream.fetch()
    stream.close()  # idempotent, on_close fires once
    assert released == [True]


def test_column_access_protocol_without_rows():
    stream = RowStream(["A", "b"], iter(()))
    assert stream.column_index("a") == 0
    with pytest.raises(ExecutionError, match="no column"):
        stream.column_index("missing")


def test_iter_dicts_is_lazy_on_streams():
    def explode():
        yield (1,)
        raise AssertionError("second row must not be produced")

    stream = RowStream(["a"], explode())
    dicts = stream.iter_dicts()
    assert next(dicts) == {"a": 1}


def test_query_result_as_dicts_uses_the_shared_protocol():
    result = QueryResult(columns=["a", "b"], rows=[(1, 2)])
    assert result.as_dicts() == [{"a": 1, "b": 2}]
    assert list(result.iter_dicts()) == [{"a": 1, "b": 2}]
    assert result.column_index("B") == 1
