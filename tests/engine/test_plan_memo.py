"""Prepare once, run many: a statement's engine plan lives with its owner.

The owner is whatever holds the statement — a compiled artifact
(``compiled.attachments``) on one engine, the memoized cluster plan
(``plan.attachments``) for shard statements and merge queries.  The tests
pin that a warm gateway round prepares nothing but a federated query's
pull statements, that a memoized
plan is prepared again exactly when a fresh prepare could differ (DDL,
statistics, a new table version) and never returns stale rows, that runs
sharing one plan keep their sub-query results apart (threads, interleaved
streams), that bound-parameter statements stay out of the memo, and that a
plan dies with its owner.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.backends.engine import EngineConnection
from repro.cluster import FederatedPlan, PartialAggregatePlan, ShardCoordinator
from repro.engine import Database
from repro.errors import ExecutionError
from repro.mth import ALL_QUERY_IDS, generate, load_mth, query_text
from repro.result import QueryResult
from repro.sql import ast
from repro.sql.parser import parse_query
from repro.sql.transform import split_partial_aggregates
from tests.conftest import kernel_leg
from tests.engine.test_table_versions import _database, _inject

#: an uncorrelated scalar sub-query (one run per execution) and an IN list
SUBQUERY = (
    "SELECT id FROM t WHERE a > (SELECT AVG(a) FROM t WHERE b = 3)"
    " AND b IN (SELECT b FROM t WHERE id < 5)"
)


class _Owner:
    """The smallest plan owner: a memo space, like an artifact's."""

    def __init__(self):
        self.attachments: dict = {}


def _engine_plans(attachments: dict) -> list:
    return [key for key in attachments if key[0] == "engine-plan"]


def _run(database: Database, statement, owner: _Owner) -> list:
    return database.query(statement, plans=owner.attachments).rows


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=0.001)


# ---------------------------------------------------------------------------
# warm rounds prepare nothing
# ---------------------------------------------------------------------------


def _round(session) -> list:
    return [session.query(query_text(query_id)).rows for query_id in ALL_QUERY_IDS]


def test_a_warm_gateway_round_prepares_nothing_on_the_engine(data):
    instance = load_mth(data=data, tenants=4)
    gateway = instance.middleware.gateway(cache_size=64)
    session = gateway.session(1, optimization="o4")
    stats = instance.database.stats
    try:
        cold = _round(session)
        prepared = stats.plans_prepared
        assert prepared >= len(ALL_QUERY_IDS)
        assert _round(session) == cold
        assert stats.plans_prepared == prepared
    finally:
        session.close()
        gateway.close()


def test_a_warm_gateway_round_prepares_nothing_on_shards_or_the_merge_engine(data):
    """Only a federated query's scratch syncs prepare on the shards in a
    warm round: its pull statements are built afresh for each sync."""
    instance = load_mth(data=data, tenants=4, shards=4)
    connection = instance.middleware.backend
    merge_stats = connection.coordinator.merge_database.stats
    gateway = instance.middleware.gateway(cache_size=64)
    session = gateway.session(1, optimization="o4", scope="IN ()")

    def shard_prepares() -> list:
        return [shard.stats.plans_prepared for shard in connection.shard_connections]

    try:
        cold = _round(session)
        merges = merge_stats.plans_prepared
        assert all(shard_prepares()) and merges > 0
        federated = 0
        for query_id, rows in zip(ALL_QUERY_IDS, cold):
            before = shard_prepares()
            assert session.query(query_text(query_id)).rows == rows
            if isinstance(connection.last_plan, FederatedPlan):
                federated += 1
            else:
                assert shard_prepares() == before, query_id
        assert federated == 4
        assert merge_stats.plans_prepared == merges
    finally:
        session.close()
        gateway.close()


# ---------------------------------------------------------------------------
# reuse conditions
# ---------------------------------------------------------------------------


class TestReuse:
    def test_a_warm_run_reuses_the_plan(self):
        database = _database()
        owner, statement = _Owner(), parse_query(SUBQUERY)
        first = _run(database, statement, owner)
        assert _run(database, statement, owner) == first
        assert database.stats.plans_prepared == 1
        assert len(_engine_plans(owner.attachments)) == 1

    def test_a_write_between_two_runs_is_seen(self, monkeypatch):
        """The in-flight run answers from the version its scan pinned, the
        next run from the write's version — through one re-prepare."""
        database = _database()
        owner = _Owner()
        statement = parse_query("SELECT id FROM t WHERE b = 3 AND a > 10")
        assert [row[0] for row in _run(database, statement, owner)] == [13, 23, 33]
        fired = _inject(monkeypatch, database, "column_array", 1, "DELETE FROM t WHERE id < 20")
        with kernel_leg("generic"):  # conjunct 2 reads column_array, the seam
            assert [row[0] for row in _run(database, statement, owner)] == [13, 23, 33]
        assert fired == ["DELETE FROM t WHERE id < 20"]
        assert database.stats.plans_prepared == 1
        assert [row[0] for row in _run(database, statement, owner)] == [23, 33]
        assert database.stats.plans_prepared == 2

    @pytest.mark.parametrize(
        "change",
        [
            "CREATE TABLE u (x INTEGER)",
            "CREATE VIEW w AS SELECT id FROM t",
            "INSERT INTO t VALUES (99, 1, 3)",
            "UPDATE t SET a = a + 1 WHERE id = 1",
            "DELETE FROM t WHERE id = 35",
        ],
    )
    def test_ddl_or_a_new_table_version_prepares_once_more(self, change):
        database = _database()
        owner, statement = _Owner(), parse_query(SUBQUERY)
        _run(database, statement, owner)
        database.execute(change)
        expected = database.query(SUBQUERY).rows  # fresh, unmemoized
        prepared = database.stats.plans_prepared
        assert _run(database, statement, owner) == expected
        assert _run(database, statement, owner) == expected
        assert database.stats.plans_prepared == prepared + 1

    def test_a_statistics_refresh_prepares_once_more(self):
        database = _database()
        owner, statement = _Owner(), parse_query("SELECT id FROM t WHERE id < 3")
        _run(database, statement, owner)
        _run(database, statement, owner)
        assert database.stats.plans_prepared == 1
        database.collect_statistics()
        _run(database, statement, owner)
        _run(database, statement, owner)
        assert database.stats.plans_prepared == 2

    def test_a_write_to_an_unscanned_table_keeps_the_plan(self):
        database = _database()
        database.execute("CREATE TABLE u (x INTEGER)")
        owner, statement = _Owner(), parse_query(SUBQUERY)
        _run(database, statement, owner)
        database.execute("INSERT INTO u VALUES (1)")
        _run(database, statement, owner)
        assert database.stats.plans_prepared == 1

    def test_a_view_reads_its_tables_versions(self):
        database = _database()
        database.execute("CREATE VIEW v AS SELECT id, a FROM t WHERE b = 3")
        owner, statement = _Owner(), parse_query("SELECT COUNT(*) FROM v")
        assert _run(database, statement, owner) == [(4,)]
        database.execute("DELETE FROM t WHERE id = 3")
        assert _run(database, statement, owner) == [(3,)]
        assert database.stats.plans_prepared == 2

    def test_an_executor_keys_its_own_plan(self):
        """One owner, two engines: each keeps its own entry."""
        first, second = _database(), _database()
        second.execute("DELETE FROM t WHERE id > 20")
        owner, statement = _Owner(), parse_query("SELECT COUNT(*) FROM t")
        for _ in range(2):
            assert _run(first, statement, owner) == [(36,)]
            assert _run(second, statement, owner) == [(21,)]
        assert len(_engine_plans(owner.attachments)) == 2
        assert first.stats.plans_prepared == second.stats.plans_prepared == 1


# ---------------------------------------------------------------------------
# runs sharing one plan
# ---------------------------------------------------------------------------


class TestSharedRuns:
    def test_two_threads_on_one_plan_return_the_single_thread_rows(self):
        database = _database()
        owner, statement = _Owner(), parse_query(SUBQUERY)
        expected = _run(database, statement, owner)
        answers: list = []
        errors: list = []

        def reader():
            try:
                for _ in range(200):
                    answers.append(_run(database, statement, owner))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(answers) == 400 and all(answer == expected for answer in answers)
        assert database.stats.plans_prepared == 1

    def test_interleaved_streams_keep_their_own_sub_query_results(self):
        """Two streams of one plan; a write lands after the first pulled a
        batch.  The first stream keeps its sub-query result and its pinned
        scan, the second computes both on the new version."""
        database = Database(batch_size=3)
        database.execute("CREATE TABLE t (id INTEGER NOT NULL, a INTEGER NOT NULL)")
        database.insert_rows("t", [(i, i) for i in range(12)])
        owner = _Owner()
        sql = "SELECT id FROM t WHERE a >= (SELECT AVG(a) FROM t)"
        statement = parse_query(sql)
        before = database.query(sql).rows
        first = database.execute_stream(statement, plans=owner.attachments)
        second = database.execute_stream(statement, plans=owner.attachments)
        assert database.stats.plans_prepared == 2  # the unmemoized query, one stream plan
        rows_first = [first.fetch()]
        database.execute("UPDATE t SET a = a + 100 WHERE id < 2")
        after = database.query(sql).rows
        assert after != before
        assert list(second) == after
        rows_first.extend(first)
        assert rows_first == before

    def test_a_merge_plan_binds_each_gather(self):
        """One merge query, prepared once, merges whatever rows each run
        gathered (the rows ride in the run, not in the plan)."""

        class Shard:
            def __init__(self):
                self.rows = []

            def execute_scoped(self, statement, dataset=None, parameters=None, compiled=None):
                return QueryResult(columns=[], rows=list(self.rows))

        shards = [Shard(), Shard()]
        coordinator = ShardCoordinator(shards)
        statement = parse_query("SELECT g, SUM(x) FROM t GROUP BY g ORDER BY g")
        plan = PartialAggregatePlan(
            shards=(0, 1), split=split_partial_aggregates(statement), statement=statement
        )
        try:
            shards[0].rows, shards[1].rows = [("a", 1)], [("a", 2), ("b", 5)]
            assert coordinator.execute(plan).rows == [("a", 3), ("b", 5)]
            shards[0].rows, shards[1].rows = [("c", 7)], []
            assert coordinator.execute(plan).rows == [("c", 7)]
        finally:
            coordinator.close()
        assert coordinator.merge_database.stats.plans_prepared == 1


    def test_an_inline_relation_scans_only_the_rows_its_run_binds(self):
        select = parse_query("SELECT x FROM placeholder")
        select.from_items = [ast.RowsRef(columns=("x",), alias="r")]
        database = Database()
        assert database.query(select, relations={"r": [(1,), (2,)]}).rows == [(1,), (2,)]
        with pytest.raises(ExecutionError, match="not bound"):
            database.query(select)


# ---------------------------------------------------------------------------
# writes and UDF bodies keep a run's sub-query results for the run
# ---------------------------------------------------------------------------


def _with_side_tables() -> Database:
    """``t`` (36 rows) plus ``s`` (``k`` = 0..35, ``v`` = ``k % 4``) and
    ``u`` holding the values 1 and 2."""
    database = _database()
    database.execute("CREATE TABLE s (k INTEGER, v INTEGER)")
    database.execute("CREATE TABLE u (v INTEGER)")
    database.insert_rows("s", [(k, k % 4) for k in range(36)])
    database.insert_rows("u", [(1,), (2,)])
    return database


@pytest.mark.parametrize("write", ["UPDATE t SET a = a + 1", "DELETE FROM t"])
def test_a_writes_uncorrelated_sub_query_runs_once(write):
    """The correlated EXISTS runs once per row of ``t``; the uncorrelated
    IN list inside it runs once for the whole statement."""
    database = _with_side_tables()
    before = database.stats.subquery_runs
    result = database.execute(
        write + " WHERE EXISTS (SELECT 1 FROM s WHERE s.k = t.id"
        " AND s.v IN (SELECT v FROM u))"
    )
    assert result.rowcount == 18
    assert database.stats.subquery_runs - before == 36 + 1


def test_a_udf_bodys_sub_query_runs_once_per_statement_and_sees_writes():
    database = _with_side_tables()
    database.register_sql_function("bump", "SELECT $1 + (SELECT MAX(v) FROM u)")
    before = database.stats.subquery_runs
    assert database.execute("UPDATE t SET a = bump(a) WHERE id < 3").rowcount == 3
    assert database.stats.subquery_runs - before == 3 + 1  # three bodies, one MAX
    assert database.query("SELECT a FROM t WHERE id < 3").rows == [(2,), (3,), (4,)]
    database.execute("INSERT INTO u VALUES (10)")
    assert database.query("SELECT bump(a) FROM t WHERE id = 0").rows == [(12,)]


# ---------------------------------------------------------------------------
# bound parameters skip the memo
# ---------------------------------------------------------------------------


def test_bound_parameter_statements_never_enter_the_memo():
    database = _database()
    connection = EngineConnection(database)
    owner = _Owner()
    statement = parse_query("SELECT id FROM t WHERE a = $1")
    for value in (3, 4, 3):
        result = connection.execute_scoped(statement, parameters=[value], compiled=owner)
        assert result.rows == [(value,)]
        stream = connection.execute_stream(statement, parameters=[value], compiled=owner)
        assert list(stream) == [(value,)]
    assert owner.attachments == {}
    assert database.stats.plans_prepared == 6


def test_bound_parameter_statements_skip_the_memo_on_a_cluster(data):
    instance = load_mth(data=data, tenants=4, shards=2)
    connection = instance.middleware.backend
    gateway = instance.middleware.gateway(cache_size=64)
    session = gateway.session(1, optimization="o4", scope="IN ()")
    sql = "SELECT COUNT(*) FROM orders WHERE o_totalprice > ?"
    try:
        for value in (1000.0, 2000.0, 1000.0):
            session.query(sql, parameters=[value])
        plan = connection.last_plan
        assert isinstance(plan, PartialAggregatePlan)
        assert _engine_plans(plan.attachments) == []
        assert connection.coordinator.merge_database.stats.plans_prepared == 3
    finally:
        session.close()
        gateway.close()


# ---------------------------------------------------------------------------
# memory: a plan lives as long as its owner
# ---------------------------------------------------------------------------


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_a_second_warm_round_adds_few_tracked_objects(data):
    instance = load_mth(data=data, tenants=4)
    gateway = instance.middleware.gateway(cache_size=64)
    session = gateway.session(1, optimization="o4")
    try:
        _round(session)
        _round(session)
        warm = _tracked_objects()
        _round(session)
        assert _tracked_objects() - warm < 500
    finally:
        session.close()
        gateway.close()


def test_a_dropped_artifacts_plan_is_freed(data):
    instance = load_mth(data=data, tenants=4)
    gateway = instance.middleware.gateway(cache_size=64)
    session = gateway.session(1, optimization="o4")
    try:
        session.query(query_text(6))
        (plan,) = [
            entry[0]
            for compiled in gateway.cache._plans.values()
            for key, entry in compiled.attachments.items()
            if key[0] == "engine-plan"
        ]
        dropped = weakref.ref(plan)
        del plan
        gateway.invalidate_cache("test")
        gc.collect()
        assert dropped() is None
    finally:
        session.close()
        gateway.close()
