"""Acceptance: each statement is compiled exactly once end-to-end.

Three counters prove it:

* ``middleware.compiler.stats.compilations`` — full pipeline runs,
* ``planner.plans`` — cluster plans chosen (the shardability walk runs once
  per plan, against the cluster's own catalog),
* ``ShardedConnection.plan_reuses`` — plans served from the artifact's memo
  (a warm gateway hit re-executes without planning at all).
"""

from __future__ import annotations

import pytest

from repro.backends import ShardedBackend

from tests.conftest import build_paper_example

AGGREGATE_QUERY = (
    "SELECT E_reg_id, SUM(E_salary) AS total FROM Employees "
    "GROUP BY E_reg_id ORDER BY E_reg_id"
)
STREAM_QUERY = "SELECT E_name, E_salary FROM Employees ORDER BY E_name"


@pytest.fixture
def sharded_mt():
    backend = ShardedBackend(shards=2)
    mt = build_paper_example(backend=backend)
    yield mt
    backend.close()


class TestClusterPlansEachStatementOnce:
    def test_one_compilation_and_one_plan_per_statement(self, sharded_mt):
        backend = sharded_mt.backend
        connection = sharded_mt.connect(0, optimization="o4")
        connection.set_scope("IN (0, 1)")
        backend.reset_stats()
        sharded_mt.compiler.reset_stats()

        for sql in (AGGREGATE_QUERY, STREAM_QUERY):
            connection.query(sql)

        assert sharded_mt.compiler.stats.compilations == 2
        assert backend.planner.plans == 2

    def test_results_match_a_single_backend(self, sharded_mt, paper_mt):
        for sql in (AGGREGATE_QUERY, STREAM_QUERY):
            sharded = sharded_mt.connect(0, optimization="o4")
            sharded.set_scope("IN (0, 1)")
            single = paper_mt.connect(0, optimization="o4")
            single.set_scope("IN (0, 1)")
            assert sharded.query(sql).rows == single.query(sql).rows

    def test_backend_created_tables_still_scatter(self, sharded_mt):
        """Meta tables created behind the middleware's back are in the
        cluster's own catalog, so a statement over one still scatters instead
        of falling back to the federated path."""
        from repro.cluster import RowStreamPlan

        backend = sharded_mt.backend
        connection = sharded_mt.connect(0, optimization="o1")
        connection.set_scope("IN (0, 1)")
        sql = (
            "SELECT E_name, CT_currency_key FROM Employees, CurrencyTransform "
            "ORDER BY E_name, CT_currency_key"
        )
        rows = connection.query(sql).rows
        assert len(rows) == 12  # 6 employees × 2 currencies
        assert isinstance(backend.last_plan, RowStreamPlan)  # not federated

    def test_bare_statements_still_plan_soundly(self, sharded_mt):
        """Direct backend.execute() (no artifact, no column provenance)."""
        backend = sharded_mt.backend
        rewritten = sharded_mt.connect(0, optimization="o4")
        rewritten.set_scope("IN (0, 1)")
        plain = rewritten.rewrite(STREAM_QUERY)
        result = backend.execute(plain)
        assert len(result.rows) == 6


class TestWarmGatewayHitCompilesNothing:
    def test_zero_compilations_on_a_warm_hit(self, paper_mt):
        gateway = paper_mt.gateway(cache_size=32)
        try:
            session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
            cold = session.query(AGGREGATE_QUERY).rows
            compilations = paper_mt.compiler.stats.compilations
            warm = session.query(AGGREGATE_QUERY).rows
            assert warm == cold
            assert paper_mt.compiler.stats.compilations == compilations
            assert gateway.cache_stats.hits == 1
        finally:
            gateway.close()

    def test_warm_hit_skips_shard_planning_too(self, sharded_mt):
        backend = sharded_mt.backend
        gateway = sharded_mt.gateway(cache_size=32)
        try:
            session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
            backend.reset_stats()
            sharded_mt.compiler.reset_stats()

            cold = session.query(AGGREGATE_QUERY).rows
            assert sharded_mt.compiler.stats.compilations == 1
            assert backend.planner.plans == 1
            assert backend.plan_reuses == 0

            warm = session.query(AGGREGATE_QUERY).rows
            assert warm == cold
            # zero compilations, zero planner invocations: the plan came from
            # the artifact's memo
            assert sharded_mt.compiler.stats.compilations == 1
            assert backend.planner.plans == 1
            assert backend.plan_reuses == 1
        finally:
            gateway.close()

    def test_ddl_invalidates_artifact_and_plan_memo(self, sharded_mt):
        """A metadata change must force a fresh compilation *and* a fresh plan."""
        backend = sharded_mt.backend
        gateway = sharded_mt.gateway(cache_size=32)
        try:
            session = gateway.session(0, optimization="o4", scope="IN (0, 1)")
            session.query(AGGREGATE_QUERY)
            sharded_mt.execute_ddl(
                "CREATE TABLE Audit GLOBAL (A_id INTEGER NOT NULL)"
            )
            backend.reset_stats()
            sharded_mt.compiler.reset_stats()
            session.query(AGGREGATE_QUERY)
            assert sharded_mt.compiler.stats.compilations == 1  # recompiled
            assert backend.planner.plans == 1  # replanned
        finally:
            gateway.close()
