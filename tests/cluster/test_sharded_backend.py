"""ShardedBackend behaviour: routing, replication, planning, protocol surface.

The MT-H-wide correctness grid lives in ``test_shard_invariance.py``; these
tests pin down the cluster mechanics on the paper's running example and on
small hand-built schemas.
"""

from __future__ import annotations

import pytest

from repro.backends import ShardedBackend, normalized_rows
from repro.cluster import (
    ExplicitPlacement,
    FederatedPlan,
    PartialAggregatePlan,
    RowStreamPlan,
    SingleShardPlan,
)
from repro.errors import ClusterError
from repro.sql.parser import parse_query


@pytest.fixture(scope="module")
def sharded_paper(paper_example_factory):
    """The running example on a 2-shard cluster with explicit placement."""
    backend = ShardedBackend(
        placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2)
    )
    return paper_example_factory(backend=backend), backend


class TestRoutingAndReplication:
    def test_tenant_rows_land_on_their_shard(self, sharded_paper):
        _mt, backend = sharded_paper
        connection = backend.connect()
        shard0, shard1 = connection.shard_connections
        # tenant 0 on shard 0, tenant 1 on shard 1 (3 employees each)
        assert shard0.table_rowcount("Employees") == 3
        assert shard1.table_rowcount("Employees") == 3
        assert connection.table_rowcount("Employees") == 6

    def test_global_tables_replicate(self, sharded_paper):
        _mt, backend = sharded_paper
        connection = backend.connect()
        for shard in connection.shard_connections:
            assert shard.table_rowcount("Regions") == 6
        # the logical count is one replica, not the sum
        assert connection.table_rowcount("Regions") == 6

    def test_integrity_holds_per_shard(self, sharded_paper):
        _mt, backend = sharded_paper
        assert backend.connect().check_integrity() == []

    def test_insert_routing_needs_literal_ttid(self, sharded_paper):
        _mt, backend = sharded_paper
        from repro.sql import ast

        connection = backend.connect()
        statement = ast.Insert(
            table="Employees",
            columns=(),
            rows=[tuple(ast.Column(name="$1") for _ in range(7))],
        )
        with pytest.raises(ClusterError, match="literal"):
            connection.execute(statement)


class TestQueryPlanning:
    def test_single_shard_fast_path_for_single_tenant_dataset(self, sharded_paper):
        mt, backend = sharded_paper
        connection = mt.connect(0, optimization="o4")
        connection.set_scope("IN (1)")
        result = connection.query("SELECT E_name, E_salary FROM Employees")
        plan = backend.connect().last_plan
        assert isinstance(plan, SingleShardPlan)
        assert plan.shard == 1  # tenant 1 lives on shard 1
        assert len(result.rows) == 3

    def test_global_only_query_runs_on_one_shard(self, sharded_paper):
        mt, backend = sharded_paper
        connection = mt.connect(0)
        connection.set_scope("IN ()")
        connection.query("SELECT Re_name FROM Regions")
        assert isinstance(backend.connect().last_plan, SingleShardPlan)

    def test_cross_tenant_row_stream_scatters(self, sharded_paper):
        mt, backend = sharded_paper
        connection = mt.connect(0, optimization="o4")
        connection.set_scope("IN ()")
        result = connection.query(
            "SELECT E_name, E_salary FROM Employees ORDER BY E_salary DESC LIMIT 4"
        )
        plan = backend.connect().last_plan
        assert isinstance(plan, RowStreamPlan)
        assert plan.shards == (0, 1)
        assert len(result.rows) == 4
        salaries = [row[1] for row in result.rows]
        assert salaries == sorted(salaries, reverse=True)

    def test_cross_tenant_aggregate_uses_partial_merge(self, sharded_paper):
        mt, backend = sharded_paper
        connection = mt.connect(0, optimization="o4")
        connection.set_scope("IN ()")
        result = connection.query(
            "SELECT E_reg_id, COUNT(*) AS heads, AVG(E_salary) AS pay "
            "FROM Employees GROUP BY E_reg_id ORDER BY E_reg_id"
        )
        assert isinstance(backend.connect().last_plan, PartialAggregatePlan)
        assert result.columns == ["E_reg_id", "heads", "pay"]
        assert sum(row[1] for row in result.rows) == 6

    def test_results_match_single_backend(self, sharded_paper, paper_example_factory):
        mt_sharded, _backend = sharded_paper
        mt_single = paper_example_factory()
        for scope in ("IN (0)", "IN (0, 1)"):
            for text in (
                "SELECT E_name, E_salary FROM Employees",
                "SELECT R_name, COUNT(*) AS n FROM Employees, Roles "
                "WHERE E_role_id = R_role_id GROUP BY R_name ORDER BY n DESC",
                "SELECT MAX(E_salary) FROM Employees",
            ):
                sharded_connection = mt_sharded.connect(0, optimization="o4")
                sharded_connection.set_scope(scope)
                single_connection = mt_single.connect(0, optimization="o4")
                single_connection.set_scope(scope)
                assert normalized_rows(sharded_connection.query(text)) == normalized_rows(
                    single_connection.query(text)
                ), (scope, text)

    @pytest.mark.parametrize(
        "clause, plan_class",
        [
            pytest.param("HAVING TRUE", PartialAggregatePlan, id="literal"),
            pytest.param("ORDER BY SUM(E_age)", PartialAggregatePlan, id="bound-text"),
            pytest.param("ORDER BY s DESC", PartialAggregatePlan, id="visible-alias"),
            pytest.param("HAVING SUM(E_age) > 10", PartialAggregatePlan, id="binary-op"),
            pytest.param(
                "ORDER BY ABS(SUM(E_age) - 100)", PartialAggregatePlan, id="function"
            ),
            pytest.param("ORDER BY -SUM(E_age)", PartialAggregatePlan, id="unary-op"),
            pytest.param(
                "ORDER BY CASE WHEN SUM(E_age) > 50 THEN 0 ELSE 1 END",
                PartialAggregatePlan,
                id="case",
            ),
            pytest.param(
                "HAVING SUM(E_age) IS NOT NULL", PartialAggregatePlan, id="is-null"
            ),
            pytest.param(
                "HAVING SUM(E_age) BETWEEN 0 AND 1000", PartialAggregatePlan, id="between"
            ),
            pytest.param("HAVING COUNT(*) IN (1, 2, 3)", PartialAggregatePlan, id="in-list"),
            pytest.param("HAVING MIN(E_name) LIKE 'A%'", FederatedPlan, id="like"),
            pytest.param(
                "HAVING EXTRACT(YEAR FROM DATE '1998-01-01') > 0",
                FederatedPlan,
                id="extract",
            ),
            pytest.param(
                "ORDER BY SUBSTRING(MIN(E_name) FROM 1 FOR 1)",
                FederatedPlan,
                id="substring",
            ),
            pytest.param(
                "HAVING SUM(E_age) > (SELECT MIN(Re_reg_id) FROM Regions)",
                FederatedPlan,
                id="sub-query",
            ),
            pytest.param("HAVING SUM(E_age) > ?", FederatedPlan, id="parameter"),
            pytest.param(
                "ORDER BY Employees.E_reg_id", FederatedPlan, id="qualified-column"
            ),
            pytest.param("ORDER BY E_age", FederatedPlan, id="non-alias-column"),
            pytest.param("ORDER BY MYSTERY(SUM(E_age))", FederatedPlan, id="unknown-function"),
        ],
    )
    def test_merge_query_residual_shapes(self, sharded_paper, clause, plan_class):
        """A HAVING / ORDER BY residual keeps the partial-aggregate plan only
        when the merge query can evaluate it; any other shape goes federated."""
        _mt, backend = sharded_paper
        select = parse_query(
            "SELECT E_reg_id, SUM(E_age) AS s FROM Employees GROUP BY E_reg_id " + clause
        )
        assert type(backend.connect().planner.plan(select, (0, 1))) is plan_class

    def test_star_query_keeps_every_column(self, sharded_paper, paper_example_factory):
        """A ``*`` has no width until a shard answers, so a star query plans
        federated and returns every column under its own name."""
        _mt, backend = sharded_paper
        connection = backend.connect()
        sql = "SELECT * FROM Employees ORDER BY E_age"
        result = connection.execute(sql)
        single = paper_example_factory().backend.execute(sql)
        assert isinstance(connection.last_plan, FederatedPlan)
        assert result.columns == single.columns
        assert [row[-1] for row in result.rows] == [row[-1] for row in single.rows]
        assert sorted(result.rows) == sorted(single.rows)

    def test_scatter_gather_off_forces_federated(self, paper_example_factory):
        backend = ShardedBackend(
            placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2),
            scatter_gather=False,
        )
        mt = paper_example_factory(backend=backend)
        connection = mt.connect(0, optimization="o4")
        connection.set_scope("IN ()")
        result = connection.query("SELECT COUNT(*) FROM Employees")
        assert isinstance(backend.connect().last_plan, FederatedPlan)
        assert result.scalar() == 6

    def test_complex_scope_resolves_across_shards(self, sharded_paper):
        mt, _backend = sharded_paper
        connection = mt.connect(0, optimization="o4")
        connection.set_scope('FROM Employees E WHERE E.E_salary >= 100000')
        # tenant 0's Alice (150k) and tenant 1's Nancy/Ed qualify in USD terms
        assert sorted(connection.dataset()) == [0, 1]


class TestDML:
    def test_dml_routes_and_matches_single_backend(self, paper_example_factory):
        backend = ShardedBackend(placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2))
        mt_sharded = paper_example_factory(backend=backend)
        mt_single = paper_example_factory()
        for mt in (mt_single, mt_sharded):
            connection = mt.connect(0, optimization="o4")
            connection.set_scope("IN (0)")
            assert connection.execute(
                "INSERT INTO Employees VALUES (7, 'Zoe', 1, 3, 42000, 33)"
            ).rowcount == 1
            assert connection.execute(
                "UPDATE Employees SET E_salary = 43000 WHERE E_name = 'Zoe'"
            ).rowcount == 1
            assert connection.execute("DELETE FROM Employees WHERE E_age > 40").rowcount == 1
        text = "SELECT E_name, E_salary, E_age FROM Employees"
        assert normalized_rows(mt_sharded.connect(0).query(text)) == normalized_rows(
            mt_single.connect(0).query(text)
        )
        assert mt_sharded.backend.check_integrity() == []

    def test_inserted_row_lands_on_owner_shard(self, paper_example_factory):
        backend = ShardedBackend(placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2))
        mt = paper_example_factory(backend=backend)
        connection = mt.connect(1, optimization="o4")
        connection.set_scope("IN (1)")
        connection.execute("INSERT INTO Employees VALUES (9, 'Ina', 1, 2, 50000, 40)")
        shard0, shard1 = backend.connect().shard_connections
        assert shard0.table_rowcount("Employees") == 3
        assert shard1.table_rowcount("Employees") == 4


class TestBackendSpecs:
    def test_create_backend_specs(self):
        from repro.backends import create_backend

        cluster = create_backend("sharded:3")
        assert len(cluster.shards) == 3
        assert cluster.shards[0].name == "engine"
        cluster.close()
        cluster = create_backend("sharded:2:sqlite")
        assert cluster.shards[0].name == "sqlite"
        cluster.close()

    def test_nested_sharding_rejected(self):
        from repro.backends import create_backend
        from repro.errors import BackendError

        with pytest.raises(BackendError, match="nest"):
            create_backend("sharded:2:sharded")

    def test_shard_count_conflict_rejected(self):
        with pytest.raises(ClusterError, match="contradicts"):
            ShardedBackend(shards=3, placement=ExplicitPlacement({1: 0}, shard_count=2))

    def test_stats_aggregate_over_shards(self, sharded_paper):
        mt, backend = sharded_paper
        connection = backend.connect()
        connection.reset_stats()
        client = mt.connect(0, optimization="o4")
        client.set_scope("IN ()")
        client.query("SELECT COUNT(*) FROM Employees")
        assert connection.stats.statements == 1  # one logical statement
        assert connection.aggregate_stats().statements >= 2  # fanned out


class TestClusterDMLGuards:
    def test_replicated_dml_reading_partitioned_tables_rejected(self, paper_example_factory):
        """A replica-diverging statement must refuse loudly, not corrupt."""
        backend = ShardedBackend(placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2))
        paper_example_factory(backend=backend)
        connection = backend.connect()
        with pytest.raises(ClusterError, match="diverge"):
            connection.execute(
                "DELETE FROM Regions WHERE Re_reg_id IN (SELECT E_reg_id FROM Employees)"
            )
        with pytest.raises(ClusterError, match="diverge"):
            connection.execute(
                "UPDATE Regions SET Re_name = 'X' "
                "WHERE Re_reg_id IN (SELECT E_reg_id FROM Employees)"
            )
        # plain replicated DML (no partitioned reads) still broadcasts fine
        result = connection.execute("UPDATE Regions SET Re_name = 'EU' WHERE Re_reg_id = 3")
        assert result.rowcount == 1
        for shard in connection.shard_connections:
            assert shard.query(
                "SELECT Re_name FROM Regions WHERE Re_reg_id = 3"
            ).scalar() == "EU"

    def test_partitioned_dml_with_colocated_subquery_allowed(self, paper_example_factory):
        backend = ShardedBackend(placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2))
        paper_example_factory(backend=backend)
        connection = backend.connect()
        result = connection.execute(
            "DELETE FROM Employees WHERE E_role_id IN "
            "(SELECT R_role_id FROM Roles WHERE R_name = 'intern')"
        )
        assert result.rowcount == 1  # tenant 1's Allan


class TestFederatedScratch:
    def test_ddl_created_sql_udf_meta_tables_synced(self, paper_example_factory):
        """CREATE FUNCTION ... LANGUAGE SQL bodies name meta tables the query
        text never references; federated execution must sync them too."""
        backend = ShardedBackend(
            placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2),
            scatter_gather=False,  # force the federated path
        )
        paper_example_factory(backend=backend)
        connection = backend.connect()
        connection.execute(
            "CREATE FUNCTION regio_rate (INTEGER) RETURNS DECIMAL(15,2) AS "
            "'SELECT CT_to_universal FROM CurrencyTransform WHERE CT_currency_key = $1' "
            "LANGUAGE SQL IMMUTABLE"
        )
        result = connection.query(
            "SELECT E_name, regio_rate(E_ttid) FROM Employees WHERE E_emp_id = 0"
        )
        assert isinstance(connection.last_plan, FederatedPlan)
        rates = {name: rate for name, rate in result.rows}
        assert rates["Patrick"] == 1.0 and rates["Allan"] == pytest.approx(1.1)

    def test_scratch_sync_memoized_until_mutation(self, paper_example_factory):
        """Repeated federated reads must not re-pull unchanged tables."""
        backend = ShardedBackend(
            placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2),
            scatter_gather=False,
        )
        mt = paper_example_factory(backend=backend)
        connection = backend.connect()
        client = mt.connect(0, optimization="o4")
        client.set_scope("IN ()")
        text = "SELECT COUNT(*) FROM Employees"
        assert client.query(text).scalar() == 6
        synced = dict(connection._scratch_state)
        assert "employees" in synced
        # warm repeat: the sync state is untouched (no delete + re-pull)
        scratch_statements_before = connection._scratch.stats.statements
        assert client.query(text).scalar() == 6
        assert connection._scratch_state == synced
        assert connection._scratch.stats.statements == scratch_statements_before + 1
        # a mutation invalidates exactly the touched table
        writer = mt.connect(1, optimization="o4")
        writer.set_scope("IN (1)")
        writer.execute("INSERT INTO Employees VALUES (8, 'Kim', 1, 2, 61000, 29)")
        assert "employees" not in connection._scratch_state
        assert client.query(text).scalar() == 7


class TestCrossShardDMLRejection:
    """Review regressions: DML whose per-shard evaluation diverges must refuse."""

    @pytest.fixture()
    def cluster(self, paper_example_factory):
        backend = ShardedBackend(placement=ExplicitPlacement({0: 0, 1: 1}, shard_count=2))
        paper_example_factory(backend=backend)
        return backend.connect()

    def test_partitioned_dml_with_cross_shard_subquery_rejected(self, cluster):
        with pytest.raises(ClusterError, match="cross-shard"):
            cluster.execute(
                "DELETE FROM Employees WHERE E_salary < "
                "(SELECT AVG(E_salary) FROM Employees)"
            )
        with pytest.raises(ClusterError, match="cross-shard"):
            cluster.execute(
                "UPDATE Employees SET E_age = 1 WHERE E_salary > "
                "(SELECT MAX(E_salary) FROM Employees) - 1"
            )

    def test_view_over_partitioned_table_blocks_replicated_dml(self, cluster):
        cluster.execute(
            "CREATE VIEW emp_regs AS SELECT E_reg_id FROM Employees"
        )
        with pytest.raises(ClusterError, match="diverge"):
            cluster.execute(
                "DELETE FROM Regions WHERE Re_reg_id IN (SELECT E_reg_id FROM emp_regs)"
            )

    def test_ttid_reassignment_rejected(self, cluster):
        with pytest.raises(ClusterError, match="partitioning column"):
            cluster.execute("UPDATE Employees SET E_ttid = 0 WHERE E_emp_id = 0")
