"""The staged compiler: per-level passes, CompiledQuery artifact, explain()."""

from __future__ import annotations

import pytest

from repro.compile import (
    LEVEL_PASSES,
    CompiledQuery,
    ExplainReport,
    QueryAnalysis,
    ShardabilityAnalyzer,
)
from repro.core.optimizer.levels import ALL_LEVELS, OptimizationLevel
from repro.errors import MTSQLError
from repro.sql.parser import parse_statement

CONVERSION_QUERY = "SELECT E_name FROM Employees WHERE E_salary > 100000"
AGGREGATE_QUERY = "SELECT SUM(E_salary) AS total FROM Employees"


def level_trace(level):
    """The stage names a compile at ``level`` records, per ``LEVEL_PASSES``."""
    return ("canonical",) + tuple(optimizer.name for optimizer in LEVEL_PASSES[level])


def connection_at(middleware, level, scope="IN (0, 1)", client=0):
    connection = middleware.connect(client, optimization=level)
    connection.set_scope(scope)
    return connection


@pytest.fixture(scope="module")
def sharded_paper_mt(paper_example_factory):
    """The running example on a 2-shard cluster (read-only)."""
    from repro.backends import ShardedBackend

    backend = ShardedBackend(shards=2)
    yield paper_example_factory(backend=backend)
    backend.close()


def cluster_analysis(middleware, level, sql):
    """The shardability analysis of ``sql``'s rewrite, as the cluster runs it:
    against the cluster's own catalog, with the compiler's column provenance."""
    compiled = connection_at(middleware, level).compile(sql)
    analyzer = ShardabilityAnalyzer(middleware.backend.catalog, compiled.facts.column_owners)
    return analyzer.analyze(compiled.rewritten)


class TestCompiledQuery:
    def test_artifact_carries_the_resolved_pipeline_state(self, paper_mt_session):
        connection = connection_at(paper_mt_session, "o4")
        compiled = connection.compile(CONVERSION_QUERY)
        assert isinstance(compiled, CompiledQuery)
        assert compiled.client == 0
        assert compiled.dataset == (0, 1)
        assert compiled.level is OptimizationLevel.O4
        assert compiled.tables == ("Employees",)
        # original / canonical / final stages are all retained
        assert "E_salary > 100000" in str_sql(compiled.statement)
        assert "currencyToUniversal" in str_sql(compiled.canonical)
        assert "currencyToUniversal" not in str_sql(compiled.rewritten)

    def test_pass_trace_matches_level_table_for_every_level(self, paper_mt_session):
        for level in ALL_LEVELS:
            connection = connection_at(paper_mt_session, level.value)
            compiled = connection.compile(CONVERSION_QUERY)
            assert compiled.pass_trace == level_trace(level), level

    def test_records_carry_timing_and_size_deltas(self, paper_mt_session):
        connection = connection_at(paper_mt_session, "o4")
        compiled = connection.compile(AGGREGATE_QUERY)
        for record in compiled.passes:
            assert record.seconds >= 0.0
            assert record.nodes_before > 0
            assert record.nodes_after > 0
            assert record.node_delta == record.nodes_after - record.nodes_before
        assert compiled.seconds >= sum(record.seconds for record in compiled.passes)

    def test_fired_rule_counts(self, paper_mt_session):
        connection = connection_at(paper_mt_session, "o4")
        compiled = connection.compile(CONVERSION_QUERY)
        fired = {record.name: record.fired for record in compiled.passes}
        # canonical emitted conversion wraps; push-up rewrote the comparison;
        # inlining replaced the remaining (pushed-up) conversion calls
        assert fired["canonical"] >= 1
        assert fired["pushup"] >= 1
        assert fired["inlining"] >= 1

    def test_conversion_census_shrinks_with_inlining(self, paper_mt_session):
        connection = connection_at(paper_mt_session, "o4")
        compiled = connection.compile(AGGREGATE_QUERY)
        assert compiled.conversions.canonical_total >= 2
        assert compiled.conversions.final_total == 0
        assert compiled.conversions.eliminated == compiled.conversions.canonical_total
        canonical_names = set(compiled.conversions.canonical)
        assert {"currencyToUniversal", "currencyFromUniversal"} <= canonical_names

    def test_analysis_reports_partitioning_and_local_keys(self, sharded_paper_mt):
        analysis = cluster_analysis(sharded_paper_mt, "o4", AGGREGATE_QUERY)
        assert isinstance(analysis, QueryAnalysis)
        assert analysis.partitioned == ("employees",)
        assert analysis.partition_safe
        assert analysis.has_aggregation

    def test_analysis_local_keys_name_the_tenant_local_columns(self, sharded_paper_mt):
        # the non-restructured query keeps Employees as the top-level binding
        analysis = cluster_analysis(sharded_paper_mt, "o2", CONVERSION_QUERY)
        assert "e_ttid" in analysis.local_keys["employees"]
        assert "e_emp_id" in analysis.local_keys["employees"]

    def test_snapshot_after_returns_stage_ast(self, paper_mt_session):
        connection = connection_at(paper_mt_session, "o4")
        compiled = connection.compile(CONVERSION_QUERY)
        canonical = compiled.snapshot_after("canonical")
        assert canonical is not None
        assert "currencyToUniversal" in str_sql(canonical)
        assert compiled.snapshot_after("no-such-stage") is None

    def test_each_statement_compiles_exactly_once_per_execution(self, paper_mt):
        connection = connection_at(paper_mt, "o4")
        paper_mt.compiler.reset_stats()
        connection.query(CONVERSION_QUERY)
        assert paper_mt.compiler.stats.compilations == 1
        # a direct (ungatewayed) connection compiles again per execution
        connection.query(CONVERSION_QUERY)
        assert paper_mt.compiler.stats.compilations == 2


class TestExplain:
    def test_explain_reports_every_level(self, paper_mt_session):
        for level in ALL_LEVELS:
            connection = connection_at(paper_mt_session, level.value)
            report = connection.explain(AGGREGATE_QUERY)
            assert isinstance(report, ExplainReport)
            assert report.pass_trace == level_trace(level)
            for record in report.compiled.passes:
                assert record.seconds >= 0.0
                assert record.nodes_after > 0
            text = report.render()
            assert f"level={level.value}" in text
            for stage in report.pass_trace:
                assert stage in text
                assert f"-- after {stage}" in text
            assert "conversion calls:" in text

    def test_explain_defaults_to_the_backend_dialect(self, paper_mt_session):
        connection = connection_at(paper_mt_session, "o4")
        report = connection.explain(AGGREGATE_QUERY)
        assert report.dialect is connection.backend.dialect

    def test_explain_render_without_sql(self, paper_mt_session):
        connection = connection_at(paper_mt_session, "o4")
        text = connection.explain(AGGREGATE_QUERY).render(include_sql=False)
        assert "-- after" not in text
        assert "canonical" in text
        # compile-only reports carry no execution section
        assert "execution profile" not in text

    def test_explain_analyze_reports_operator_profiles(self, paper_mt):
        """``analyze=True`` executes once and renders the per-operator
        execution profile next to the per-pass compile timings."""
        connection = connection_at(paper_mt, "o4")
        report = connection.explain(AGGREGATE_QUERY, analyze=True)
        assert report.operators is not None
        operators = {profile.operator for profile in report.operators}
        assert "scan+join" in operators
        for profile in report.operators:
            assert profile.rows >= 0 and profile.batches >= 1
            assert profile.seconds >= 0.0
        text = report.render(include_sql=False)
        assert "execution profile (one analyzed run):" in text
        assert "scan+join" in text
        # both cost sides are in one printout
        assert "stage" in text and "rows/batch" in text


class TestDialectArguments:
    def test_rewrite_sql_default_is_the_default_dialect(self, tiny_mth):
        from repro.mth.queries import query_text

        connection = tiny_mth.middleware.connect(1, optimization="o4")
        connection.set_scope("IN ()")
        text = query_text(1)
        assert connection.rewrite_sql(text) == connection.rewrite_sql(text, dialect="default")
        # "backend" on an engine-backed connection is the default dialect too
        assert connection.rewrite_sql(text) == connection.rewrite_sql(text, dialect="backend")

    def test_rewrite_sql_renders_in_the_requested_dialect(self, tiny_mth):
        from repro.mth.queries import query_text

        connection = tiny_mth.middleware.connect(1, optimization="o4")
        connection.set_scope("IN ()")
        text = query_text(1)  # DATE - INTERVAL arithmetic spells differently
        default_sql = connection.rewrite_sql(text)
        sqlite_sql = connection.rewrite_sql(text, dialect="sqlite")
        assert default_sql != sqlite_sql
        assert "INTERVAL" in default_sql
        assert "INTERVAL" not in sqlite_sql

    def test_unknown_dialect_name_raises(self, paper_mt_session):
        from repro.errors import SQLError

        connection = connection_at(paper_mt_session, "o4")
        with pytest.raises(SQLError, match="unknown SQL dialect"):
            connection.rewrite_sql(AGGREGATE_QUERY, dialect="oracle")

    def test_explain_accepts_dialect_objects(self, paper_mt_session):
        from repro.sql.dialect import SQLITE_DIALECT

        connection = connection_at(paper_mt_session, "o4")
        report = connection.explain(AGGREGATE_QUERY, dialect=SQLITE_DIALECT)
        assert report.dialect is SQLITE_DIALECT
        assert "dialect=sqlite" in report.render(include_sql=False)


def str_sql(node) -> str:
    from repro.sql.printer import to_sql

    return to_sql(node)


def test_compile_rejects_non_select(paper_mt_session):
    connection = connection_at(paper_mt_session, "o4")
    statement = parse_statement("DELETE FROM Employees WHERE E_age > 99")
    with pytest.raises(MTSQLError, match="SELECT"):
        connection.compile(statement)
