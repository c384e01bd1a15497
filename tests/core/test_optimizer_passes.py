"""The §4.2 optimization passes: push-up, aggregation distribution, inlining.

Every test checks two things: the structural effect on the rewritten SQL (the
optimization actually fired) and result equivalence with the canonical
rewrite (the optimization is semantics preserving).
"""

import pytest

from repro.compile import LEVEL_PASSES, applies_trivial
from repro.core.optimizer import (
    AggregationDistributionOptimizer,
    InliningOptimizer,
    PushUpOptimizer,
)
from repro.core.optimizer.levels import ALL_LEVELS, OptimizationLevel


def connections(middleware, levels=("canonical", "o2", "o3", "o4", "inl-only"), client=0, scope="IN (0, 1)"):
    for level in levels:
        connection = middleware.connect(client, optimization=level)
        connection.set_scope(scope)
        yield level, connection


def assert_levels_agree(middleware, sql, client=0, scope="IN (0, 1)"):
    reference = None
    for level, connection in connections(middleware, client=client, scope=scope):
        rows = connection.query(sql).rows
        if reference is None:
            reference = (level, rows)
            continue
        assert len(rows) == len(reference[1]), f"{level} row count differs from {reference[0]}"
        for expected, actual in zip(reference[1], rows):
            for left, right in zip(expected, actual):
                if isinstance(left, float) or isinstance(right, float):
                    assert float(left) == pytest.approx(float(right), rel=1e-6)
                else:
                    assert left == right, f"{level} differs from {reference[0]}"


class TestOptimizationLevels:
    def test_level_parsing(self):
        assert OptimizationLevel.from_name("o4") is OptimizationLevel.O4
        assert OptimizationLevel.from_name("INL-ONLY") is OptimizationLevel.INL_ONLY
        assert OptimizationLevel.from_name("inl_only") is OptimizationLevel.INL_ONLY
        # the error lists every valid level name (bench/CLI arg parsing relies
        # on the same list via OptimizationLevel.levels())
        with pytest.raises(ValueError, match="canonical, o1, o2, o3, o4, inl-only"):
            OptimizationLevel.from_name("o9")

    def test_levels_helper_lists_table_6_order(self):
        assert OptimizationLevel.levels() == (
            "canonical", "o1", "o2", "o3", "o4", "inl-only",
        )

    def test_pass_mapping_matches_table_6(self):
        assert LEVEL_PASSES[OptimizationLevel.CANONICAL] == ()
        assert LEVEL_PASSES[OptimizationLevel.O1] == ()
        assert LEVEL_PASSES[OptimizationLevel.O2] == (PushUpOptimizer,)
        assert LEVEL_PASSES[OptimizationLevel.O3] == (
            PushUpOptimizer, AggregationDistributionOptimizer,
        )
        assert LEVEL_PASSES[OptimizationLevel.O4] == (
            PushUpOptimizer, AggregationDistributionOptimizer, InliningOptimizer,
        )
        assert LEVEL_PASSES[OptimizationLevel.INL_ONLY] == (InliningOptimizer,)
        # the stage names explain() and pass_trace show
        assert [optimizer.name for optimizer in LEVEL_PASSES[OptimizationLevel.O4]] == [
            "pushup", "distribution", "inlining",
        ]
        # §4.1 is not a pass: every level but CANONICAL enables it as flags
        assert not applies_trivial(OptimizationLevel.CANONICAL)
        assert all(
            applies_trivial(level)
            for level in ALL_LEVELS
            if level is not OptimizationLevel.CANONICAL
        )
        assert set(LEVEL_PASSES) == set(ALL_LEVELS)
        assert len(ALL_LEVELS) == 6


class TestConversionPushUp:
    def test_constant_comparison_converts_the_constant(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="o2")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql(
            "SELECT E_name FROM Employees WHERE E_salary > 100000"
        )
        # the attribute is no longer converted; the constant is (Listing 15)
        assert "currencyToUniversal(E_salary" not in rewritten
        assert "currencyToUniversal(100000, 0)" in rewritten

    def test_attribute_to_attribute_comparison_in_universal_format(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="o2")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql(
            "SELECT E1.E_name FROM Employees E1, Employees E2 WHERE E1.E_salary > E2.E_salary"
        )
        # client presentation push-up drops the fromUniversal calls in the predicate
        where_clause = rewritten.split("WHERE", 1)[1]
        assert "currencyFromUniversal" not in where_clause.split("ORDER BY")[0]
        assert where_clause.count("currencyToUniversal") >= 2

    def test_phone_equality_with_constant_still_pushed(self, paper_mt_phone):
        connection = paper_mt_phone.connect(0, optimization="o2")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql(
            "SELECT E_name FROM Employees WHERE E_phone = '411555000'"
        )
        assert "phoneToUniversal('411555000', 0)" in rewritten

    def test_phone_inequality_not_pushed_not_order_preserving(self, paper_mt_phone):
        connection = paper_mt_phone.connect(0, optimization="o2")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql(
            "SELECT E_name FROM Employees WHERE E_phone > '411555000'"
        )
        # the attribute conversion must stay: phone conversion is not order preserving
        assert "phoneToUniversal(E_phone" in rewritten

    def test_between_pushed_for_order_preserving_pair(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="o2")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql(
            "SELECT E_name FROM Employees WHERE E_salary BETWEEN 60000 AND 90000"
        )
        assert "currencyToUniversal(E_salary" not in rewritten
        assert rewritten.count("currencyToUniversal(60000, 0)") == 1

    def test_pushup_preserves_results(self, paper_mt_session):
        assert_levels_agree(
            paper_mt_session,
            "SELECT E_name, E_salary FROM Employees WHERE E_salary > 100000 ORDER BY E_name",
        )
        assert_levels_agree(
            paper_mt_session,
            "SELECT E1.E_name FROM Employees E1, Employees E2 "
            "WHERE E1.E_salary > E2.E_salary AND E1.E_name < E2.E_name ORDER BY E1.E_name",
        )

    def test_scalar_subquery_treated_as_client_constant(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="o2")
        connection.set_scope("IN (0, 1)")
        sql = (
            "SELECT E_name FROM Employees WHERE E_salary > (SELECT AVG(E_salary) FROM Employees)"
        )
        rewritten = connection.rewrite_sql(sql)
        # the outer attribute is compared raw; the sub-query result is converted per tenant
        outer_where = rewritten.split("WHERE", 1)[1]
        assert "currencyToUniversal(E_salary, employees.E_ttid)" not in outer_where.split("(SELECT")[0]
        assert_levels_agree(paper_mt_session, sql + " ORDER BY E_name")


class TestAggregationDistribution:
    def test_sum_distributed_over_tenants(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="o3")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql("SELECT SUM(E_salary) AS total FROM Employees")
        # Listing 16 shape: inner per-tenant partials, outer combination
        assert "GROUP BY employees.E_ttid" in rewritten
        assert "currencyToUniversal(SUM(E_salary)" in rewritten
        assert "currencyFromUniversal(SUM(" in rewritten

    def test_avg_distributed_as_sum_over_count(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="o3")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql("SELECT AVG(E_salary) AS a FROM Employees")
        assert "SUM(mt_p0_sum) / SUM(mt_p0_cnt)" in rewritten

    def test_distribution_preserves_group_keys(self, paper_mt_session):
        sql = (
            "SELECT E_age, COUNT(*) AS c, SUM(E_salary) AS total, MIN(E_salary) AS lo, "
            "MAX(E_salary) AS hi, AVG(E_salary) AS mean FROM Employees "
            "GROUP BY E_age ORDER BY E_age"
        )
        connection = paper_mt_session.connect(0, optimization="o3")
        connection.set_scope("IN (0, 1)")
        assert "mt_part" in connection.rewrite_sql(sql)
        assert_levels_agree(paper_mt_session, sql)

    def test_phone_aggregation_not_distributed(self, paper_mt_phone):
        connection = paper_mt_phone.connect(0, optimization="o3")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql("SELECT MIN(E_phone) AS first_phone FROM Employees")
        # the phone pair is not order preserving: no distribution
        assert "mt_part" not in rewritten

    def test_count_distinct_not_distributed(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="o3")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql(
            "SELECT COUNT(DISTINCT E_salary) AS distinct_salaries FROM Employees"
        )
        assert "mt_part" not in rewritten

    def test_additive_argument_not_distributed(self, paper_mt_session):
        # salary - age is not a pure multiplicative use of the converted value
        connection = paper_mt_session.connect(0, optimization="o3")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql("SELECT SUM(E_salary - E_age) AS x FROM Employees")
        assert "mt_part" not in rewritten
        assert_levels_agree(paper_mt_session, "SELECT SUM(E_salary - E_age) AS x FROM Employees")

    def test_multiplicative_argument_distributed(self, paper_mt_session):
        sql = "SELECT SUM(E_salary * (1 - 0.1)) AS discounted FROM Employees"
        connection = paper_mt_session.connect(0, optimization="o3")
        connection.set_scope("IN (0, 1)")
        assert "mt_part" in connection.rewrite_sql(sql)
        assert_levels_agree(paper_mt_session, sql)

    def test_distribution_with_having_and_order(self, paper_mt_session):
        sql = (
            "SELECT E_reg_id, SUM(E_salary) AS total FROM Employees "
            "GROUP BY E_reg_id HAVING COUNT(*) >= 1 ORDER BY total DESC"
        )
        assert_levels_agree(paper_mt_session, sql)

    def test_global_aggregates_over_empty_input_keep_count_semantics(self, paper_mt_session):
        """Regression: COUNT over zero qualifying rows must stay 0 after distribution."""
        sql = (
            "SELECT COUNT(E_salary) AS c, SUM(E_salary) AS s, AVG(E_salary) AS a "
            "FROM Employees WHERE E_salary < 0"
        )
        for level in ("canonical", "o3", "o4"):
            connection = paper_mt_session.connect(0, optimization=level)
            connection.set_scope("IN (0, 1)")
            rows = connection.query(sql).rows
            assert rows == [(0, None, None)], level

    def test_distribution_reduces_conversion_calls(self, paper_mt_session):
        database = paper_mt_session.database
        sql = "SELECT SUM(E_salary) AS total FROM Employees"

        def run(level):
            connection = paper_mt_session.connect(0, optimization=level)
            connection.set_scope("IN (0, 1)")
            database.clear_function_caches()
            database.reset_stats()
            connection.query(sql)
            return database.stats.udf_calls

        canonical_calls = run("canonical")
        distributed_calls = run("o3")
        # canonical: 2 calls per employee (12); distributed: T + 1 = 3
        assert canonical_calls == 12
        assert distributed_calls == 3


class TestInlining:
    def test_conversion_calls_replaced_by_inline_expressions(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="inl-only")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql("SELECT E_salary FROM Employees")
        assert "currencyToUniversal" not in rewritten
        assert "mt_currency_rate_to_universal(employees.E_ttid)" in rewritten
        assert "mt_currency_rate_from_universal(0)" in rewritten

    def test_phone_inlining_uses_substring_and_concat(self, paper_mt_phone):
        connection = paper_mt_phone.connect(0, optimization="inl-only")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql("SELECT E_phone FROM Employees")
        assert "phoneToUniversal" not in rewritten
        assert "SUBSTRING" in rewritten and "CONCAT" in rewritten
        assert "mt_phone_prefix" in rewritten

    def test_o4_combines_distribution_and_inlining(self, paper_mt_session):
        connection = paper_mt_session.connect(0, optimization="o4")
        connection.set_scope("IN (0, 1)")
        rewritten = connection.rewrite_sql("SELECT SUM(E_salary) AS total FROM Employees")
        assert "mt_part" in rewritten
        assert "currencyToUniversal" not in rewritten
        assert "mt_currency_rate_to_universal" in rewritten

    def test_inlining_preserves_results(self, paper_mt_phone):
        assert_levels_agree(
            paper_mt_phone,
            "SELECT E_name, E_phone, E_salary FROM Employees ORDER BY E_name",
        )

    def test_every_level_agrees_on_a_mixed_query(self, paper_mt_session):
        assert_levels_agree(
            paper_mt_session,
            "SELECT E_reg_id, COUNT(*) AS c, AVG(E_salary) AS mean FROM Employees "
            "WHERE E_age >= 25 AND E_salary > 60000 GROUP BY E_reg_id ORDER BY E_reg_id",
        )

    def test_every_level_agrees_for_eur_client(self, paper_mt_session):
        assert_levels_agree(
            paper_mt_session,
            "SELECT SUM(E_salary) AS total FROM Employees WHERE E_age < 50",
            client=1,
        )
