"""The 22 MT-H queries: parsing, rewriting and baseline execution."""

import pytest

from repro.mth import ALL_QUERY_IDS, CONVERSION_INTENSIVE, query_text
from repro.sql import ast
from repro.sql.parser import parse_query


class TestQueryDefinitions:
    def test_exactly_22_queries(self):
        assert ALL_QUERY_IDS == tuple(range(1, 23))

    def test_unknown_query_id_rejected(self):
        with pytest.raises(KeyError):
            query_text(23)

    def test_conversion_intensive_queries_match_the_figures(self):
        assert CONVERSION_INTENSIVE == (1, 6, 22)

    @pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
    def test_every_query_parses(self, query_id):
        query = parse_query(query_text(query_id))
        assert isinstance(query, ast.Select)
        assert query.items

    def test_q1_touches_only_lineitem(self):
        query = parse_query(query_text(1))
        assert [item.name for item in query.from_items] == ["lineitem"]

    def test_q13_uses_a_left_join(self):
        text = query_text(13).upper()
        assert "LEFT JOIN" in text


class TestQueriesOnBaseline:
    """All 22 queries run on the single-tenant TPC-H baseline and return data."""

    @pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
    def test_query_executes(self, tiny_baseline, query_id):
        result = tiny_baseline.query(query_text(query_id))
        assert result.columns

    @pytest.mark.parametrize("query_id", (1, 3, 6, 10, 12, 13, 14, 19, 22))
    def test_selective_queries_return_rows(self, tiny_baseline, query_id):
        result = tiny_baseline.query(query_text(query_id))
        assert len(result.rows) > 0

    def test_q1_aggregates_are_internally_consistent(self, tiny_baseline):
        result = tiny_baseline.query(query_text(1))
        for row in result.as_dicts():
            assert row["avg_qty"] == pytest.approx(row["sum_qty"] / row["count_order"], rel=1e-6)
            assert row["avg_price"] == pytest.approx(
                row["sum_base_price"] / row["count_order"], rel=1e-6
            )
            assert row["sum_disc_price"] <= row["sum_base_price"]
            assert row["sum_charge"] >= row["sum_disc_price"]

    def test_q1_covers_the_four_flag_status_groups(self, tiny_baseline):
        result = tiny_baseline.query(query_text(1))
        groups = {(row[0], row[1]) for row in result.rows}
        assert groups == {("A", "F"), ("N", "F"), ("N", "O"), ("R", "F")}

    def test_q6_revenue_matches_manual_computation(self, tiny_baseline, tiny_tpch_data):
        from repro.sql.types import Date

        low, high = Date(1994, 1, 1), Date(1995, 1, 1)
        expected = sum(
            item[5] * item[6]
            for item in tiny_tpch_data.lineitem
            if low <= item[10] < high and 0.05 <= item[6] <= 0.07 and item[4] < 24
        )
        result = tiny_baseline.query(query_text(6)).scalar()
        assert result == pytest.approx(expected, rel=1e-9)

    def test_q13_counts_all_customers(self, tiny_baseline, tiny_tpch_data):
        result = tiny_baseline.query(query_text(13))
        assert sum(row[1] for row in result.rows) == len(tiny_tpch_data.customer)

    def test_q22_customers_have_no_orders(self, tiny_baseline):
        # every counted customer must have no orders at all
        numcust = sum(row[1] for row in tiny_baseline.query(query_text(22)).rows)
        without_orders = tiny_baseline.query(
            "SELECT COUNT(*) AS c FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)"
        ).scalar()
        assert numcust <= without_orders


class TestQueriesThroughMiddleware:
    @pytest.mark.parametrize("query_id", (1, 6, 22))
    def test_conversion_intensive_queries_run_at_o4(self, tiny_mth, query_id):
        connection = tiny_mth.middleware.connect(1, optimization="o4")
        connection.set_scope("IN ()")
        result = connection.query(query_text(query_id))
        assert result.columns

    def test_rewritten_q1_contains_dataset_semantics(self, tiny_mth):
        connection = tiny_mth.middleware.connect(1, optimization="canonical")
        connection.set_scope("IN (1, 2)")
        rewritten = connection.rewrite_sql(query_text(1))
        assert "l_ttid IN (1, 2)" in rewritten
        assert "currencyFromUniversal" in rewritten

    def test_rewritten_q3_joins_on_ttid(self, tiny_mth):
        connection = tiny_mth.middleware.connect(1, optimization="canonical")
        connection.set_scope("IN ()")
        rewritten = connection.rewrite_sql(query_text(3))
        assert "customer.c_ttid = orders.o_ttid" in rewritten
        assert "lineitem.l_ttid = orders.o_ttid" in rewritten

    def test_o3_distributes_q1_aggregates(self, tiny_mth):
        connection = tiny_mth.middleware.connect(1, optimization="o3")
        connection.set_scope("IN ()")
        rewritten = connection.rewrite_sql(query_text(1))
        assert "mt_part" in rewritten
        assert "GROUP BY l_returnflag, l_linestatus, lineitem.l_ttid" in rewritten

    def test_d_filter_scales_with_dataset(self, tiny_mth):
        connection = tiny_mth.middleware.connect(1, optimization="o1")
        connection.set_scope("IN (2)")
        rewritten = connection.rewrite_sql(query_text(6))
        assert "l_ttid IN (2)" in rewritten
        connection.set_scope("IN ()")
        rewritten_all = connection.rewrite_sql(query_text(6))
        assert "l_ttid IN" not in rewritten_all  # trivial optimization: D = all tenants
