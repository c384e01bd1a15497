"""§5 query validation: MT-H (C=1, D=all) must equal plain TPC-H, per level.

This is the repository's main integration test: every MT-H query is executed
through the full middleware pipeline (scope resolution, privilege pruning,
canonical rewrite, optimization passes, engine execution) at every
optimization level and compared against the single-tenant baseline running
the identical SQL text on the identical generated data.
"""

import pytest

from repro.mth import ALL_QUERY_IDS, query_text, validate_queries
from repro.mth.validation import ValidationReport, normalize_value, results_match

LEVELS = ("canonical", "o1", "o2", "o3", "o4", "inl-only")


@pytest.fixture(scope="module", params=LEVELS)
def validated_connection(request, tiny_mth):
    connection = tiny_mth.middleware.connect(1, optimization=request.param)
    connection.set_scope("IN ()")
    return request.param, connection


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_query_matches_baseline(validated_connection, tiny_baseline, query_id):
    level, connection = validated_connection
    text = query_text(query_id)
    mismatch = results_match(connection.query(text), tiny_baseline.query(text))
    assert mismatch is None, f"Q{query_id} at {level}: {mismatch}"


class TestValidationHarness:
    def test_validate_queries_reports_success(self, tiny_mth, tiny_baseline):
        connection = tiny_mth.middleware.connect(1, optimization="o4")
        connection.set_scope("IN ()")
        report = validate_queries(connection, tiny_baseline, query_ids=(1, 6, 22))
        assert report.ok
        assert report.passed == [1, 6, 22]
        assert "3 queries validated" in report.summary()

    def test_validation_detects_mismatches(self, tiny_mth, tiny_baseline):
        connection = tiny_mth.middleware.connect(2, optimization="o4")  # EUR-like client
        connection.set_scope("IN ()")
        report = validate_queries(connection, tiny_baseline, query_ids=(1,))
        # a non-universal client sees converted values: results must differ
        assert not report.ok
        assert 1 in report.failed
        assert "failures" in report.summary()

    def test_results_match_detects_row_count_difference(self, tiny_baseline):
        small = tiny_baseline.query("SELECT n_name FROM nation LIMIT 3")
        large = tiny_baseline.query("SELECT n_name FROM nation LIMIT 5")
        assert "row count differs" in results_match(small, large)

    def test_results_match_detects_value_difference(self, tiny_baseline):
        first = tiny_baseline.query("SELECT 1 AS x")
        second = tiny_baseline.query("SELECT 2 AS x")
        assert "column 0" in results_match(first, second)

    def test_results_match_tolerates_rounding(self, tiny_baseline):
        first = tiny_baseline.query("SELECT 100.000001 AS x")
        second = tiny_baseline.query("SELECT 100.0 AS x")
        assert results_match(first, second) is None

    def test_normalize_value(self):
        from repro.sql.types import date_from_string

        assert normalize_value(1.23456) == 1.23
        assert normalize_value(date_from_string("1994-01-01")) == "1994-01-01"
        assert normalize_value("text") == "text"

    def test_report_dataclass(self):
        report = ValidationReport(passed=[1, 2], failed={})
        assert report.ok


class TestDifferentWorkloadShapes:
    """Validation holds for a zipfian share distribution and more tenants too."""

    def test_zipf_distribution_still_validates(self, tiny_tpch_data):
        from repro.mth import load_mth, load_tpch_baseline

        mth = load_mth(data=tiny_tpch_data, tenants=7, distribution="zipf")
        baseline = load_tpch_baseline(data=tiny_tpch_data)
        connection = mth.middleware.connect(1, optimization="o4")
        connection.set_scope("IN ()")
        report = validate_queries(connection, baseline, query_ids=(1, 3, 6, 13, 18, 22))
        assert report.ok, report.summary()

    def test_single_tenant_instance_validates(self, tiny_tpch_data):
        from repro.mth import load_mth, load_tpch_baseline

        mth = load_mth(data=tiny_tpch_data, tenants=1)
        baseline = load_tpch_baseline(data=tiny_tpch_data)
        connection = mth.middleware.connect(1, optimization="o4")
        connection.set_scope("IN ()")
        report = validate_queries(connection, baseline, query_ids=(1, 6, 22))
        assert report.ok, report.summary()

    def test_system_c_profile_validates(self, tiny_tpch_data):
        from repro.mth import load_mth, load_tpch_baseline

        mth = load_mth(data=tiny_tpch_data, tenants=4, profile="system_c")
        baseline = load_tpch_baseline(data=tiny_tpch_data, profile="system_c")
        connection = mth.middleware.connect(1, optimization="canonical")
        connection.set_scope("IN ()")
        report = validate_queries(connection, baseline, query_ids=(1, 6, 22))
        assert report.ok, report.summary()

    def test_subset_dataset_returns_subset_of_rows(self, tiny_mth):
        all_connection = tiny_mth.middleware.connect(1, optimization="o4")
        all_connection.set_scope("IN ()")
        one_connection = tiny_mth.middleware.connect(1, optimization="o4")
        one_connection.set_scope("IN (1)")
        total = all_connection.query(
            "SELECT COUNT(*) AS c FROM lineitem"
        ).scalar()
        own = one_connection.query("SELECT COUNT(*) AS c FROM lineitem").scalar()
        assert 0 < own < total
