"""The MT-H data generator and tenant-share assignment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mth.conversions import (
    CURRENCIES,
    PHONE_FORMATS,
    currency_for_tenant,
    money_from_universal,
    money_to_universal,
    phone_format_for_tenant,
    phone_from_universal,
    phone_to_universal,
)
from repro.mth.dbgen import GeneratorSizes, generate
from repro.mth.tenancy import assign_tenants, share_summary, tenant_shares


class TestGenerator:
    @pytest.fixture(scope="class")
    def data(self):
        return generate(scale_factor=0.001, seed=42)

    def test_row_counts_follow_tpch_proportions(self, data):
        counts = data.row_counts()
        assert counts["region"] == 5
        assert counts["nation"] == 25
        assert counts["customer"] == 150
        assert counts["orders"] > counts["customer"]
        assert counts["lineitem"] > counts["orders"]
        assert counts["partsupp"] <= 4 * counts["part"]

    def test_generation_is_deterministic(self, data):
        again = generate(scale_factor=0.001, seed=42)
        assert again.lineitem == data.lineitem
        assert again.customer == data.customer

    def test_different_seeds_differ(self, data):
        other = generate(scale_factor=0.001, seed=43)
        assert other.lineitem != data.lineitem

    def test_orders_reference_existing_customers(self, data):
        custkeys = {row[0] for row in data.customer}
        assert all(order[1] in custkeys for order in data.orders)

    def test_lineitems_reference_existing_orders_parts_suppliers(self, data):
        orderkeys = {row[0] for row in data.orders}
        partkeys = {row[0] for row in data.part}
        suppkeys = {row[0] for row in data.supplier}
        for item in data.lineitem:
            assert item[0] in orderkeys
            assert item[1] in partkeys
            assert item[2] in suppkeys

    def test_order_total_price_consistent_with_lineitems(self, data):
        order = data.orders[0]
        items = [item for item in data.lineitem if item[0] == order[0]]
        total = sum(item[5] * (1 + item[7]) * (1 - item[6]) for item in items)
        assert order[3] == pytest.approx(total, rel=1e-6)

    def test_dates_within_tpch_range(self, data):
        from repro.sql.types import Date

        low, high = Date(1992, 1, 1), Date(1998, 12, 31)
        assert all(low <= order[4] <= high for order in data.orders)
        assert all(low <= item[10] <= high for item in data.lineitem[:200])

    def test_returnflag_consistent_with_receiptdate(self, data):
        from repro.sql.types import Date

        cutoff = Date(1995, 6, 17)
        for item in data.lineitem[:500]:
            if item[8] == "N":
                assert item[12] > cutoff
            else:
                assert item[12] <= cutoff

    def test_sizes_have_lower_bounds(self):
        sizes = GeneratorSizes.for_scale(0.000001)
        assert sizes.suppliers >= 20 and sizes.parts >= 50 and sizes.customers >= 30


class TestTenantShares:
    def test_uniform_shares_are_even(self):
        shares = tenant_shares(100, 10, "uniform")
        assert sum(shares) == 100
        assert max(shares) - min(shares) <= 1

    def test_zipf_shares_are_skewed_and_monotone(self):
        shares = tenant_shares(1000, 10, "zipf")
        assert sum(shares) == 1000
        assert shares[0] == max(shares)
        assert all(shares[i] >= shares[i + 1] for i in range(len(shares) - 1))

    def test_every_tenant_gets_at_least_one_record(self):
        shares = tenant_shares(50, 10, "zipf", s=2.0)
        assert min(shares) >= 1

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            tenant_shares(10, 2, "normal")
        with pytest.raises(ValueError):
            tenant_shares(10, 0)

    def test_assignment_length_and_range(self):
        assignment = assign_tenants(200, 7, "zipf")
        assert len(assignment) == 200
        assert set(assignment) <= set(range(1, 8))

    def test_share_summary(self):
        summary = share_summary(tenant_shares(100, 4))
        assert summary["tenants"] == 4 and summary["total"] == 100

    @settings(max_examples=60, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=5000),
        tenants=st.integers(min_value=1, max_value=64),
        distribution=st.sampled_from(["uniform", "zipf"]),
    )
    def test_shares_always_sum_to_total(self, total, tenants, distribution):
        shares = tenant_shares(total, tenants, distribution)
        assert sum(shares) == total
        assert len(shares) == tenants
        assert all(share >= 0 for share in shares)

    @settings(max_examples=40, deadline=None)
    @given(
        total=st.integers(min_value=1, max_value=2000),
        tenants=st.integers(min_value=1, max_value=50),
    )
    def test_assignment_matches_shares(self, total, tenants):
        shares = tenant_shares(total, tenants, "zipf")
        assignment = assign_tenants(total, tenants, "zipf")
        counted = [assignment.count(ttid) for ttid in range(1, tenants + 1)]
        assert counted == shares


class TestConversionHelpers:
    def test_tenant_1_gets_universal_formats(self):
        assert currency_for_tenant(1).code == "USD"
        assert phone_format_for_tenant(1).prefix == ""

    def test_assignment_is_deterministic(self):
        assert currency_for_tenant(17) is currency_for_tenant(17)
        assert phone_format_for_tenant(23) is phone_format_for_tenant(23)

    def test_money_round_trip(self):
        for ttid in (1, 2, 5, 42):
            assert money_to_universal(money_from_universal(123.45, ttid), ttid) == pytest.approx(
                123.45, rel=1e-3
            )

    def test_phone_round_trip(self):
        for ttid in (1, 2, 3, 9):
            universal = "13-555-111-2222"
            local = phone_from_universal(universal, ttid)
            assert phone_to_universal(local, ttid) == universal

    def test_currency_and_phone_tables_have_universal_entries(self):
        assert CURRENCIES[0].to_universal == 1.0
        assert PHONE_FORMATS[0].prefix == ""
