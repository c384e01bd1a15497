"""Correctness oracles: what every benchmark statement must return.

Nothing here goes through the layers under test (rewrite, gateway, engine,
cluster, wire).  Expected results come from two independent sources:

* :class:`BaselineOracle` — the paper's §5 validation: with C = 1 and D = all
  an MT-H query must equal the plain TPC-H query over the same generated
  data, here loaded single-tenant into **stdlib sqlite**;
* :class:`DataOracle` — expected rows computed in Python straight from the
  generated tuples (``MTHInstance.data``) and the customer→tenant
  assignment (``customer_tenants``).

An *expectation* is a small tuple ``(kind, *args)`` attached to each generated
statement; :func:`verify` resolves it against the observed outcome and
returns ``None`` or a one-line mismatch description.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional, Sequence

from repro.mth import conversions as conv
from repro.mth import load_tpch_baseline, query_text, results_match
from repro.result import QueryResult

#: relative tolerance for monetary values that went through a conversion
MONEY_TOLERANCE = 1e-6


def values_close(expected: Any, observed: Any, tolerance: float = MONEY_TOLERANCE) -> bool:
    """Exact for everything but floats, which compare relatively."""
    if isinstance(expected, float) or isinstance(observed, float):
        if expected is None or observed is None:
            return expected is observed
        scale = max(1.0, abs(expected), abs(observed))
        return abs(expected - observed) <= tolerance * scale
    return expected == observed


def rows_mismatch(
    expected: Sequence[tuple], observed: Sequence[tuple], ordered: bool = True
) -> Optional[str]:
    """``None`` when the row lists agree, else where they first differ."""
    if len(expected) != len(observed):
        return f"expected {len(expected)} rows, got {len(observed)}"
    if not ordered:
        expected = sorted(expected, key=repr)
        observed = sorted(observed, key=repr)
    for index, (want, got) in enumerate(zip(expected, observed)):
        if len(want) != len(got) or not all(
            values_close(left, right) for left, right in zip(want, got)
        ):
            return f"row {index}: expected {want!r}, got {got!r}"
    return None


class BaselineOracle:
    """The 22 plain TPC-H answers from a single-tenant sqlite load."""

    def __init__(self, data) -> None:
        baseline = load_tpch_baseline(data=data, backend="sqlite")
        try:
            self.results = {
                query_id: baseline.query(query_text(query_id))
                for query_id in range(1, 23)
            }
        finally:
            baseline.close()

    def expected(self, tenant: int, expectation: tuple):
        _kind, query_id = expectation
        return self.results[query_id]

    def mismatch(self, tenant: int, expectation: tuple, observed) -> Optional[str]:
        baseline = self.expected(tenant, expectation)
        return results_match(
            QueryResult(columns=list(baseline.columns), rows=list(observed)), baseline
        )


class DataOracle:
    """Expected rows computed from the generated tuples and tenant ownership.

    Column positions follow the *logical* row layout of ``TPCHData`` (no ttid
    column).  Monetary values are what the owner stored, i.e. the universal
    amount converted into the owner's currency by the loader.
    """

    def __init__(self, instance) -> None:
        data = instance.data
        self.tenants = instance.tenants
        self.customer_owner = {
            row[0]: ttid for row, ttid in zip(data.customer, instance.customer_tenants)
        }
        self.customers = {row[0]: row for row in data.customer}
        self.customers_of: dict[int, list[tuple]] = defaultdict(list)
        for row in data.customer:
            self.customers_of[self.customer_owner[row[0]]].append(row)
        self.orders = {row[0]: row for row in data.orders}
        self.order_owner = {row[0]: self.customer_owner[row[1]] for row in data.orders}
        self.orders_of: dict[int, list[tuple]] = defaultdict(list)
        for row in data.orders:
            self.orders_of[self.order_owner[row[0]]].append(row)
        self.lines_of_order: dict[int, list[tuple]] = defaultdict(list)
        self.lines_of: dict[int, list[tuple]] = defaultdict(list)
        for row in data.lineitem:
            self.lines_of_order[row[0]].append(row)
            self.lines_of[self.order_owner[row[0]]].append(row)
        self.lineitems = data.lineitem
        self.nations = {row[0]: row for row in data.nation}
        self._memo: dict[tuple, Any] = {}

    # -- money -----------------------------------------------------------------

    @staticmethod
    def stored(amount: float, owner: int) -> float:
        """What the owner's row holds for a universal (USD) amount."""
        return conv.money_from_universal(amount, owner)

    @staticmethod
    def seen_by(amount: float, owner: int, client: int) -> float:
        """An owner's stored amount as a cross-tenant read presents it to ``client``."""
        universal = DataOracle.stored(amount, owner) * conv.currency_for_tenant(owner).to_universal
        return universal * conv.currency_for_tenant(client).from_universal

    # -- expectations ------------------------------------------------------------

    def expected(self, tenant: int, expectation: tuple):
        """``(rows, ordered)`` for row expectations, an int for counts."""
        kind, *args = expectation
        if kind == "rowcount":  # literal expectations need no memo
            return args[0]
        if kind == "rows":
            return list(args[0]), (args[1] if len(args) > 1 else True)
        key = (tenant, expectation)
        if key not in self._memo:
            self._memo[key] = getattr(self, f"_expect_{kind}")(tenant, *args)
        return self._memo[key]

    def _expect_order(self, tenant, key):
        row = self.orders.get(key)
        if row is None or self.order_owner[key] != tenant:
            return [], True
        return [(row[0], row[1], row[2], self.stored(row[3], tenant), row[4])], True

    def _expect_customer(self, tenant, key):
        row = self.customers.get(key)
        if row is None or self.customer_owner[key] != tenant:
            return [], True
        return [(row[0], row[1], row[3], row[6], self.stored(row[5], tenant))], True

    def _expect_nation(self, tenant, key):
        row = self.nations[key]
        return [(row[1], row[2])], True

    def _expect_order_lines(self, tenant, key):
        if self.order_owner.get(key) != tenant:
            return [], True
        lines = sorted(self.lines_of_order[key], key=lambda row: row[3])
        return [
            (row[3], row[1], row[4], self.stored(row[5], tenant)) for row in lines
        ], True

    def _expect_status_count(self, tenant, status):
        return [(sum(1 for row in self.orders_of[tenant] if row[2] == status),)], True

    def _expect_priority_counts(self, tenant):
        counts: dict[str, int] = defaultdict(int)
        for row in self.orders_of[tenant]:
            counts[row[5]] += 1
        return sorted(counts.items()), True

    def _expect_shipped_between(self, tenant, first, last):
        lines = [row for row in self.lines_of[tenant] if first <= row[10] < last]
        total = float(sum(row[4] for row in lines)) if lines else None
        return [(len(lines), total)], True

    def _expect_q6(self, tenant, low, high, quantity):
        lines = [
            row
            for row in self.lines_of[tenant]
            if low <= row[6] <= high and row[4] < quantity
        ]
        if not lines:
            return [(None,)], True
        return [(sum(self.stored(row[5], tenant) * row[6] for row in lines),)], True

    def _expect_scan_lineitem(self, tenant):
        rows = [
            row[:5] + (self.stored(row[5], tenant),) + row[6:]
            for row in self.lines_of[tenant]
        ]
        return rows, False

    def _expect_scan_orders(self, tenant):
        rows = [
            row[:3] + (self.stored(row[3], tenant),) + row[4:]
            for row in self.orders_of[tenant]
        ]
        return rows, False

    def _expect_shipped_since(self, tenant, since):
        rows = [
            (row[0], self.seen_by(row[5], self.order_owner[row[0]], tenant), row[10])
            for row in self.lineitems
            if row[10] >= since
        ]
        return rows, False

    def mismatch(self, tenant: int, expectation: tuple, observed) -> Optional[str]:
        expected = self.expected(tenant, expectation)
        if isinstance(expected, int):
            if observed != expected:
                return f"expected {expected}, got {observed!r}"
            return None
        rows, ordered = expected
        if isinstance(observed, int):  # only the row count was kept
            if observed != len(rows):
                return f"expected {len(rows)} rows, got {observed}"
            return None
        return rows_mismatch(rows, observed, ordered=ordered)


def verify(oracle, tenant: int, expectation: tuple, observed) -> Optional[str]:
    """One statement's verdict: ``None`` or a one-line mismatch description."""
    if isinstance(observed, BaseException):
        return f"{type(observed).__name__}: {observed}"
    try:
        return oracle.mismatch(tenant, expectation, observed)
    except Exception as exc:  # noqa: BLE001 - an uncomparable answer is a wrong answer
        return f"uncomparable result ({type(exc).__name__}: {exc})"
