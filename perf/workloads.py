"""The five workloads: what is loaded, what each client sends, and why.

A workload turns ``--seed`` into per-thread **scripts** before the clock
starts: lists of :class:`Unit` (one client identity, a few statements), each
statement an :class:`Op` carrying its SQL text, bind values and the
*expectation* :mod:`perf.check` verifies.  The program under test only ever
sees the generated statements and bind values.

The database content is fixed (``DATA_SEED``); the seed varies what clients
ask — shuffles, tenant visits, keys, bind values and the write mix — so runs
with different seeds stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.api import Date
from repro.mth import ALL_QUERY_IDS, load_mth, query_text

from .check import BaselineOracle, DataOracle

#: seed of the generated TPC-H data, identical for every run
DATA_SEED = 20180326
#: rows per FETCH page on the paging templates
PAGE = 256


@dataclass(frozen=True)
class Scale:
    """Data size and how often set-up is repeated for its median."""

    name: str
    scale_factor: float
    setups: int


SCALES = {
    "full": Scale("full", 0.01, setups=3),
    "smoke": Scale("smoke", 0.001, setups=1),
}


@dataclass(frozen=True)
class Op:
    """One statement: ``fetch`` is ``"all"`` (fetchall), ``"pages"``
    (fetchmany(PAGE) until drained) or ``"none"`` (DML, rowcount kept);
    ``keep_rows`` false keeps only the row count of a big result."""

    template: str
    sql: str
    params: Optional[tuple]
    fetch: str
    expect: tuple
    keep_rows: bool = True


@dataclass(frozen=True)
class Unit:
    """Statements one client identity sends back to back.

    ``visit`` units open their own connection (connect + HELLO) and close it
    afterwards; the others reuse one connection per ``(tenant, scope)`` that
    was opened before the clock started.  ``effect`` is what the unit does to
    the oracle's model of the data (``rw-engine`` only).
    """

    tenant: int
    scope: Optional[str]
    ops: tuple
    visit: bool = False
    effect: Optional[tuple] = None


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *salt)))


class Workload:
    """Base class; subclasses fill in the class attributes and generators."""

    name = ""
    why = ""
    tenants = 10
    distribution = "uniform"
    backend: Optional[str] = "engine"
    shards: Optional[int] = None
    threads = 1

    def load(self, data):
        """Load the MT-H instance this workload runs on."""
        return load_mth(
            data=data,
            tenants=self.tenants,
            distribution=self.distribution,
            backend=self.backend,
            shards=self.shards,
        )

    def oracle(self, instance):
        return DataOracle(instance)

    def script(self, instance, oracle, seed: int, seconds: float, thread: int) -> list:
        """Units for one client thread, more than ``seconds`` can consume."""
        raise NotImplementedError

    def warmup(self, instance, oracle) -> list:
        """Units that touch every template before anything is timed."""
        raise NotImplementedError

    def cold(self, instance, oracle) -> list:
        """One unit per client identity holding every SELECT template once."""
        raise NotImplementedError

    def final_checks(self, oracle, executed: list) -> list:
        """Extra ``(tenant, scope, Op)`` probes verified after the timed phase."""
        return []


# -- mth22-*: the 22 MT-H queries, C = 1, D = all ------------------------------


class MTH22(Workload):
    scope = "IN ()"

    def oracle(self, instance):
        return BaselineOracle(instance.data)

    def _round(self, order) -> Unit:
        ops = tuple(
            Op(f"Q{query_id}", query_text(query_id), None, "pages", ("mth", query_id))
            for query_id in order
        )
        return Unit(tenant=1, scope=self.scope, ops=ops)

    def script(self, instance, oracle, seed, seconds, thread):
        rng = _rng(seed, self.name, thread)
        rounds = []
        for _ in range(int(seconds * 12) + 2):
            order = list(ALL_QUERY_IDS)
            rng.shuffle(order)
            rounds.append(self._round(order))
        return rounds

    def warmup(self, instance, oracle):
        return [self._round(ALL_QUERY_IDS)]

    def cold(self, instance, oracle):
        return [self._round(ALL_QUERY_IDS)]


class MTH22Engine(MTH22):
    name = "mth22-engine"
    why = (
        "22 MT-H queries, C=1, D=all, one connection, engine backend: engine "
        "and optimizer time dominate; server, gateway and compile do little"
    )


class MTH22Sharded4(MTH22):
    name = "mth22-sharded4"
    why = (
        "same data, mix and client on a 4-shard engine cluster: the difference "
        "to mth22-engine is cluster planning, scatter threads, merge and pulls"
    )
    backend = None
    shards = 4


# -- serve-short-sqlite: many short parameterized statements -------------------

SHORT_SQL = {
    "order": (
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate "
        "FROM orders WHERE o_orderkey = ?"
    ),
    "customer": (
        "SELECT c_custkey, c_name, c_nationkey, c_mktsegment, c_acctbal "
        "FROM customer WHERE c_custkey = ?"
    ),
    "nation": "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = ?",
    "order_lines": (
        "SELECT l_linenumber, l_partkey, l_quantity, l_extendedprice "
        "FROM lineitem WHERE l_orderkey = ? ORDER BY l_linenumber"
    ),
    "status_count": "SELECT COUNT(*) AS n FROM orders WHERE o_orderstatus = ?",
    "priority_counts": (
        "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
        "GROUP BY o_orderpriority ORDER BY o_orderpriority"
    ),
    "shipped_between": (
        "SELECT COUNT(*) AS n, SUM(l_quantity) AS quantity FROM lineitem "
        "WHERE l_shipdate >= ? AND l_shipdate < ?"
    ),
    "q6": (
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_discount BETWEEN ? AND ? AND l_quantity < ?"
    ),
}
Q6_DISCOUNTS = ((0.02, 0.04), (0.05, 0.07), (0.06, 0.08))
Q6_QUANTITIES = (24, 25)
SHIP_YEARS = (1993, 1994, 1995, 1996, 1997)


def short_op(template: str, rng: random.Random, oracle: DataOracle, tenant: int) -> Op:
    """One short statement for ``tenant`` with seeded bind values."""
    if template == "order":
        own = oracle.orders_of[tenant]
        params = (rng.choice(own)[0] if own else 0,)
    elif template == "customer":
        params = (rng.choice(oracle.customers_of[tenant])[0],)
    elif template == "nation":
        params = (rng.randrange(len(oracle.nations)),)
    elif template == "order_lines":
        own = oracle.orders_of[tenant]
        params = (rng.choice(own)[0] if own else 0,)
    elif template == "status_count":
        params = (rng.choice("FOP"),)
    elif template == "priority_counts":
        params = None
    elif template == "shipped_between":
        year = rng.choice(SHIP_YEARS)
        params = (Date(year, 1, 1), Date(year + 1, 1, 1))
    else:
        low, high = rng.choice(Q6_DISCOUNTS)
        params = (low, high, rng.choice(Q6_QUANTITIES))
    return Op(template, SHORT_SQL[template], params, "all", (template, *(params or ())))


class ServeShortSqlite(Workload):
    name = "serve-short-sqlite"
    why = (
        "64 zipf tenants on sqlite, 2 clients, connect + 40 short statements a visit, "
        "512 cache keys > 256 slots: sockets and thread hand-offs dominate served "
        "latency, sqlite the rest; engine, cluster bypassed"
    )
    tenants = 64
    distribution = "zipf"
    backend = "sqlite"
    threads = 2
    per_visit = 40
    templates = tuple(SHORT_SQL)

    def _visit(self, rng, oracle, tenant) -> Unit:
        ops = tuple(
            short_op(rng.choice(self.templates), rng, oracle, tenant)
            for _ in range(self.per_visit)
        )
        return Unit(tenant=tenant, scope=None, ops=ops, visit=True)

    def _visits(self, rng, oracle, count):
        tenants = list(range(1, self.tenants + 1))
        weights = [1.0 / rank for rank in tenants]
        return [
            self._visit(rng, oracle, tenant)
            for tenant in rng.choices(tenants, weights, k=count)
        ]

    def script(self, instance, oracle, seed, seconds, thread):
        return self._visits(_rng(seed, self.name, thread), oracle, int(seconds * 40) + 2)

    def warmup(self, instance, oracle):
        return self._visits(_rng(0, self.name, "warmup"), oracle, 6)

    def cold(self, instance, oracle):
        rng = _rng(0, self.name, "cold")
        ops = tuple(short_op(template, rng, oracle, 3) for template in self.templates)
        return [Unit(tenant=3, scope=None, ops=ops)]


# -- fetch-rows-engine: result-heavy paging --------------------------------------

SCAN_LINEITEM = "SELECT * FROM lineitem"
SCAN_ORDERS = "SELECT * FROM orders"
SHIPPED_SINCE = (
    "SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem WHERE l_shipdate >= ?"
)
#: a few days apart: the bind value varies, the result size barely does, so the
#: template's latency stays unimodal (it is the workload's median statement)
SINCE_DATES = (Date(1997, 12, 29), Date(1997, 12, 30), Date(1997, 12, 31), Date(1998, 1, 1))


class FetchRowsEngine(Workload):
    name = "fetch-rows-engine"
    why = (
        "3 paging scans (own lineitem, own orders, D=all lineitem slice), "
        "fetchmany(256) until drained: wire row encoding and FETCH paging "
        "dominate; the tiny replies of serve-short-sqlite bypass them"
    )

    def _round(self, tenant: int, since, seen: set) -> list:
        def op(template, sql, params, expect):
            first = (template, tenant, params) not in seen
            seen.add((template, tenant, params))
            return Op(template, sql, params, "pages", expect, keep_rows=first)

        return [
            Unit(tenant, None, (
                op("scan_lineitem", SCAN_LINEITEM, None, ("scan_lineitem",)),
                op("scan_orders", SCAN_ORDERS, None, ("scan_orders",)),
            )),
            Unit(tenant, "IN ()", (
                op("shipped_since", SHIPPED_SINCE, (since,), ("shipped_since", since)),
            )),
        ]

    def script(self, instance, oracle, seed, seconds, thread):
        rng = _rng(seed, self.name, thread)
        seen: set = set()
        units = []
        for index in range(int(seconds * 40) + 2):
            units.extend(
                self._round(1 + index % self.tenants, rng.choice(SINCE_DATES), seen)
            )
        return units

    def warmup(self, instance, oracle):
        seen: set = set()
        units = []
        for tenant in range(1, self.tenants + 1):
            units.extend(self._round(tenant, SINCE_DATES[tenant % len(SINCE_DATES)], seen))
        return units

    def cold(self, instance, oracle):
        return self._round(1, SINCE_DATES[0], set())


# -- rw-engine: reads racing writes ----------------------------------------------

RW_SQL = {
    "order_read": (
        "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice "
        "FROM orders WHERE o_orderkey = ?"
    ),
    "q6": SHORT_SQL["q6"],
    "insert_order": "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
    "insert_line": (
        "INSERT INTO lineitem VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
    ),
    "update_price": "UPDATE orders SET o_totalprice = ? WHERE o_orderkey = ?",
    "delete_lines": "DELETE FROM lineitem WHERE l_orderkey = ?",
    "delete_order": "DELETE FROM orders WHERE o_orderkey = ?",
    "count_orders": "SELECT COUNT(*) AS n FROM orders",
    "count_lines": "SELECT COUNT(*) AS n FROM lineitem",
    "inserted_keys": "SELECT o_orderkey FROM orders WHERE o_orderkey >= ?",
}
#: keys of inserted orders start here, far above any generated key
NEW_KEY_BASE = 10_000_000
#: inserted line items never qualify for Q6 (``l_quantity < 24|25``), so its
#: expected value depends on the loaded data alone
NEW_LINE_QUANTITY = 50.0


class RWEngine(Workload):
    name = "rw-engine"
    why = (
        "one client as tenants 2 and 3: 70% point reads, 3% own Q6, 27% INSERT/UPDATE/"
        "DELETE; each write bumps table versions and drops column caches: read-side "
        "caching gain that costs writers shows only here"
    )
    #: The mix (70 % read, 3 % Q6, 9 % INSERT, 15 % UPDATE, 3 % DELETE) keeps the
    #: median inside the point reads and the 90th percentile inside the
    #: UPDATE / DELETE-order group (one latency mode).  With a percentile on
    #: the boundary between two templates — or inside Q6, which is bimodal
    #: here: 8 ms, or 21 ms right after a lineitem write — the metric flips
    #: between two latencies from seed to seed.
    #:
    #: ``writers`` are the two tenants whose statements the one client interleaves.  Two
    #: *concurrent* clients make the engine fail about one run in seven (a
    #: typed-kernel scan of lineitem races the other tenant's DELETE:
    #: ``IndexError: array index out of range``), and the benchmark may only
    #: hold workloads on which no operation fails.
    writers = (2, 3)

    def script(self, instance, oracle, seed, seconds, thread):
        streams = [
            self._stream(oracle, _rng(seed, self.name, tenant), tenant, slot,
                         int(seconds * 750) + 10)
            for slot, tenant in enumerate(self.writers)
        ]
        return [unit for pair in zip(*streams) for unit in pair]

    def _stream(self, oracle, rng, tenant, slot, count) -> list:
        model = {
            row[0]: [row[1], row[2], oracle.stored(row[3], tenant)]
            for row in oracle.orders_of[tenant]
        }
        keys = list(model)
        inserted: list[int] = []
        customers = [row[0] for row in oracle.customers_of[tenant]]
        next_key = NEW_KEY_BASE + slot * 1_000_000
        units = []
        for _ in range(count):
            draw = rng.random()
            effect = None
            if draw >= 0.97 and inserted:
                key = inserted.pop(rng.randrange(len(inserted)))
                keys.remove(key)
                del model[key]
                ops = (
                    Op("delete_lines", RW_SQL["delete_lines"], (key,), "none", ("rowcount", 1)),
                    Op("delete_order", RW_SQL["delete_order"], (key,), "none", ("rowcount", 1)),
                )
                effect = ("delete", key)
            elif 0.82 <= draw < 0.97:
                key = keys[rng.randrange(1, len(keys))]  # keys[0] is the sentinel
                price = round(rng.uniform(1000.0, 400000.0), 2)
                model[key][2] = price
                ops = (
                    Op("update_price", RW_SQL["update_price"], (price, key), "none",
                       ("rowcount", 1)),
                )
            elif 0.73 <= draw < 0.82:
                key, next_key = next_key, next_key + 1
                price = round(rng.uniform(1000.0, 400000.0), 2)
                day = Date(1996, 1, 1 + rng.randrange(28))
                customer = rng.choice(customers)
                model[key] = [customer, "O", price]
                keys.append(key)
                inserted.append(key)
                ops = (
                    Op("insert_order", RW_SQL["insert_order"],
                       (key, customer, "O", price, day, "1-URGENT", "Clerk#000000001", 0, "perf"),
                       "none", ("rowcount", 1)),
                    Op("insert_line", RW_SQL["insert_line"],
                       (key, 1, 1, 1, NEW_LINE_QUANTITY, price, 0.05, 0.02, "N", "O",
                        day, day, day, "NONE", "MAIL", "perf"),
                       "none", ("rowcount", 1)),
                )
                effect = ("insert", key)
            elif 0.70 <= draw < 0.73:
                low, high = rng.choice(Q6_DISCOUNTS)
                params = (low, high, rng.choice(Q6_QUANTITIES))
                ops = (Op("q6", RW_SQL["q6"], params, "all", ("q6", *params)),)
            else:
                key = rng.choice(keys)
                customer, status, price = model[key]
                ops = (
                    Op("order_read", RW_SQL["order_read"], (key,), "all",
                       ("rows", ((key, customer, status, price),))),
                )
            units.append(Unit(tenant, None, ops, effect=effect))
        return units

    def _probe_ops(self, oracle, tenant) -> tuple:
        """Both SELECT templates on values the write mix never touches."""
        key = oracle.orders_of[tenant][0][0]  # the sentinel: never updated
        row = oracle.orders[key]
        ops = [
            Op("order_read", RW_SQL["order_read"], (key,), "all",
               ("rows", ((row[0], row[1], row[2], oracle.stored(row[3], tenant)),))),
        ]
        for low, high in Q6_DISCOUNTS:
            for quantity in Q6_QUANTITIES:
                ops.append(Op("q6", RW_SQL["q6"], (low, high, quantity), "all",
                              ("q6", low, high, quantity)))
        return tuple(ops)

    def warmup(self, instance, oracle):
        return [Unit(tenant, None, self._probe_ops(oracle, tenant)) for tenant in self.writers]

    def cold(self, instance, oracle):
        tenant = self.writers[0]
        return [Unit(tenant, None, self._probe_ops(oracle, tenant)[:2])]

    def final_checks(self, oracle, executed):
        """The tables must hold exactly what the executed writes left there."""
        alive: dict[int, set] = {tenant: set() for tenant in self.writers}
        for units in executed:
            for unit in units:
                if unit.effect is not None:
                    kind, key = unit.effect
                    (alive[unit.tenant].add if kind == "insert" else alive[unit.tenant].discard)(key)
        probes = []
        for tenant, keys in alive.items():
            orders = len(oracle.orders_of[tenant]) + len(keys)
            lines = len(oracle.lines_of[tenant]) + len(keys)
            probes.extend([
                (tenant, None, Op("count_orders", RW_SQL["count_orders"], None, "all",
                                  ("rows", ((orders,),)))),
                (tenant, None, Op("count_lines", RW_SQL["count_lines"], None, "all",
                                  ("rows", ((lines,),)))),
                (tenant, None, Op("inserted_keys", RW_SQL["inserted_keys"], (NEW_KEY_BASE,),
                                  "all", ("rows", tuple((key,) for key in sorted(keys)), False))),
            ])
        return probes


WORKLOADS = {
    workload.name: workload
    for workload in (
        MTH22Engine(),
        MTH22Sharded4(),
        ServeShortSqlite(),
        FetchRowsEngine(),
        RWEngine(),
    )
}
