"""Parameterized differential suite + prepared-statement cache acceptance.

A sample of MT-H queries has its literals lifted into ``?``/``:name``
parameters; executed through DB-API cursors on {engine, sqlite, sharded:2}
each must be row-set-identical to its unparameterized original on the same
backend (and across backends after normalization).

The cache half pins the PR's acceptance criterion: a parameterized query
executed N times for M client connections through the gateway performs
exactly one compilation — the cache key is the *parameterized* fingerprint,
so every binding after the first is a warm hit.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.backends import normalized_rows
from repro.mth.queries import query_text

D90 = api.Date(1998, 9, 2)  # DATE '1998-12-01' - 90 days, precomputed

#: query id -> (parameterized text, bindings) with literals lifted; the
#: parameterized text must be semantically identical to query_text(id)
PARAM_QUERIES = {
    1: (
        """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice) AS sum_base_price,
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
               AVG(l_quantity) AS avg_qty,
               AVG(l_extendedprice) AS avg_price,
               AVG(l_discount) AS avg_disc,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= ?
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
        """,
        (D90,),
    ),
    3: (
        """
        SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
               o_orderdate, o_shippriority
        FROM customer, orders, lineitem
        WHERE c_mktsegment = :segment AND c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate < :cutoff AND l_shipdate > :cutoff
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate
        LIMIT 10
        """,
        {"segment": "BUILDING", "cutoff": api.Date(1995, 3, 15)},
    ),
    6: (
        """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= ?1 AND l_shipdate < ?1 + INTERVAL '1' YEAR
          AND l_discount BETWEEN ?2 AND ?3 AND l_quantity < ?4
        """,
        (api.Date(1994, 1, 1), 0.05, 0.07, 24),
    ),
    10: (
        """
        SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
               c_acctbal, n_name, c_address, c_phone, c_comment
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate >= :start AND o_orderdate < :start + INTERVAL '3' MONTH
          AND l_returnflag = :flag AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
        ORDER BY revenue DESC
        LIMIT 20
        """,
        {"start": api.Date(1993, 10, 1), "flag": "R"},
    ),
    14: (
        """
        SELECT 100.00 * SUM(CASE WHEN p_type LIKE ?2 THEN l_extendedprice * (1 - l_discount)
                                 ELSE 0 END) / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= ?1 AND l_shipdate < ?1 + INTERVAL '1' MONTH
        """,
        (api.Date(1995, 9, 1), "PROMO%"),
    ),
    22: (
        """
        SELECT cntrycode, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal
        FROM (SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cntrycode, c_acctbal
              FROM customer
              WHERE SUBSTRING(c_phone FROM 1 FOR 2) IN (?1, ?2, ?3, ?4, ?5, ?6, ?7)
                AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer
                                 WHERE c_acctbal > 0.00
                                   AND SUBSTRING(c_phone FROM 1 FOR 2) IN (?1, ?2, ?3, ?4, ?5, ?6, ?7))
                AND c_custkey NOT IN (SELECT o_custkey FROM orders)) AS custsale
        GROUP BY cntrycode
        ORDER BY cntrycode
        """,
        ("13", "31", "23", "29", "30", "18", "17"),
    ),
}

DATASETS = {"single": "IN (2)", "all": "IN ()"}

CLIENT = 1


def _fixture_names():
    return ("tiny_mth_engine", "tiny_mth_sqlite", "tiny_mth_sharded")


@pytest.fixture(params=_fixture_names())
def mth_instance(request):
    """One MT-H instance per backend family (engine, sqlite, sharded:2)."""
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("query_id", sorted(PARAM_QUERIES))
def test_parameterized_queries_match_originals(mth_instance, mt_connect, query_id):
    """Literal-lifted queries are row-set-identical to the originals."""
    sql, bindings = PARAM_QUERIES[query_id]
    for name, scope in DATASETS.items():
        connection = mth_instance.middleware.connect(CLIENT, optimization="o4")
        connection.set_scope(scope)
        reference = connection.query(query_text(query_id))
        with mt_connect(
            mth_instance.middleware, client=CLIENT, optimization="o4", scope=scope
        ) as dbapi:
            cursor = dbapi.cursor()
            cursor.execute(sql, bindings)
            parameterized = cursor.fetchall()
        assert normalized_rows(parameterized) == normalized_rows(reference), (
            f"Q{query_id} D'={name}: parameterized row set differs from original"
        )


def test_parameterized_rowsets_identical_across_backends(
    tiny_mth_engine, tiny_mth_sqlite, tiny_mth_sharded, mt_connect
):
    """The same parameterized cursor execution agrees across all backends."""
    for query_id, (sql, bindings) in sorted(PARAM_QUERIES.items()):
        results = []
        for instance in (tiny_mth_engine, tiny_mth_sqlite, tiny_mth_sharded):
            with mt_connect(
                instance.middleware, client=CLIENT, optimization="o4", scope="IN ()"
            ) as dbapi:
                results.append(dbapi.cursor().execute(sql, bindings).fetchall())
        engine_rows, sqlite_rows, sharded_rows = map(normalized_rows, results)
        assert engine_rows == sqlite_rows == sharded_rows, (
            f"Q{query_id}: backends disagree on the parameterized row set"
        )


# ---------------------------------------------------------------------------
# prepared-statement cache: one compilation serves N bindings x M clients
# ---------------------------------------------------------------------------

PARAM_SQL = (
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders "
    "WHERE o_totalprice > ? GROUP BY o_orderpriority ORDER BY o_orderpriority"
)

BINDINGS = [(1000.0,), (5000.0,), (20000.0,), (100000.0,)]


def test_one_compilation_serves_n_bindings_for_m_clients(tiny_mth_engine, mt_connect):
    """The PR's acceptance criterion, asserted on the compiler's counters."""
    middleware = tiny_mth_engine.middleware
    gateway = middleware.gateway(cache_size=64)
    try:
        connections = [
            mt_connect(gateway, client=CLIENT, optimization="o4", scope="IN ()")
            for _ in range(3)  # M = 3 client connections of the same tenant
        ]
        compilations_before = middleware.compiler.stats.compilations
        hits_before = gateway.cache_stats.hits
        results = []
        for connection in connections:
            cursor = connection.cursor()
            for bindings in BINDINGS:  # N = 4 bindings each
                cursor.execute(PARAM_SQL, bindings)
                results.append(cursor.fetchall())
        executions = len(connections) * len(BINDINGS)
        assert (
            middleware.compiler.stats.compilations - compilations_before == 1
        ), "a parameterized statement must compile exactly once"
        assert gateway.cache_stats.hits - hits_before == executions - 1
        # different bindings really produce different answers
        counts = [sum(row[1] for row in rows) for rows in results[: len(BINDINGS)]]
        assert counts == sorted(counts, reverse=True) and counts[0] > counts[-1]
        for connection in connections:
            connection.close()
    finally:
        gateway.close()


def test_literal_spellings_compile_per_distinct_statement(tiny_mth_engine):
    """Contrast case: inlined literals miss the cache once per distinct text."""
    middleware = tiny_mth_engine.middleware
    gateway = middleware.gateway(cache_size=64)
    try:
        session = gateway.session(CLIENT, optimization="o4", scope="IN ()")
        before = middleware.compiler.stats.compilations
        for (value,) in BINDINGS:
            session.query(PARAM_SQL.replace("?", repr(value)))
        assert middleware.compiler.stats.compilations - before == len(BINDINGS)
    finally:
        gateway.close()


def test_compiled_artifact_records_parameter_slots(tiny_mth_engine):
    connection = tiny_mth_engine.middleware.connect(CLIENT, optimization="o4")
    connection.set_scope("IN ()")
    compiled = connection.compile(PARAM_SQL)
    assert [slot.index for slot in compiled.parameters] == [1]
    unparameterized = connection.compile("SELECT COUNT(*) FROM orders")
    assert unparameterized.parameters == ()


def test_cluster_plan_is_memoized_across_bindings(tiny_mth_sharded):
    """Warm executions with new bindings reuse the memoized cluster plan."""
    middleware = tiny_mth_sharded.middleware
    gateway = middleware.gateway(cache_size=64)
    try:
        session = gateway.session(CLIENT, optimization="o4", scope="IN ()")
        backend = tiny_mth_sharded.backend
        session.query(PARAM_SQL, parameters=BINDINGS[0])  # cold: plan + cache
        reuses_before = backend.plan_reuses
        for bindings in BINDINGS[1:]:
            session.query(PARAM_SQL, parameters=bindings)
        assert backend.plan_reuses - reuses_before == len(BINDINGS) - 1
    finally:
        gateway.close()
