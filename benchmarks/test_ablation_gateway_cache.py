"""Ablation: the gateway's rewrite cache — cold vs. warm-path latency.

The rewrite-overhead ablation (`test_ablation_rewrite_overhead.py`) measures
what every statement pays for parse + canonical rewrite + optimization.  The
gateway amortizes exactly that cost: a warm cache execution skips the whole
pipeline and goes straight to the DBMS.  This module checks both acceptance
criteria:

* gateway results are **identical** to direct :class:`MTConnection` results
  for the full MT-H query set (cold and warm), and
* warm-cache per-statement latency is measurably below the cold path at O4.
"""

import time

import pytest

from mth_workload import WorkloadConfig, load_workload
from repro.mth.queries import ALL_QUERY_IDS, query_text

#: the rewrite-heavy representative mix used for the latency comparison
QUERY_IDS = (1, 3, 6, 22)

COLD_ROUNDS = 3
WARM_ROUNDS = 5


@pytest.fixture(scope="module")
def workload():
    return load_workload(WorkloadConfig.scenario1())


@pytest.fixture(scope="module")
def gateway(workload):
    return workload.gateway(cache_size=512)


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_gateway_results_match_direct_connection(workload, gateway, query_id):
    """Cold pass, warm pass and the direct connection agree exactly (Q1-Q22)."""
    session = gateway.session(1, optimization="o4", scope="IN ()")
    direct = workload.connection(client=1, optimization="o4", dataset="all")
    text = query_text(query_id)
    cold = session.query(text)
    warm = session.query(text)
    reference = direct.query(text)
    assert cold.columns == warm.columns == reference.columns
    assert cold.rows == warm.rows == reference.rows


def test_warm_cache_latency_below_cold_path_at_o4(workload, gateway):
    """Per-statement latency: warm (cache hit) < cold (parse + rewrite + run).

    Minima over several rounds cancel scheduler noise; the gap is the
    pipeline cost the cache saves, which at O4 is far above timer noise.
    """
    session = gateway.session(1, optimization="o4", scope="IN ()")
    cold_total = 0.0
    warm_total = 0.0
    for query_id in QUERY_IDS:
        text = query_text(query_id)
        cold_samples = []
        for _ in range(COLD_ROUNDS):
            gateway.invalidate_cache(reason="bench-cold")
            began = time.perf_counter()
            session.query(text)
            cold_samples.append(time.perf_counter() - began)
        warm_samples = []
        for _ in range(WARM_ROUNDS):
            began = time.perf_counter()
            session.query(text)
            warm_samples.append(time.perf_counter() - began)
        cold_total += min(cold_samples)
        warm_total += min(warm_samples)
    assert warm_total < cold_total, (
        f"warm cache ({warm_total * 1e3:.2f}ms) should beat the cold path "
        f"({cold_total * 1e3:.2f}ms) over queries {QUERY_IDS}"
    )


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_cold_path(benchmark, workload, gateway, query_id):
    """Benchmark table: full pipeline per statement (cache flushed each run)."""
    session = gateway.session(1, optimization="o4", scope="IN ()")
    text = query_text(query_id)

    def cold():
        gateway.invalidate_cache(reason="bench-cold")
        session.query(text)

    benchmark.pedantic(cold, rounds=1, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_warm_path(benchmark, workload, gateway, query_id):
    """Benchmark table: cache-hit execution of the same statements."""
    session = gateway.session(1, optimization="o4", scope="IN ()")
    text = query_text(query_id)
    session.query(text)  # prime
    benchmark.pedantic(lambda: session.query(text), rounds=1, iterations=1, warmup_rounds=0)


# ---------------------------------------------------------------------------
# Parameterization ablation: hit rate with vs. without bind parameters
# ---------------------------------------------------------------------------
#
# A workload that varies a literal per execution (the common "same query,
# different threshold" pattern) defeats the cache when the literal is inlined
# — every spelling is a distinct fingerprint — but turns into a pure warm-hit
# stream once the literal is lifted into a bind parameter: the cache key is
# the *parameterized* fingerprint, so one compiled artifact serves every
# binding.

#: MT-H Q6 with the selectivity literals lifted into parameters
PARAM_TEMPLATE = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_discount BETWEEN ?1 AND ?2 AND l_quantity < ?3"
)

#: the distinct per-execution bindings (one workload "day" each)
PARAM_BINDINGS = tuple(
    (round(0.02 + 0.01 * step, 2), round(0.04 + 0.01 * step, 2), 20 + step)
    for step in range(6)
)


def _literal_spelling(bindings) -> str:
    low, high, cap = bindings
    return (
        f"SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        f"WHERE l_discount BETWEEN {low} AND {high} AND l_quantity < {cap}"
    )


def test_parameterization_ablation_hit_rate(workload):
    """One compilation + warm hits with parameters; N compilations without."""
    middleware = workload.middleware
    gateway = middleware.gateway(cache_size=512)
    compiler = middleware.compiler

    literal_session = gateway.session(1, optimization="o4", scope="IN ()")
    before, hits_before = compiler.stats.compilations, gateway.cache_stats.hits
    literal_results = [
        literal_session.query(_literal_spelling(bindings)).rows
        for bindings in PARAM_BINDINGS
    ]
    literal_compilations = compiler.stats.compilations - before
    literal_hits = gateway.cache_stats.hits - hits_before

    param_session = gateway.session(1, optimization="o4", scope="IN ()")
    before, hits_before = compiler.stats.compilations, gateway.cache_stats.hits
    param_results = [
        param_session.query(PARAM_TEMPLATE, parameters=bindings).rows
        for bindings in PARAM_BINDINGS
    ]
    param_compilations = compiler.stats.compilations - before
    param_hits = gateway.cache_stats.hits - hits_before

    # identical answers, radically different cache behaviour
    assert param_results == literal_results
    assert literal_compilations == len(PARAM_BINDINGS) and literal_hits == 0
    assert param_compilations == 1 and param_hits == len(PARAM_BINDINGS) - 1

    literal_rate = literal_hits / len(PARAM_BINDINGS)
    param_rate = param_hits / len(PARAM_BINDINGS)
    print(
        f"\nparameterization ablation over {len(PARAM_BINDINGS)} executions: "
        f"literal hit rate {literal_rate:.0%} ({literal_compilations} "
        f"compilations) vs parameterized {param_rate:.0%} "
        f"({param_compilations} compilation)"
    )


def test_parameterized_warm_latency_below_literal_churn(workload):
    """Wall-clock: re-binding a cached statement beats re-compiling literals."""
    gateway = workload.middleware.gateway(cache_size=512)
    literal_session = gateway.session(1, optimization="o4", scope="IN ()")
    param_session = gateway.session(1, optimization="o4", scope="IN ()")
    param_session.query(PARAM_TEMPLATE, parameters=PARAM_BINDINGS[0])  # prime

    literal_samples = []
    param_samples = []
    for _ in range(3):
        began = time.perf_counter()
        for bindings in PARAM_BINDINGS:
            gateway.invalidate_cache(reason="bench-param-ablation")
            literal_session.query(_literal_spelling(bindings))
        literal_samples.append(time.perf_counter() - began)

        param_session.query(PARAM_TEMPLATE, parameters=PARAM_BINDINGS[0])  # re-prime
        began = time.perf_counter()
        for bindings in PARAM_BINDINGS:
            param_session.query(PARAM_TEMPLATE, parameters=bindings)
        param_samples.append(time.perf_counter() - began)

    assert min(param_samples) < min(literal_samples), (
        f"parameterized warm stream ({min(param_samples) * 1e3:.2f}ms) should "
        f"beat literal churn ({min(literal_samples) * 1e3:.2f}ms)"
    )
