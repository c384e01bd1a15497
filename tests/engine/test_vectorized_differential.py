"""Differential suite: typed vs. generic vs. row.

The engine's three execution legs, each the oracle for the one above it:

* **typed** — the default: typed-column kernels; a dispatch over columns the
  catalog declares ``NOT NULL`` is counted as *proven*,
* **generic** — ``REPRO_ENGINE_TYPED=0``: the generic object-list batch
  kernels,
* **row** — ``REPRO_ENGINE_VECTORIZE=0``: the row-at-a-time interpreter.

These tests load the *same* generated MT-H data into three engine
instances (with a small batch size, so every query crosses batch
boundaries) and assert that every MT-H query, both scenarios, ``D' =
{single, subset, all}``, produces *exactly* identical results: same rows,
same order, same float bits (the batch aggregates accumulate in row order
on purpose, so no normalization is needed).  Q1/Q6 additionally pin that
the typed leg really counts proven dispatches — the counters that
``EXPLAIN ANALYZE`` reports as ``kernels ... proven=P`` — and that the
engine needs nobody's help for it: a bare ``Database.execute`` and the
shards of a cluster count them too.
"""

from __future__ import annotations

import pytest

from repro.backends import EngineBackend, ShardedBackend
from repro.engine import Database, VectorConfig
from repro.mth.loader import load_mth
from repro.mth.queries import ALL_QUERY_IDS, CONVERSION_INTENSIVE, query_text

TENANTS = 4
CLIENT = 1

#: small enough that the tiny MT-H tables span several batches
BATCH = 128

#: the three D' shapes of the acceptance grid
DATASETS = {
    "single": "IN (2)",
    "subset": "IN (1, 3)",
    "all": "IN ()",
}

#: the paper's two scenarios: business alliance (uniform), research (zipf)
SCENARIOS = ("uniform", "zipf")


def _engine_backend(enabled: bool, typed: bool = True) -> EngineBackend:
    return EngineBackend(
        database=Database(vector=VectorConfig(enabled=enabled, batch_size=BATCH, typed=typed))
    )


def _engine_instance(tiny_tpch_data, scenario: str, enabled: bool, typed: bool = True):
    return load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution=scenario,
        backend=_engine_backend(enabled, typed),
    )


@pytest.fixture(scope="module", params=SCENARIOS)
def engine_trio(request, tiny_tpch_data):
    """The same MT-H data in typed, generic and row engines."""
    typed = _engine_instance(tiny_tpch_data, request.param, enabled=True)
    generic = _engine_instance(tiny_tpch_data, request.param, enabled=True, typed=False)
    row_mode = _engine_instance(tiny_tpch_data, request.param, enabled=False)
    return typed, generic, row_mode


def _connection(instance, scope: str, optimization: str = "o4"):
    connection = instance.middleware.connect(CLIENT, optimization=optimization)
    connection.set_scope(scope)
    return connection


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_mth_query_results_bit_identical(engine_trio, query_id):
    typed, generic, row_mode = engine_trio
    text = query_text(query_id)
    for name, scope in DATASETS.items():
        typed_result = _connection(typed, scope).query(text)
        generic_result = _connection(generic, scope).query(text)
        row_result = _connection(row_mode, scope).query(text)
        assert (
            typed_result.columns == generic_result.columns == row_result.columns
        ), f"Q{query_id} D'={name}: columns differ"
        assert typed_result.rows == generic_result.rows, (
            f"Q{query_id} D'={name}: typed kernels diverge from generic kernels"
        )
        assert generic_result.rows == row_result.rows, (
            f"Q{query_id} D'={name}: rows differ between execution modes"
        )


@pytest.mark.parametrize("level", ["canonical", "o1"])
def test_udf_counters_identical_across_modes(engine_trio, level):
    """Memo-batched UDF dispatch keeps counter parity with row mode.

    At low optimization levels the conversion UDFs execute instead of being
    inlined; the batch path dedupes ``(function, args)`` per batch but must
    report the *same* call/execution/cache-hit counts the row mode reports
    (satellite #6: distinct conversion evaluations counted identically).
    """
    for query_id in CONVERSION_INTENSIVE:
        text = query_text(query_id)
        counters = []
        for instance in engine_trio:
            instance.middleware.backend.reset_stats()
            _connection(instance, "IN (1, 3)", optimization=level).query(text)
            stats = instance.middleware.backend.stats
            counters.append(
                (stats.udf_calls, stats.udf_executions, stats.udf_cache_hits)
            )
        assert len(set(counters)) == 1, (
            f"Q{query_id} at {level}: UDF counters diverge between modes"
        )
    # the suite exercised the conversion path at all
    assert counters[0][0] > 0


def test_streaming_results_identical_across_modes(engine_trio):
    """`execute_stream` yields the same rows in the same order in all modes."""
    typed, *others = engine_trio
    rewritten = _connection(typed, "IN ()").rewrite(query_text(6))
    typed_rows = typed.middleware.backend.execute_stream(rewritten).materialize().rows
    for instance in others:
        rows = instance.middleware.backend.execute_stream(rewritten).materialize().rows
        assert rows == typed_rows


@pytest.mark.parametrize("query_id", [1, 6])
def test_proven_kernels_dispatch_on_scan_heavy_queries(engine_trio, query_id):
    """Q1/Q6 dispatches are counted as proven.

    ``explain(analyze=True)`` reports the per-operator dispatch split; every
    dispatch that would have been merely *typed* is proven, because MT-H
    declares every column NOT NULL and the engine reads that off its catalog.
    """
    typed, _, _ = engine_trio
    report = _connection(typed, "IN (1, 3)").explain(query_text(query_id), analyze=True)
    proven_kernels = sum(op.proven_kernels for op in report.operators)
    typed_kernels = sum(op.typed_kernels for op in report.operators)
    assert proven_kernels > 0, f"Q{query_id}: no proven kernel dispatches"
    assert typed_kernels == 0, (
        f"Q{query_id}: {typed_kernels} dispatches fell back to observed "
        f"nullability despite schema-declared NOT NULL columns"
    )


def test_bare_statements_and_shards_count_proven_kernels(tiny_tpch_data):
    """The proof needs no compiler artifact: a bare ``Database.execute`` of
    rewritten SQL and every shard of a cluster count proven dispatches."""
    single = _engine_instance(tiny_tpch_data, "uniform", enabled=True)
    rewritten = _connection(single, "IN ()").rewrite(query_text(6))
    database = single.middleware.backend.engine_database
    before = database.stats.kernels.snapshot()
    database.execute(rewritten)
    assert database.stats.kernels.snapshot()[2] > before[2]

    sharded = load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution="uniform",
        backend=ShardedBackend(shards=2, backend_factory=lambda: _engine_backend(enabled=True)),
    )
    _connection(sharded, "IN ()").query(query_text(6))
    for shard in sharded.middleware.backend.shard_connections:
        assert shard.stats.kernels.snapshot()[2] > 0
