"""Differential suite: typed vs. generic kernels, against recorded answers.

The engine's two kernel legs:

* **typed** — the default: typed-column kernels; a dispatch over columns the
  catalog declares ``NOT NULL`` is counted as *proven*,
* **generic** — ``REPRO_ENGINE_TYPED=0``: the generic object-list batch
  kernels.

These tests load the *same* generated MT-H data into both (with a small
batch size, so every query crosses batch boundaries) and assert that every
MT-H query, both scenarios, ``D' = {single, subset, all}``, produces exactly
identical results: same rows, same order, same float bits (the batch
aggregates accumulate in row order on purpose, so no normalization is
needed).  Both legs must also match :data:`ROW_DIGESTS` and
:data:`UDF_COUNTERS`.  Those tables were recorded once, at sf 0.001 / seed 7
(the ``tiny_tpch_data`` fixture), by an engine that still had a third,
row-at-a-time interpreter; they were only written down where the typed, the
generic and the row-at-a-time engine all agreed — so they carry that
reference forward.  A digest is ``sha256(repr(rows))[:12]`` with the row
count.  Q1/Q6 additionally pin that the typed leg really counts proven
dispatches — the counters that ``EXPLAIN ANALYZE`` reports as ``kernels ...
proven=P`` — and that the engine needs nobody's help for it: a bare
``Database.execute`` and the shards of a cluster count them too.
"""

from __future__ import annotations

import hashlib

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

#: query -> scenario -> (row count, digest) per D' in DATASETS order
ROW_DIGESTS = {
    1: {
        "uniform": ((4, "4e5990590b59"), (4, "9615b4582522"), (4, "fda6acd7fd05")),
        "zipf": ((4, "953df5d712d6"), (4, "e9cd971ed998"), (4, "e2f3c7f00fbf")),
    },
    2: {
        "uniform": ((1, "b9cce94608ee"), (1, "b9cce94608ee"), (1, "b9cce94608ee")),
        "zipf": ((1, "b9cce94608ee"), (1, "b9cce94608ee"), (1, "b9cce94608ee")),
    },
    3: {
        "uniform": ((0, "4f53cda18c2b"), (2, "665025791e8f"), (2, "665025791e8f")),
        "zipf": ((0, "4f53cda18c2b"), (2, "665025791e8f"), (2, "665025791e8f")),
    },
    4: {
        "uniform": ((2, "b44b7cd9b5e3"), (4, "81473108b274"), (5, "79e0ba414db8")),
        "zipf": ((4, "213954f2b964"), (5, "09271fa00db2"), (5, "79e0ba414db8")),
    },
    5: {
        "uniform": ((0, "4f53cda18c2b"), (0, "4f53cda18c2b"), (0, "4f53cda18c2b")),
        "zipf": ((0, "4f53cda18c2b"), (0, "4f53cda18c2b"), (0, "4f53cda18c2b")),
    },
    6: {
        "uniform": ((1, "8efe422d6e30"), (1, "409ffc9e55e4"), (1, "82d91f1aefa3")),
        "zipf": ((1, "fb570f6145f5"), (1, "aa6cd8d16496"), (1, "1332e92ea2b6")),
    },
    7: {
        "uniform": ((0, "4f53cda18c2b"), (3, "fc9c492488d6"), (3, "5ecb6f6184d7")),
        "zipf": ((1, "a94bd4437760"), (3, "23440d75beb3"), (3, "9dad246f715c")),
    },
    8: {
        "uniform": ((0, "4f53cda18c2b"), (0, "4f53cda18c2b"), (0, "4f53cda18c2b")),
        "zipf": ((0, "4f53cda18c2b"), (0, "4f53cda18c2b"), (0, "4f53cda18c2b")),
    },
    9: {
        "uniform": ((8, "4beb969f9fe9"), (9, "8c996cba4e5e"), (20, "5a938b05c148")),
        "zipf": ((4, "d103c6300ed8"), (15, "d62f08248940"), (20, "2a96eecddf76")),
    },
    10: {
        "uniform": ((6, "d987ad8f6b7a"), (14, "5113c5c70d6c"), (20, "2ab656b6e8d4")),
        "zipf": ((6, "938daf777cc4"), (17, "5870d7c8959e"), (20, "ed279fca32a5")),
    },
    11: {
        "uniform": ((97, "1d4ccfaedfd5"), (97, "1d4ccfaedfd5"), (97, "1d4ccfaedfd5")),
        "zipf": ((97, "1d4ccfaedfd5"), (97, "1d4ccfaedfd5"), (97, "1d4ccfaedfd5")),
    },
    12: {
        "uniform": ((1, "2bd044654ec2"), (2, "b92e017c9f6e"), (2, "8881d4bdc012")),
        "zipf": ((2, "9567d1cfe263"), (2, "d77518a9c016"), (2, "8881d4bdc012")),
    },
    13: {
        "uniform": ((7, "acb7bc16e2e7"), (8, "ab580f6a45c5"), (9, "8ddb9a11b7d1")),
        "zipf": ((7, "d8e9a0ec521f"), (9, "5180539e1e2d"), (9, "8ddb9a11b7d1")),
    },
    14: {
        "uniform": ((1, "133629d15273"), (1, "fef7e7605f45"), (1, "abea413e17ae")),
        "zipf": ((1, "2f6e30f40047"), (1, "78d08808abbe"), (1, "3de30bd35d52")),
    },
    15: {
        "uniform": ((1, "5db683a77306"), (1, "3ad2e690f716"), (1, "3f465fb95c90")),
        "zipf": ((1, "7ee7c27a309f"), (1, "c91275be9c65"), (1, "ef9de07f7837")),
    },
    16: {
        "uniform": ((35, "b45faae7f72d"), (35, "b45faae7f72d"), (35, "b45faae7f72d")),
        "zipf": ((35, "b45faae7f72d"), (35, "b45faae7f72d"), (35, "b45faae7f72d")),
    },
    17: {
        "uniform": ((1, "a766775743ed"), (1, "a766775743ed"), (1, "a766775743ed")),
        "zipf": ((1, "a766775743ed"), (1, "a766775743ed"), (1, "a766775743ed")),
    },
    18: {
        "uniform": ((5, "2064b0193176"), (15, "39a516a3d652"), (28, "5eb0aaf046cb")),
        "zipf": ((5, "7695f7428ca5"), (20, "d87ed9b781eb"), (28, "237a8ca1c6a0")),
    },
    19: {
        "uniform": ((1, "a766775743ed"), (1, "a766775743ed"), (1, "a766775743ed")),
        "zipf": ((1, "a766775743ed"), (1, "a766775743ed"), (1, "a766775743ed")),
    },
    20: {
        "uniform": ((0, "4f53cda18c2b"), (0, "4f53cda18c2b"), (0, "4f53cda18c2b")),
        "zipf": ((0, "4f53cda18c2b"), (0, "4f53cda18c2b"), (0, "4f53cda18c2b")),
    },
    21: {
        "uniform": ((0, "4f53cda18c2b"), (1, "f8b7886a8633"), (1, "f8b7886a8633")),
        "zipf": ((0, "4f53cda18c2b"), (1, "f8b7886a8633"), (1, "f8b7886a8633")),
    },
    22: {
        "uniform": ((3, "b133be2c8e9a"), (2, "e9150b2091fa"), (5, "033221a8c3b0")),
        "zipf": ((0, "4f53cda18c2b"), (5, "cb627f8c2f47"), (5, "4e01d47de49d")),
    },
}  # fmt: skip

#: scenario -> query -> (udf_calls, udf_executions, udf_cache_hits) of one
#: cold-memo run at D' = {1, 3}; the canonical and o1 rewrites agree
UDF_COUNTERS = {
    "uniform": {1: (12264, 2958, 9306), 6: (52, 52, 0), 22: (952, 600, 352)},
    "zipf": {1: (15440, 3629, 11811), 6: (66, 66, 0), 22: (996, 600, 396)},
}  # fmt: skip


def _digest(rows) -> tuple[int, str]:
    text = repr([tuple(row) for row in rows])
    return len(rows), hashlib.sha256(text.encode()).hexdigest()[:12]


def _engine_backend(typed: bool = True) -> EngineBackend:
    return EngineBackend(database=Database(vector=VectorConfig(batch_size=BATCH, typed=typed)))


def _engine_instance(tiny_tpch_data, scenario: str, typed: bool = True):
    return load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution=scenario,
        backend=_engine_backend(typed),
    )


@pytest.fixture(scope="module", params=SCENARIOS)
def engine_pair(request, tiny_tpch_data):
    """The scenario and the same MT-H data in a typed and a generic engine."""
    typed = _engine_instance(tiny_tpch_data, request.param)
    generic = _engine_instance(tiny_tpch_data, request.param, typed=False)
    return request.param, typed, generic


def _connection(instance, scope: str, optimization: str = "o4"):
    connection = instance.middleware.connect(CLIENT, optimization=optimization)
    connection.set_scope(scope)
    return connection


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_mth_query_results_bit_identical(engine_pair, query_id):
    scenario, typed, generic = engine_pair
    text = query_text(query_id)
    for (name, scope), recorded in zip(DATASETS.items(), ROW_DIGESTS[query_id][scenario]):
        typed_result = _connection(typed, scope).query(text)
        generic_result = _connection(generic, scope).query(text)
        assert typed_result.columns == generic_result.columns, (
            f"Q{query_id} D'={name}: columns differ"
        )
        assert typed_result.rows == generic_result.rows, (
            f"Q{query_id} D'={name}: typed kernels diverge from generic kernels"
        )
        assert _digest(typed_result.rows) == recorded, (
            f"Q{query_id} D'={name}: rows differ from the recorded answer"
        )


@pytest.mark.parametrize("level", ["canonical", "o1"])
def test_udf_counters_identical_across_kernels(engine_pair, level):
    """Memo-batched UDF dispatch counts one call per occurrence.

    At low optimization levels the conversion UDFs execute instead of being
    inlined; the batch path dedupes ``(function, args)`` per batch but must
    report the call/execution/cache-hit counts of a per-row evaluation
    (distinct conversion evaluations counted exactly).
    """
    scenario, *instances = engine_pair
    for query_id in CONVERSION_INTENSIVE:
        text = query_text(query_id)
        for instance in instances:
            backend = instance.middleware.backend
            backend.clear_function_caches()
            backend.reset_stats()
            _connection(instance, "IN (1, 3)", optimization=level).query(text)
            stats = backend.stats
            counters = (stats.udf_calls, stats.udf_executions, stats.udf_cache_hits)
            assert counters == UDF_COUNTERS[scenario][query_id], (
                f"Q{query_id} at {level}: UDF counters differ from the recorded ones"
            )


def test_streaming_results_identical_across_kernels(engine_pair):
    """`execute_stream` yields the same rows in the same order on both legs."""
    _, typed, generic = engine_pair
    rewritten = _connection(typed, "IN ()").rewrite(query_text(6))
    typed_rows = typed.middleware.backend.execute_stream(rewritten).materialize().rows
    rows = generic.middleware.backend.execute_stream(rewritten).materialize().rows
    assert rows == typed_rows


@pytest.mark.parametrize("query_id", [1, 6])
def test_proven_kernels_dispatch_on_scan_heavy_queries(engine_pair, query_id):
    """Q1/Q6 dispatches are counted as proven.

    ``explain(analyze=True)`` reports the per-operator dispatch split; every
    dispatch that would have been merely *typed* is proven, because MT-H
    declares every column NOT NULL and the engine reads that off its catalog.
    """
    _, typed, _ = engine_pair
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
    single = _engine_instance(tiny_tpch_data, "uniform")
    rewritten = _connection(single, "IN ()").rewrite(query_text(6))
    database = single.middleware.backend.engine_database
    before = database.stats.kernels.snapshot()
    database.execute(rewritten)
    assert database.stats.kernels.snapshot()[2] > before[2]

    sharded = load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution="uniform",
        backend=ShardedBackend(shards=2, backend_factory=_engine_backend),
    )
    _connection(sharded, "IN ()").query(query_text(6))
    for shard in sharded.middleware.backend.shard_connections:
        assert shard.stats.kernels.snapshot()[2] > 0
