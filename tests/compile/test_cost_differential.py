"""Plan-choice pins: which federated pulls the cost model narrows, and by how much.

The cost model changes *plans*, never *rows*: the cluster planner pushes
prefilter predicates and column subsets into the per-shard pulls of
federated plans, and the engine planner orders comma-joins by estimated
filtered cardinality.  That the rows stay put on engine clusters is the
shard-invariance grid's job (``tests/cluster/test_shard_invariance.py``:
every MT-H query, both scenarios, ``D' = {single, subset, all}``, shards ∈
{1, 2, 4}, against one backend) and the SQLite differential's
(``tests/backends/test_differential.py``).  This suite runs the same grid on
clusters of SQLite shards, where every pushed-down prefilter and column
subset is printed in SQLite's dialect and executed by SQLite's own planner,
against one SQLite database.

The taxonomy tests pin *which* plans the cost model improves, on both
backend families: the four federated queries (Q15/Q17/Q20/Q22) leave the
pull-everything path, gain per-table prefilters and pull-column subsets,
and ship strictly less than a full-width pull of their tables would.
"""

from __future__ import annotations

import pytest

from repro.backends import SQLiteBackend, normalized_rows
from repro.cluster import FederatedPlan
from repro.mth.loader import load_mth
from repro.mth.queries import ALL_QUERY_IDS, query_text

TENANTS = 4
CLIENT = 1
SHARDS = 4
SHARD_COUNTS = (1, 2, 4)
#: D' = all tenants
ALL_TENANTS = "IN ()"

#: the three D' shapes of the acceptance grid
DATASETS = {
    "single": "IN (2)",
    "subset": "IN (1, 3)",
    "all": ALL_TENANTS,
}

#: the paper's two scenarios: business alliance (uniform), research (zipf)
SCENARIOS = ("uniform", "zipf")

#: (scenario, shard backend family) of the 4-shard taxonomy clusters
CLUSTERS = [(scenario, "engine") for scenario in SCENARIOS] + [
    (scenario, "sqlite") for scenario in SCENARIOS
]

#: MT-H queries the cluster planner cannot decompose (they fall back to the
#: federated strategy) — exactly these gain costed pull pushdown
FEDERATED_QUERY_IDS = {15, 17, 20, 22}

#: tables whose federated pull gains a pushed-down prefilter, per query
#: (uniform scenario, 4 shards, D' = all): Q15 filters lineitem by the
#: shipdate window, Q17 adds a synthesized semi-join against the filtered
#: part table, Q20 prefilters all five of its tables, Q22 pushes the
#: OR of the customer occurrences' phone-prefix predicates
EXPECTED_PREFILTERED_TABLES = {
    15: {"lineitem"},
    17: {"lineitem", "part"},
    20: {"lineitem", "nation", "part", "partsupp", "supplier"},
    22: {"customer"},
}


@pytest.fixture(
    scope="module",
    params=CLUSTERS,
    ids=[
        scenario if family == "engine" else f"{scenario}-{family}"
        for scenario, family in CLUSTERS
    ],
)
def cluster(request, tiny_tpch_data):
    """A 4-shard MT-H cluster per scenario and shard backend family."""
    scenario, family = request.param
    instance = load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution=scenario,
        shards=SHARDS,
        backend=family,
    )
    yield scenario, instance
    instance.middleware.backend.close()


@pytest.fixture(scope="module", params=SCENARIOS)
def sqlite_grid(request, tiny_tpch_data):
    """The same MT-H data in one SQLite database and on 1/2/4-shard
    clusters of SQLite databases."""
    factory = SQLiteBackend()
    single = load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution=request.param,
        backend=factory,
    )
    clusters = {
        shard_count: load_mth(
            data=tiny_tpch_data,
            tenants=TENANTS,
            distribution=request.param,
            shards=shard_count,
            backend="sqlite",
        )
        for shard_count in SHARD_COUNTS
    }
    yield single, clusters
    for instance in clusters.values():
        instance.middleware.backend.close()
    factory.close()


def _connection(instance, scope: str = ALL_TENANTS):
    connection = instance.middleware.connect(CLIENT, optimization="o4")
    connection.set_scope(scope)
    return connection


def _full_width_volume(sharded, plan: FederatedPlan) -> tuple[int, int]:
    """(rows, cells) an unfiltered, full-width pull of ``plan.tables`` ships:
    every shard's rows of a partitioned table, one replica's of a
    replicated one."""
    rows = cells = 0
    for table in plan.tables:
        shards = sharded.shard_connections
        if not sharded.catalog.is_partitioned(table):
            shards = shards[:1]
        count = sum(shard.table_rowcount(table) for shard in shards)
        rows += count
        cells += count * len(sharded.planner.columns_of[table])
    return rows, cells


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_costed_plans_are_row_identical(sqlite_grid, query_id):
    """Costed cluster plans over SQLite shards vs. one SQLite database:
    identical row sets across the whole grid."""
    single, clusters = sqlite_grid
    text = query_text(query_id)
    for name, scope in DATASETS.items():
        reference = _connection(single, scope).query(text)
        expected = normalized_rows(reference)
        for shard_count, cluster in clusters.items():
            result = _connection(cluster, scope).query(text)
            plan = cluster.middleware.backend.last_plan
            assert len(result.columns) == len(reference.columns), (
                f"Q{query_id} D'={name} shards={shard_count}: column counts differ"
            )
            assert normalized_rows(result) == expected, (
                f"Q{query_id} D'={name} shards={shard_count}: costed plan "
                f"({plan.describe() if plan else 'none'}) and one SQLite "
                f"database return different row sets"
            )


def test_federated_queries_gain_prefilters(cluster):
    """The costed planner prefilters exactly the federated queries' pulls."""
    scenario, instance = cluster
    sharded = instance.middleware.backend
    connection = _connection(instance)
    prefiltered: dict[int, set[str]] = {}
    for query_id in ALL_QUERY_IDS:
        connection.query(query_text(query_id))
        plan = sharded.last_plan
        if isinstance(plan, FederatedPlan) and plan.prefilters:
            prefiltered[query_id] = {
                prefilter.table.lower() for prefilter in plan.prefilters
            }
            assert plan.pull_columns, (
                f"Q{query_id}: a federated plan with prefilters should also "
                f"carry pull-column subsets"
            )
    assert set(prefiltered) == FEDERATED_QUERY_IDS, (
        f"scenario {scenario}: prefiltered plans {sorted(prefiltered)} != "
        f"the federated queries {sorted(FEDERATED_QUERY_IDS)}"
    )
    for query_id, expected in EXPECTED_PREFILTERED_TABLES.items():
        assert prefiltered[query_id] == expected, (
            f"Q{query_id}: prefiltered tables {sorted(prefiltered[query_id])} "
            f"!= expected {sorted(expected)}"
        )


def test_prefilters_reduce_pulled_volume(cluster):
    """The pushed-down pulls ship strictly fewer rows and cells than a
    full-width pull of the plan's tables."""
    _scenario, instance = cluster
    sharded = instance.middleware.backend
    connection = _connection(instance)
    for query_id in sorted(FEDERATED_QUERY_IDS):
        sharded._scratch_state.clear()
        sharded.reset_pull_counters()
        connection.query(query_text(query_id))
        pulled = (sharded.rows_pulled, sharded.cells_pulled)
        assert sharded.prefiltered_syncs > 0
        full = _full_width_volume(sharded, sharded.last_plan)
        # strict reduction on both axes for every federated query
        assert pulled[0] < full[0], (
            f"Q{query_id}: the pull ships {pulled[0]} rows, a full-width "
            f"pull {full[0]} — expected a strict reduction"
        )
        assert pulled[1] < full[1], (
            f"Q{query_id}: the pull ships {pulled[1]} cells, a full-width "
            f"pull {full[1]} — expected a strict reduction"
        )
