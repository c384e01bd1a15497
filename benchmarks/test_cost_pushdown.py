"""Costed federated pushdown: pull volume against a full-width pull.

The federated fallback is the cluster's expensive path: every referenced
table is copied from the shards into the scratch backend before the
statement runs.  The cost-based planner prunes that copy with per-table
prefilters and pull-column subsets; this module pins the effect on the four
federated MT-H queries (Q15/Q17/Q20/Q22) of a 4-shard cluster:

* **rows/cells shipped** (deterministic, asserted even under
  ``--benchmark-disable``): the pull must ship a fixed factor fewer rows
  and cells than an unfiltered, full-width pull of the plan's tables,
* **wall time**: a cold-scratch federated execution, the timed figure.
"""

from __future__ import annotations

import pytest

from mth_workload import WorkloadConfig, load_workload
from repro.mth.queries import query_text

SHARDS = 4

#: the federated queries and their pinned minimum reduction factors
#: (rows shipped, cells shipped) — Q22's OR-prefilter keeps ~40% of
#: customer rows, so its row reduction is modest while projection still
#: cuts cells hard
FEDERATED_CASES = {
    15: (4.0, 8.0),
    17: (4.0, 8.0),
    20: (4.0, 8.0),
    22: (1.05, 4.0),
}


@pytest.fixture(scope="module")
def federated_workload():
    config = WorkloadConfig.scenario1()
    config.shards = SHARDS
    return load_workload(config)


def _run_cold(sharded, connection, text: str):
    """One federated execution against a cold scratch, returning
    (rows_pulled, cells_pulled, prefiltered_syncs)."""
    sharded._scratch_state.clear()
    sharded.reset_pull_counters()
    connection.query(text)
    return sharded.rows_pulled, sharded.cells_pulled, sharded.prefiltered_syncs


def _full_width_volume(sharded, plan) -> tuple[int, int]:
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


@pytest.mark.parametrize("query_id", sorted(FEDERATED_CASES))
def test_cost_pushdown_reduces_pull_volume(benchmark, federated_workload, query_id):
    workload = federated_workload
    sharded = workload.backend
    connection = workload.connection(client=1, optimization="o4", dataset="IN ()")
    text = query_text(query_id)
    min_rows_factor, min_cells_factor = FEDERATED_CASES[query_id]

    pulled_rows, pulled_cells, prefiltered = _run_cold(sharded, connection, text)
    full_rows, full_cells = _full_width_volume(sharded, sharded.last_plan)

    assert prefiltered > 0, f"Q{query_id}: costed plan pushed no prefilters"
    rows_factor = full_rows / max(pulled_rows, 1)
    cells_factor = full_cells / max(pulled_cells, 1)
    assert rows_factor >= min_rows_factor, (
        f"Q{query_id}: the pull ships {pulled_rows} rows vs. a full-width "
        f"{full_rows} ({rows_factor:.2f}x) — expected >= {min_rows_factor}x"
    )
    assert cells_factor >= min_cells_factor, (
        f"Q{query_id}: the pull ships {pulled_cells} cells vs. a full-width "
        f"{full_cells} ({cells_factor:.2f}x) — expected >= {min_cells_factor}x"
    )

    benchmark.extra_info.update(
        {
            "shards": SHARDS,
            "rows_pulled": pulled_rows,
            "rows_full_width": full_rows,
            "rows_factor": round(rows_factor, 2),
            "cells_factor": round(cells_factor, 2),
        }
    )
    # the timed figure: a cold-scratch costed federated execution
    benchmark.pedantic(
        lambda: _run_cold(sharded, connection, text), rounds=1, iterations=1
    )
