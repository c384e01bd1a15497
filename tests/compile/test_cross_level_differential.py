"""Cross-level differential suite: every MT-H query at every Table-6 level.

The optimization levels are semantics preserving by construction (§4); this
suite proves it end-to-end on the compiled pipeline: all 22 MT-H queries ×
levels {CANONICAL, O1–O4, INL_ONLY} × backends {engine, sqlite} produce
row-set-identical results (normalized as in the backend differential suite).

The second half pins the per-level *pass-trace taxonomy* for representative
queries: which stages run is dictated by ``LEVEL_PASSES``, and which stages
actually fire is a property of the query shape — a regression in either
fails loudly.
"""

from __future__ import annotations

import pytest

from repro.backends import SQLiteBackend, normalized_rows
from repro.compile import LEVEL_PASSES
from repro.core.optimizer.levels import ALL_LEVELS, OptimizationLevel
from repro.mth.loader import load_mth
from repro.mth.queries import ALL_QUERY_IDS, query_text

TENANTS = 4
CLIENT = 1
#: a strict subset of the tenants: keeps every conversion and D'-filter live
SCOPE = "IN (1, 3)"


@pytest.fixture(scope="module")
def level_pair(tiny_tpch_data):
    """The same MT-H data on the engine and on SQLite, swept across levels."""
    engine = load_mth(data=tiny_tpch_data, tenants=TENANTS, distribution="uniform")
    sqlite_factory = SQLiteBackend()
    sqlite = load_mth(
        data=tiny_tpch_data,
        tenants=TENANTS,
        distribution="uniform",
        backend=sqlite_factory,
    )
    yield engine, sqlite
    sqlite_factory.close()


def _rows(instance, query_id: int, level: OptimizationLevel):
    connection = instance.middleware.connect(CLIENT, optimization=level)
    connection.set_scope(SCOPE)
    return normalized_rows(connection.query(query_text(query_id)))


@pytest.mark.parametrize("query_id", ALL_QUERY_IDS)
def test_all_levels_row_set_identical_on_both_backends(level_pair, query_id):
    engine, sqlite = level_pair
    reference = _rows(engine, query_id, OptimizationLevel.O4)
    for level in ALL_LEVELS:
        assert _rows(engine, query_id, level) == reference, (
            f"Q{query_id} engine@{level.value} differs from engine@o4"
        )
        assert _rows(sqlite, query_id, level) == reference, (
            f"Q{query_id} sqlite@{level.value} differs from engine@o4"
        )


# ---------------------------------------------------------------------------
# Pinned pass-trace taxonomy
# ---------------------------------------------------------------------------
#
# For each representative query and level: which passes *fired* (rewrote
# something).  Q1/Q6 aggregate converted measures (distribution restructures,
# nothing for push-up to grab); Q22 compares converted attributes against a
# scalar sub-query (push-up fires too).

_FIRED_TAXONOMY = {
    1: {
        "canonical": (),
        "o1": (),
        "o2": (),
        "o3": ("distribution",),
        "o4": ("distribution", "inlining"),
        "inl-only": ("inlining",),
    },
    6: {
        "canonical": (),
        "o1": (),
        "o2": (),
        "o3": ("distribution",),
        "o4": ("distribution", "inlining"),
        "inl-only": ("inlining",),
    },
    22: {
        "canonical": (),
        "o1": (),
        "o2": ("pushup",),
        "o3": ("pushup", "distribution"),
        "o4": ("pushup", "distribution", "inlining"),
        "inl-only": ("inlining",),
    },
}


@pytest.mark.parametrize("query_id", sorted(_FIRED_TAXONOMY))
def test_pass_trace_taxonomy_pinned(level_pair, query_id):
    engine, _ = level_pair
    for level in ALL_LEVELS:
        connection = engine.middleware.connect(CLIENT, optimization=level)
        connection.set_scope(SCOPE)
        compiled = connection.compile(query_text(query_id))
        assert compiled.pass_trace == ("canonical",) + tuple(
            optimizer.name for optimizer in LEVEL_PASSES[level]
        ), (
            f"Q{query_id}@{level.value}: unexpected stage list"
        )
        fired = tuple(
            record.name
            for record in compiled.passes
            if record.name != "canonical" and record.fired > 0
        )
        assert fired == _FIRED_TAXONOMY[query_id][level.value], (
            f"Q{query_id}@{level.value}: fired passes changed"
        )
        # inlining levels leave no conversion calls for the DBMS
        if level in (OptimizationLevel.O4, OptimizationLevel.INL_ONLY):
            assert compiled.conversions.final_total == 0, (
                f"Q{query_id}@{level.value}: conversion calls survived inlining"
            )
        else:
            assert compiled.conversions.final_total == compiled.conversions.canonical_total


def test_canonical_census_monotone_in_conversion_use(level_pair):
    """Sanity: the conversion-intensive queries really exercise conversions."""
    engine, _ = level_pair
    connection = engine.middleware.connect(CLIENT, optimization="canonical")
    connection.set_scope(SCOPE)
    census_q6 = connection.compile(query_text(6)).conversions.canonical_total
    census_q22 = connection.compile(query_text(22)).conversions.canonical_total
    assert census_q6 >= 2
    assert census_q22 > census_q6
