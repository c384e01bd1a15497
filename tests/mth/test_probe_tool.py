"""Smoke test of ``tools/probe_mth_queries.py`` at the tiny scale factor."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import probe_mth_queries  # noqa: E402

from repro.mth import generate, load_mth, query_text  # noqa: E402


def test_probe_reports_every_query_with_a_stable_digest(capsys):
    probe_mth_queries.main(["--sf", "0.001", "--tenants", "4", "--best-of", "1", "--json"])
    table = json.loads(capsys.readouterr().out)
    assert list(table["queries"]) == [f"Q{query_id}" for query_id in range(1, 23)]
    for entry in table["queries"].values():
        assert entry["mth_ms"] > 0 and entry["tpch_ms"] > 0
        assert len(entry["digest"]) == 12
    assert table["overhead_time_weighted"] > 0 and table["overhead_geomean"] > 0
    assert set(table["geomean_carriers"]) <= set(table["queries"])
    # the digest is a function of the rows alone: a second measurement agrees
    again = probe_mth_queries.probe(0.001, 4, 1, None)
    assert {name: entry["digest"] for name, entry in again["queries"].items()} == {
        name: entry["digest"] for name, entry in table["queries"].items()
    }


def test_probe_prints_the_table(capsys):
    probe_mth_queries.main(["--sf", "0.001", "--tenants", "2", "--best-of", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["query", "mth", "ms", "tpch", "ms", "ratio", "rows", "digest"]
    assert len(lines) == 24 and lines[-1].startswith("round: MT-H")


def test_probe_takes_a_scope_and_lists_the_indexes(capsys):
    """``--scope`` runs the mix for a tenant subset (same queries, other
    rows); ``--indexes`` lists what the joins left on the table versions."""
    argv = ["--sf", "0.001", "--tenants", "4", "--best-of", "1"]
    probe_mth_queries.main(argv + ["--scope", "IN (1,2)", "--indexes", "--json"])
    table = json.loads(capsys.readouterr().out)
    assert table["scope"] == "IN (1,2)" and len(table["queries"]) == 22
    everyone = probe_mth_queries.probe(0.001, 4, 1, None)
    assert everyone["scope"] == "IN ()" and "indexes" not in everyone
    assert table["queries"]["Q1"]["digest"] != everyone["queries"]["Q1"]["digest"]
    held = table["indexes"]
    assert held and {"shard", "table", "columns", "keys", "rows", "unique", "bytes"} == set(held[0])
    # under a subset a tenant-specific scan carries a ttid filter: lineitem
    # is never a whole-table build side, the global tables still are
    tables = {entry["table"] for entry in held}
    assert "lineitem" not in tables and {"nation", "supplier", "partsupp"} <= tables
    assert all(entry["keys"] <= entry["rows"] and entry["bytes"] > 0 for entry in held)
    assert all(entry["unique"] == (entry["keys"] == entry["rows"]) for entry in held)

    probe_mth_queries.main(argv + ["--indexes", "--shards", "2"])
    lines = capsys.readouterr().out.splitlines()
    summary = next(index for index, line in enumerate(lines) if line.startswith("indexes: "))
    assert lines[summary].endswith(" MB") and len(lines) > summary + 1
    assert {line.split()[1] for line in lines[summary + 1 :]} == {"0", "1"}
    assert any(" orders(o_orderkey, o_ttid): " in line and "unique" in line for line in lines)
    # on a cluster each query's plan is listed, then the plan-kind tally
    assert "plans: 3 single-shard / 0 row-stream / 15 partial-aggregate / 4 federated" in lines
    assert lines.index("  Q2   single-shard(shard=0)") < summary


@pytest.mark.parametrize("profile", ["postgres", "system_c"])
def test_the_levels_keep_the_papers_udf_story(profile, capsys):
    """``--levels all`` interleaves the six levels per query.  UDF
    executions, counted on cleared function caches, are deterministic, so
    they pin the paper's level story where milliseconds cannot: memoizing
    (postgres) o2 < canonical, distribution (o3) and inlining (o4) each cut
    more; without memoization (System C) only o3/o4 help.  Every level
    returns o4's rows up to float summation order."""
    probe_mth_queries.main(
        ["--sf", "0.001", "--tenants", "4", "--best-of", "1", "--levels", "all", "--profile", profile, "--json"]
    )
    table = json.loads(capsys.readouterr().out)
    assert table["profile"] == profile
    assert list(table["levels"]) == ["canonical", "o1", "o2", "o3", "o4", "inl-only"]
    executions = {level: summary["udf_executions"] for level, summary in table["levels"].items()}
    if profile == "postgres":
        assert executions["canonical"] >= executions["o2"] > executions["o3"] > executions["o4"]
    else:
        assert executions["o4"] < executions["o2"] <= executions["canonical"]
    for summary in table["levels"].values():
        assert list(summary["queries"]) == [f"Q{query_id}" for query_id in range(1, 23)]
        assert all(entry["matches_o4"] for entry in summary["queries"].values())
        assert summary["udf_executions"] == sum(
            entry["udf_executions"] for entry in summary["queries"].values()
        )


def test_probe_prints_the_level_grid_and_rejects_unknown_levels(capsys):
    probe_mth_queries.main(["--sf", "0.001", "--tenants", "2", "--best-of", "1", "--levels", "o4,o3"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["query", "tpch", "ms", "o4", "o3"]
    assert lines[24] == "UDF executions, one run on cleared function caches"
    assert [line.split()[0] for line in lines[-2:]] == ["o4", "o3"]
    assert all(line.endswith("  22/22") for line in lines[-2:])
    with pytest.raises(SystemExit):
        probe_mth_queries.main(["--levels", "o4,o5"])
    assert "unknown level 'o5'" in capsys.readouterr().err


def test_levels_parse_as_all_or_a_list_without_repeats():
    assert probe_mth_queries.parse_levels("all") == probe_mth_queries.LEVELS
    assert probe_mth_queries.LEVELS == ("canonical", "o1", "o2", "o3", "o4", "inl-only")
    assert probe_mth_queries.parse_levels(" o4, o3,o4") == ("o4", "o3")
    with pytest.raises(argparse.ArgumentTypeError, match="unknown level 'O4', 'x'; levels are canonical, "):
        probe_mth_queries.parse_levels("O4,x")


def test_an_unknown_profile_is_rejected(capsys):
    with pytest.raises(SystemExit):
        probe_mth_queries.main(["--profile", "oracle"])
    assert "invalid choice: 'oracle'" in capsys.readouterr().err


def test_summary_weights_the_round_by_time_and_the_queries_alike():
    """Time-weighted is the round's MT-H over its TPC-H time; the geomean
    weighs every query's ratio alike, and its carriers are the five largest
    ratios, largest first."""
    ratios = {"Q1": 4.0, "Q2": 1.0, "Q3": 0.25, "Q4": 2.0, "Q5": 8.0, "Q6": 0.5}
    queries = {
        name: {"mth_ms": 10.0 * ratio, "tpch_ms": 10.0, "ratio": ratio} for name, ratio in ratios.items()
    }
    queries["Q2"].update(mth_ms=100.0, tpch_ms=100.0)
    summary = probe_mth_queries.summarize(queries)
    assert summary["queries"] is queries
    assert summary["mth_round_ms"] == 247.5 and summary["tpch_round_ms"] == 150.0
    assert summary["overhead_time_weighted"] == round(247.5 / 150.0, 3)
    assert summary["overhead_geomean"] == round((4.0 * 0.25 * 2.0 * 8.0 * 0.5) ** (1 / 6), 3)
    assert summary["geomean_carriers"] == ["Q5", "Q1", "Q4", "Q2", "Q6"]


def test_the_digest_sees_order_and_float_bits_but_not_the_row_type():
    rows = [(1, 0.3, "a"), (2, None, "b")]
    assert probe_mth_queries.digest(rows) == probe_mth_queries.digest([list(row) for row in rows])
    assert probe_mth_queries.digest(rows) != probe_mth_queries.digest(rows[::-1])
    assert probe_mth_queries.digest([(1, 0.1 + 0.2, "a"), rows[1]]) != probe_mth_queries.digest(rows)
    assert probe_mth_queries.digest([(1, -0.0)]) != probe_mth_queries.digest([(1, 0.0)])


def test_udf_executions_are_counted_from_cold_function_caches():
    """A warm-up on postgres' memoized UDFs would execute no body at all;
    the probe clears the caches first, so every count is the cold one."""
    instance = load_mth(data=generate(scale_factor=0.001), tenants=2, profile="postgres")
    backend = instance.middleware.backend
    connection = instance.middleware.connect(1, optimization="canonical")
    text = query_text(1)
    _, first, executions = probe_mth_queries.best_ms(connection.query, text, 1, backend)
    assert executions > 0 and first.rows
    backend.reset_stats()
    connection.query(text)
    assert backend.stats.udf_executions == 0  # the memo serves a warm run
    assert probe_mth_queries.best_ms(connection.query, text, 1, backend)[2] == executions
    assert probe_mth_queries.best_ms(connection.query, text, 1)[2] is None


def test_levels_without_o4_are_not_compared_with_it(capsys):
    probe_mth_queries.main(
        ["--sf", "0.001", "--tenants", "2", "--best-of", "1", "--levels", "o3,canonical", "--json"]
    )
    table = json.loads(capsys.readouterr().out)
    assert table["profile"] == "postgres" and list(table["levels"]) == ["o3", "canonical"]
    for summary in table["levels"].values():
        assert all("matches_o4" not in entry for entry in summary["queries"].values())
        assert all(entry["udf_executions"] >= 0 for entry in summary["queries"].values())
    probe_mth_queries.print_grid(table)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[-2:]] == ["o3", "canonical"]
    assert all(line.endswith("  -") for line in lines[-2:])
