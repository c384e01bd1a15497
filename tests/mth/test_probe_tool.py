"""Smoke test of ``tools/probe_mth_queries.py`` at the tiny scale factor."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import probe_mth_queries  # noqa: E402


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
