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
