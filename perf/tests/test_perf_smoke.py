"""Smoke and unit tests of the benchmark itself (tier-1, micro scale).

Every workload runs once untraced and once traced at ``--scale smoke``, on two
different seeds, and must emit exactly the metrics ``BENCHMARK.json`` declares
with no failed statement.  The span arithmetic and the percentile rule are
unit-tested, and the oracle is shown to bite.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from perf import check, run, spans, stats
from perf.workloads import WORKLOADS

SPEC = run.benchmark_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_command(capsys, *argv) -> tuple[int, dict]:
    """Run the one command in-process; its exit code and result line."""
    code = run.main(["--scale", "smoke", "--seconds", "0.3", *argv])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    code, line = run_command(capsys, "--workload", workload, "--trace", "0")
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]
    }
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_on_a_second_seed(capsys, workload):
    code, line = run_command(capsys, "--workload", workload, "--trace", "1", "--seed", "7")
    assert code == 0 and line["failed"] == 0
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["per_layer"]
    }
    values = {name: metric["value"] for name, metric in line["metrics"].items()}
    assert values["server.shed"] == values["server.timeouts"] == 0
    assert 0.5 < values["bench.span_coverage_frac"] <= 1.0
    trace = run.RESULTS_DIR / f"trace-{workload}.jsonl"
    first = json.loads(trace.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"id", "name", "parent", "statement", "start_ns", "end_ns", "self_ns"}


def test_the_oracle_bites(capsys, monkeypatch):
    """A deliberately wrong expected row makes the command exit non-zero."""
    monkeypatch.setattr(
        check.DataOracle, "_expect_q6", lambda self, tenant, *params: ([(-1.0,)], True)
    )
    code, line = run_command(capsys, "--workload", "rw-engine")
    assert code != 0
    assert line["correct"] is False and line["failed"] > 0


def test_rows_mismatch_reports_the_first_difference():
    assert check.rows_mismatch([(1, 2.0)], [(1, 2.0 + 1e-9)]) is None
    assert "row 0" in check.rows_mismatch([(1, 2.0)], [(1, 2.5)])
    assert "expected 1 rows" in check.rows_mismatch([(1,)], [])
    assert check.rows_mismatch([(1,), (2,)], [(2,), (1,)], ordered=False) is None


# -- span self-time arithmetic ---------------------------------------------------


def span(span_id, name, parent, start, end, statement=1):
    return [span_id, name, parent, statement, start, end]


def test_self_time_is_the_parent_minus_what_children_cover():
    recorded = [
        span(1, "stmt", None, 0, 100),
        span(2, "gateway", 1, 10, 90),
        span(3, "backend", 2, 20, 60),
    ]
    assert spans.self_times(recorded) == {1: 20, 2: 40, 3: 40}


def test_overlapping_children_are_counted_once():
    recorded = [
        span(1, "cluster", None, 0, 100),
        span(2, "shard", 1, 10, 60),
        span(3, "shard", 1, 30, 80),  # overlaps the first shard: union is 10..80
        span(4, "shard", 1, 90, 95),
    ]
    assert spans.self_times(recorded)[1] == 100 - 70 - 5
    assert spans.covered(0, 100, [(-50, 10), (95, 500)]) == 15  # clipped to the parent


def test_totals_by_name_sums_self_and_inclusive_time():
    recorded = [
        span(1, "stmt", None, 0, 100),
        span(2, "backend", 1, 0, 30),
        span(3, "backend", 1, 50, 70),
    ]
    self_ns, inclusive_ns, calls = spans.totals_by_name(recorded)
    assert self_ns == {"stmt": 50, "backend": 50}
    assert inclusive_ns == {"stmt": 100, "backend": 50}
    assert calls == {"stmt": 1, "backend": 2}


def test_tracer_nests_wraps_restores_and_adopts_worker_threads():
    class Layer:
        def work(self, value):
            return value + 1

    tracer = spans.Tracer()
    tracer.wrap(Layer, "work", "layer.work")
    with tracer.statement(7):
        with tracer.span("outer"):
            assert Layer().work(1) == 2
            worker = threading.Thread(target=lambda: Layer().work(2))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    tracer.unwrap_all()
    assert "__wrapped__" not in vars(Layer.work)
    by_name = {}
    for record in tracer.spans:
        by_name.setdefault(record[1], []).append(record)
    outer = by_name["outer"][0]
    assert [record[2] for record in by_name["layer.work"]] == [outer[0], outer[0]]
    assert outer[2] == by_name["stmt"][0][0]
    assert {record[3] for record in tracer.spans} == {7}
    with pytest.raises(ValueError):
        tracer.wrap(Layer, "_private", "x")


# -- the percentile rule ------------------------------------------------------------


def test_highest_percentile_with_ten_samples_beyond_it():
    assert stats.highest_supported_percentile(19) is None
    assert stats.highest_supported_percentile(20) == 0.5
    assert stats.highest_supported_percentile(200) == 0.95
    assert stats.highest_supported_percentile(300) == 0.966  # rounded down, never up
    assert stats.highest_supported_percentile(10_000) == 0.999


def test_percentile_interpolates_and_geomean_is_scale_free():
    assert stats.percentile([1, 2, 3, 4], 0.5) == 2.5
    assert stats.percentile([5], 0.95) == 5
    assert stats.median([3, 1, 2]) == 2
    assert stats.geomean([1, 100]) == pytest.approx(10)
