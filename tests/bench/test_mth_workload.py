"""The benchmark workloads (``benchmarks/mth_workload.py``): loading,
caching, connections, the strict ``REPRO_BENCH_*`` parsers and the helpers
the benchmark modules time their cells with."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import mth_workload  # noqa: E402
from mth_workload import (  # noqa: E402
    LEVELS,
    QUERY_IDS,
    TABLE_CONFIGS,
    WorkloadConfig,
    clear_workload_cache,
    env_backend,
    env_full,
    env_level,
    env_scale_factor,
    env_shards,
    load_workload,
    record_benchmark,
    run_baseline_query,
    run_mth_query,
)


@pytest.fixture(scope="module")
def small_workload():
    config = WorkloadConfig(scale_factor=0.0005, tenants=4)
    return load_workload(config)


class TestWorkloadSetup:
    def test_scenario_configs(self):
        scenario1 = WorkloadConfig.scenario1()
        assert scenario1.tenants == 10 and scenario1.distribution == "uniform"
        scenario2 = WorkloadConfig.scenario2(tenants=100)
        assert scenario2.tenants == 100 and scenario2.distribution == "zipf"

    def test_workload_has_both_databases(self, small_workload):
        assert small_workload.backend.table_rowcount("lineitem") == \
            small_workload.baseline.table_rowcount("lineitem")

    def test_connection_helper_sets_scope(self, small_workload):
        connection = small_workload.connection(client=1, optimization="o4", dataset="all")
        assert connection.dataset() == (1, 2, 3, 4)
        single = small_workload.connection(client=1, dataset="IN (2)")
        assert single.dataset() == (2,)

    def test_workload_cache_returns_same_instance(self):
        config = WorkloadConfig(scale_factor=0.0005, tenants=2)
        first = load_workload(config)
        second = load_workload(config)
        assert first is second
        clear_workload_cache()
        third = load_workload(config, use_cache=False)
        assert third is not first

    def test_reset_caches_clears_stats(self, small_workload):
        small_workload.backend.stats.udf_calls = 123
        small_workload.reset_caches()
        assert small_workload.backend.stats.udf_calls == 0

    def test_env_scale_factor_override(self, monkeypatch):
        assert env_scale_factor(0.002) == 0.002
        monkeypatch.setenv("REPRO_BENCH_SF", "0.01")
        assert env_scale_factor(0.002) == 0.01

    def test_env_backend_override(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.delenv("REPRO_BENCH_BACKEND", raising=False)
        assert env_backend() == "engine"
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "SQLite")
        assert env_backend() == "sqlite"
        assert WorkloadConfig().backend == "sqlite"
        assert WorkloadConfig.scenario1().backend == "sqlite"
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "oracle")
        with pytest.raises(ConfigurationError, match="REPRO_BENCH_BACKEND"):
            env_backend()

    def test_env_level_override(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.delenv("REPRO_BENCH_LEVEL", raising=False)
        assert env_level() == "o4"
        monkeypatch.setenv("REPRO_BENCH_LEVEL", "O2")
        assert env_level() == "o2"
        assert WorkloadConfig().level == "o2"
        monkeypatch.setenv("REPRO_BENCH_LEVEL", "inl_only")
        assert env_level() == "inl-only"
        monkeypatch.setenv("REPRO_BENCH_LEVEL", "o9")
        with pytest.raises(ConfigurationError, match="REPRO_BENCH_LEVEL"):
            env_level()

    def test_connection_defaults_to_the_configured_level(self, small_workload):
        from repro.core.optimizer.levels import OptimizationLevel

        configured = OptimizationLevel.from_name(small_workload.config.level)
        assert small_workload.connection(client=1).optimization is configured
        explicit = small_workload.connection(client=1, optimization="canonical")
        assert explicit.optimization is OptimizationLevel.CANONICAL

    def test_sqlite_backend_workload_serves_queries(self):
        config = WorkloadConfig(scale_factor=0.0005, tenants=2, backend="sqlite")
        workload = load_workload(config)
        # under REPRO_BENCH_SHARDS the dialect name carries a "+Nsh" suffix
        assert workload.backend.dialect.name.split("+")[0] == "sqlite"
        assert workload.baseline.dialect.name == "sqlite"
        connection = workload.connection(client=1, dataset="all")
        mt_rows = connection.query("SELECT COUNT(*) FROM lineitem").scalar()
        baseline_rows = workload.baseline.query(
            "SELECT COUNT(*) FROM lineitem"
        ).scalar()
        assert mt_rows == baseline_rows > 0
        session = workload.gateway_session(client=1, dataset="all")
        assert session.query("SELECT COUNT(*) FROM lineitem").scalar() == mt_rows

    def test_table_configs_cover_the_six_paper_tables(self):
        assert set(TABLE_CONFIGS) == {"3", "4", "5", "7", "8", "9"}
        assert TABLE_CONFIGS["3"]["profile"] == "postgres"
        assert TABLE_CONFIGS["9"]["profile"] == "system_c"
        assert TABLE_CONFIGS["5"]["dataset"] == "all"

    def test_env_shards_override(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.delenv("REPRO_BENCH_SHARDS", raising=False)
        assert env_shards() == 0
        monkeypatch.setenv("REPRO_BENCH_SHARDS", "2")
        assert env_shards() == 2
        assert WorkloadConfig(scale_factor=0.0005, tenants=2).shards == 2
        monkeypatch.setenv("REPRO_BENCH_SHARDS", "nope")
        with pytest.raises(ConfigurationError, match="REPRO_BENCH_SHARDS"):
            env_shards()
        monkeypatch.setenv("REPRO_BENCH_SHARDS", "-1")
        with pytest.raises(ConfigurationError, match="REPRO_BENCH_SHARDS"):
            env_shards()

    def test_sharded_workload_serves_queries(self):
        from repro.backends import ShardedConnection
        from repro.mth.queries import query_text

        config = WorkloadConfig(scale_factor=0.0005, tenants=4, shards=2)
        workload = load_workload(config)
        assert isinstance(workload.backend, ShardedConnection)
        connection = workload.connection(client=1, optimization="o4", dataset="all")
        assert connection.query(query_text(6)).rows
        # same logical row counts as the unsharded baseline database
        assert workload.backend.table_rowcount("lineitem") == \
            workload.baseline.table_rowcount("lineitem")


class FakeBenchmark:
    """Stands in for pytest-benchmark's fixture: ``pedantic`` runs the
    target once and keeps what it was asked to do."""

    def __init__(self, median_s=None, rounds=0):
        self.extra_info = {}
        self.stats = None if median_s is None else SimpleNamespace(
            stats=SimpleNamespace(median=median_s, data=[median_s] * rounds)
        )
        self.calls = []

    def pedantic(self, target, **options):
        self.calls.append(options)
        self.result = target()


class TestBenchmarkHelpers:
    def test_env_scale_factor_rejects_a_non_number(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("REPRO_BENCH_SF", "tiny")
        with pytest.raises(ConfigurationError, match="REPRO_BENCH_SF"):
            env_scale_factor(0.002)
        monkeypatch.setenv("REPRO_BENCH_SF", "")
        assert env_scale_factor(0.002) == 0.002

    def test_env_full_takes_only_the_two_flags(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        assert env_full() is False and env_full(True) is True
        monkeypatch.setenv("REPRO_BENCH_FULL", " 1 ")
        assert env_full() is True
        monkeypatch.setenv("REPRO_BENCH_FULL", "0")
        assert env_full(True) is False
        for value in ("yes", "true", "2"):
            monkeypatch.setenv("REPRO_BENCH_FULL", value)
            with pytest.raises(ConfigurationError, match="REPRO_BENCH_FULL"):
                env_full()

    def test_the_grid_names_real_levels_and_queries(self):
        from repro.core.optimizer.levels import OptimizationLevel
        from repro.mth.queries import ALL_QUERY_IDS

        assert set(LEVELS) <= set(OptimizationLevel.levels()) and "o4" in LEVELS
        assert set(QUERY_IDS) <= set(ALL_QUERY_IDS)
        assert {spec["dataset"] for spec in TABLE_CONFIGS.values()} == {"IN (1)", "IN (2)", "all"}

    def test_record_benchmark_keeps_the_median_and_the_extra_info(self, monkeypatch):
        monkeypatch.setattr(mth_workload, "BENCH_RECORDS", [])
        timed = FakeBenchmark(median_s=0.0125, rounds=3)
        timed.extra_info["rows"] = 4
        record_benchmark(timed, "mth", query=6, level="o4")
        # a skipped cell never ran: only its labels are recorded
        record_benchmark(FakeBenchmark(), "baseline", query=6)
        assert mth_workload.BENCH_RECORDS == [
            {"query": 6, "level": "o4", "name": "mth", "median_ms": 12.5, "rounds": 3, "extra_info": {"rows": 4}},
            {"query": 6, "name": "baseline"},
        ]

    def test_a_cell_is_one_cold_round_of_the_query(self, small_workload, monkeypatch):
        """Both sides of a cell run once, without warm-up, on cleared UDF
        caches and statistics, and return the same rows on the same data (up
        to the currency round trip's float error)."""
        from repro.mth import results_match

        monkeypatch.setattr(mth_workload, "BENCH_RECORDS", [])
        small_workload.backend.stats.udf_calls = 123
        small_workload.baseline.stats.udf_calls = 123
        mth, baseline = FakeBenchmark(), FakeBenchmark()
        run_mth_query(mth, small_workload, TABLE_CONFIGS["5"], "o4", 6)
        run_baseline_query(baseline, small_workload, 6)
        assert mth.calls == baseline.calls == [{"rounds": 1, "iterations": 1, "warmup_rounds": 0}]
        assert small_workload.backend.stats.udf_calls != 123
        assert small_workload.baseline.stats.udf_calls != 123
        assert mth.result.rows and results_match(mth.result, baseline.result) is None
        assert mth_workload.BENCH_RECORDS == [
            {"query": 6, "level": "o4", "name": "mth"},
            {"query": 6, "name": "baseline"},
        ]
