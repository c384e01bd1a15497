"""Benchmark workload setup: the paper's two scenarios plus custom configs.

* **Scenario 1** (§6.2) — a business alliance of ten small enterprises:
  ``T = 10``, uniform tenant shares, moderate scale factor.
* **Scenario 2** — a large medical-records database queried by a research
  institution: zipfian shares, ``D`` = all tenants, ``T`` swept over several
  orders of magnitude.

Scale factors are micro-scale by default (a pure-Python engine stands in for
PostgreSQL / System C); the harness always reports response times *relative
to the single-tenant TPC-H baseline on the same data*, which is the unit the
paper's figures use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..backends import BACKEND_NAMES, BackendConnection, create_backend
from ..core.middleware import MTBase
from ..core.optimizer.levels import OptimizationLevel
from ..errors import ConfigurationError
from ..gateway import GatewaySession, QueryGateway
from ..mth.dbgen import TPCHData, generate
from ..mth.loader import MTHInstance, load_mth, load_tpch_baseline


def env_scale_factor(default: Optional[float]) -> Optional[float]:
    """Scale factor override via ``REPRO_BENCH_SF`` (used by the pytest benches)."""
    value = os.environ.get("REPRO_BENCH_SF")
    if not value:
        return default
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigurationError(
            f"the REPRO_BENCH_SF environment variable must be a number "
            f"(a TPC-H scale factor such as 0.002), got {value!r}"
        ) from exc


def env_full(default: bool = False) -> bool:
    """Full-sweep override via ``REPRO_BENCH_FULL`` (``0`` or ``1``).

    ``1`` runs all 22 queries, all six optimization levels and the extended
    tenant/shard sweeps; anything other than the two literal flags raises
    :class:`~repro.errors.ConfigurationError` — a sweep that silently fell
    back to the short grid would publish partial figures as if complete.
    """
    value = os.environ.get("REPRO_BENCH_FULL", "").strip()
    if not value:
        return default
    if value == "1":
        return True
    if value == "0":
        return False
    raise ConfigurationError(
        f"the REPRO_BENCH_FULL environment variable must be '0' or '1' "
        f"(got {value!r})"
    )


def env_backend(default: str = "engine") -> str:
    """Execution-backend override via ``REPRO_BENCH_BACKEND`` (engine/sqlite).

    Lets the table/figure benchmarks run on a real database engine: with
    ``REPRO_BENCH_BACKEND=sqlite`` both the MT-H instance and the TPC-H
    baseline are loaded into SQLite and every measured statement executes
    there.
    """
    value = os.environ.get("REPRO_BENCH_BACKEND", "").strip().lower()
    if not value:
        return default
    if value.split(":")[0] not in BACKEND_NAMES:
        raise ConfigurationError(
            f"the REPRO_BENCH_BACKEND environment variable must be one of "
            f"{', '.join(BACKEND_NAMES)}, got {value!r}"
        )
    return value


def env_level(default: str = "o4") -> str:
    """Optimization-level override via ``REPRO_BENCH_LEVEL``.

    Sets the default level of :meth:`Workload.connection` /
    :meth:`Workload.gateway_session` (callers that pass ``optimization=``
    explicitly — like the per-level table sweeps — are unaffected), so the
    whole harness and the CI matrix can run at any Table-6 level.
    """
    value = os.environ.get("REPRO_BENCH_LEVEL", "").strip()
    if not value:
        return default
    try:
        return OptimizationLevel.from_name(value).value
    except ValueError as exc:
        raise ConfigurationError(
            f"the REPRO_BENCH_LEVEL environment variable must be one of "
            f"{', '.join(OptimizationLevel.levels())}, got {value!r}"
        ) from exc


def env_shards(default: int = 0) -> int:
    """Shard-count override via ``REPRO_BENCH_SHARDS``.

    A positive value loads the MT-H side of every workload onto a
    tenant-partitioned cluster of that many backends (of the
    ``REPRO_BENCH_BACKEND`` family); ``0`` (the default) keeps the single
    backend.  The TPC-H baseline is never sharded — the paper's unit of
    measure is "relative to single-backend TPC-H on the same data".
    """
    value = os.environ.get("REPRO_BENCH_SHARDS", "").strip()
    if not value:
        return default
    try:
        shards = int(value)
    except ValueError as exc:
        raise ConfigurationError(
            f"the REPRO_BENCH_SHARDS environment variable must be a "
            f"non-negative integer shard count, got {value!r}"
        ) from exc
    if shards < 0:
        raise ConfigurationError(
            f"the REPRO_BENCH_SHARDS environment variable must be a "
            f"non-negative integer shard count, got {value!r}"
        )
    return shards


@dataclass
class WorkloadConfig:
    """Parameters of one benchmark workload."""

    scale_factor: float = 0.002
    tenants: int = 10
    distribution: str = "uniform"
    profile: str = "postgres"
    seed: int = 20180326
    backend: str = field(default_factory=env_backend)
    #: 0 = single backend; N > 0 = N-shard tenant-partitioned cluster
    shards: int = field(default_factory=env_shards)
    #: default optimization level for connections/sessions opened without one
    level: str = field(default_factory=env_level)

    @classmethod
    def scenario1(cls, profile: str = "postgres", scale_factor: Optional[float] = None) -> "WorkloadConfig":
        """§6.2's business alliance: 10 tenants, uniform shares."""
        return cls(
            scale_factor=env_scale_factor(scale_factor if scale_factor is not None else 0.002),
            tenants=10,
            distribution="uniform",
            profile=profile,
        )

    @classmethod
    def scenario2(
        cls, tenants: int, profile: str = "postgres", scale_factor: Optional[float] = None
    ) -> "WorkloadConfig":
        """The research-institution scenario: zipfian shares, swept tenant counts."""
        return cls(
            scale_factor=env_scale_factor(scale_factor if scale_factor is not None else 0.002),
            tenants=tenants,
            distribution="zipf",
            profile=profile,
        )


@dataclass
class Workload:
    """A loaded workload: the MT-H instance and its TPC-H baseline."""

    config: WorkloadConfig
    data: TPCHData
    mth: MTHInstance
    baseline: BackendConnection
    _gateway: Optional[QueryGateway] = field(default=None, repr=False, compare=False)

    @property
    def middleware(self) -> MTBase:
        """The MT-H instance's MTBase middleware."""
        return self.mth.middleware

    @property
    def backend(self) -> BackendConnection:
        """The execution backend serving the MT-H side of the workload."""
        return self.mth.middleware.backend

    def connection(
        self, client: int = 1, optimization: Optional[str] = None, dataset: str = "all"
    ):
        """Open a client connection with the scope the experiments use.

        ``dataset`` is either ``"all"`` (empty IN list = every tenant) or an
        explicit scope string such as ``"IN (1)"``; ``optimization=None``
        uses the workload's configured level (``REPRO_BENCH_LEVEL``-aware).
        """
        connection = self.middleware.connect(
            client, optimization=optimization if optimization is not None else self.config.level
        )
        connection.set_scope("IN ()" if dataset == "all" else dataset)
        return connection

    def gateway(self, cache_size: Optional[int] = None) -> QueryGateway:
        """The (lazily created, shared) query gateway over this workload.

        ``cache_size=None`` reuses whatever gateway exists (creating one with
        the default capacity if none does); an explicit size that differs
        from the cached gateway's capacity replaces it (the old one keeps
        serving its existing sessions).
        """
        if self._gateway is None:
            self._gateway = self.middleware.gateway(
                cache_size=cache_size if cache_size is not None else 256
            )
        elif cache_size is not None and self._gateway.cache.capacity != cache_size:
            self._gateway.close()  # detach its metadata listener before replacing
            self._gateway = self.middleware.gateway(cache_size=cache_size)
        return self._gateway

    def gateway_session(
        self, client: int = 1, optimization: Optional[str] = None, dataset: str = "all"
    ) -> GatewaySession:
        """Like :meth:`connection`, but served through the query gateway."""
        return self.gateway().session(
            client,
            optimization=optimization if optimization is not None else self.config.level,
            scope="IN ()" if dataset == "all" else dataset,
        )

    def reset_caches(self) -> None:
        """Clear UDF result caches and statistics before a timed run."""
        self.backend.clear_function_caches()
        self.backend.reset_stats()
        self.baseline.clear_function_caches()
        self.baseline.reset_stats()


_WORKLOAD_CACHE: dict[tuple, Workload] = {}


def load_workload(config: WorkloadConfig, use_cache: bool = True) -> Workload:
    """Load (and memoize) a workload: generating data dominates set-up time."""
    key = (
        config.scale_factor,
        config.tenants,
        config.distribution,
        config.profile,
        config.seed,
        config.backend,
        config.shards,
        config.level,
    )
    if use_cache and key in _WORKLOAD_CACHE:
        return _WORKLOAD_CACHE[key]
    data = generate(scale_factor=config.scale_factor, seed=config.seed)
    if config.shards:
        if config.backend.startswith("sharded"):
            raise ConfigurationError(
                "REPRO_BENCH_SHARDS shards the chosen backend family; "
                "combine it with REPRO_BENCH_BACKEND=engine|sqlite, not "
                "with an already-sharded backend spec"
            )
        mth = load_mth(
            data=data,
            tenants=config.tenants,
            distribution=config.distribution,
            profile=config.profile,
            backend=config.backend,
            shards=config.shards,
        )
    else:
        mth = load_mth(
            data=data,
            tenants=config.tenants,
            distribution=config.distribution,
            profile=config.profile,
            backend=create_backend(config.backend, profile=config.profile),
        )
    baseline = load_tpch_baseline(
        data=data,
        profile=config.profile,
        backend=create_backend(config.backend, profile=config.profile),
    )
    workload = Workload(config=config, data=data, mth=mth, baseline=baseline)
    if use_cache:
        _WORKLOAD_CACHE[key] = workload
    return workload


def clear_workload_cache() -> None:
    """Drop every memoized workload (tests that mutate workloads call this)."""
    _WORKLOAD_CACHE.clear()
