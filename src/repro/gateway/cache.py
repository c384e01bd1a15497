"""The gateway's rewrite cache.

The middleware pipeline — parse → scope resolution → privilege pruning →
canonical MTSQL→SQL rewrite → optimization passes — runs on every statement
(`benchmarks/test_ablation_rewrite_overhead.py` measures that cost).  The
:class:`RewriteCache` amortizes it across repeat executions:

* a **statement-info cache** maps a fingerprint digest to the parsed AST and
  the tenant-specific tables it touches, so a repeat execution skips the
  parse and the table walk needed for privilege pruning,
* a **plan cache** maps ``(digest, client ttid, resolved D', optimization
  level)`` to the whole :class:`~repro.compile.CompiledQuery` artifact, so a
  repeat execution skips the entire compilation — and, because the artifact
  carries the shardability analysis and memoizes the backend's derived plan,
  a warm hit on a sharded backend skips shard planning too.

The resolved data set ``D'`` is part of the key because the rewritten SQL
embeds it (ttid IN-lists, per-tenant conversion constants); a scope or
privilege change that yields a different ``D'`` naturally misses.  Metadata
changes that alter the rewrite *for the same key* — DDL, GRANT/REVOKE, new
tenants (they flip the "D = all tenants" trivial optimization), conversion
registrations — must invalidate explicitly; :class:`~repro.gateway.gateway.
QueryGateway` subscribes to the middleware's metadata-change signal for
that.

Both maps are LRU with a bounded capacity (the statement-info map holds
four entries per plan slot) and are safe to share between threads (a single re-entrant lock; every operation is a dict move, far
cheaper than the rewrite it saves).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

from ..core.optimizer.levels import OptimizationLevel
from ..sql import ast
from .fingerprint import Fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile.artifact import CompiledQuery
    from ..sql.params import ParameterSlot


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached rewrite.

    ``dialect`` is the executing backend's dialect name: sessions of one
    gateway may route to different backends, and although the cached value
    is a dialect-neutral AST, sharing entries across dialects would corrupt
    the per-backend hit/invalidation accounting the benchmarks rely on.
    """

    digest: str
    client: int
    dataset: tuple[int, ...]
    level: OptimizationLevel
    dialect: str = "default"


@dataclass(frozen=True)
class StatementInfo:
    """Parse-time facts about a statement, cached per fingerprint digest."""

    statement: ast.Statement
    tables: tuple[str, ...]
    fingerprint: Fingerprint
    #: the statement's bind-parameter slots (empty when unparameterized); the
    #: session resolves client-supplied values against these without
    #: re-walking the AST
    parameters: tuple["ParameterSlot", ...] = ()


@dataclass(frozen=True)
class CachedPlan:
    """One cache entry: a compiled statement ready for the DBMS."""

    #: the full compilation artifact (what the session executes and the
    #: sharded backend memoizes its plan on)
    compiled: "CompiledQuery"
    key: CacheKey

    @property
    def rewritten(self) -> ast.Select:
        """The rewritten statement to execute."""
        return self.compiled.rewritten


@dataclass
class CacheStats:
    """Hit/miss counters, surfaced by the gateway and the benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    invalidation_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        """Total plan-cache probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """A defensive copy (the reasons dict is mutated in place)."""
        return replace(self, invalidation_reasons=dict(self.invalidation_reasons))


class RewriteCache:
    """Bounded, thread-safe LRU cache for statement info and rewritten plans.

    ``version_source`` (typically ``lambda: middleware.metadata_version``)
    closes the put-after-invalidate race: a writer snapshots the version via
    :meth:`current_version` *before* parsing/rewriting and passes it to
    :meth:`put`/:meth:`put_info`, which reject the entry (under the same lock
    :meth:`invalidate` takes) if the metadata changed in between.  The caller
    still executes its freshly computed plan once — equivalent to a direct
    connection racing the metadata change — but a stale plan can never be
    *cached* past the flush that was meant to remove it.
    """

    def __init__(
        self,
        capacity: int = 256,
        version_source: Optional[Callable[[], int]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[CacheKey, CachedPlan] = OrderedDict()
        self._info: OrderedDict[str, StatementInfo] = OrderedDict()
        self._lock = threading.RLock()
        self._version_source = version_source if version_source is not None else (lambda: 0)
        self._disabled = False
        self.stats = CacheStats()

    def current_version(self) -> int:
        """The metadata version to snapshot before computing a cacheable entry."""
        return self._version_source()

    def _version_is_stale(self, version: Optional[int]) -> bool:
        return version is not None and version != self._version_source()

    # -- statement info ---------------------------------------------------------

    def get_info(self, digest: str) -> Optional[StatementInfo]:
        """Cached parse-time facts for a fingerprint digest (LRU-touched)."""
        with self._lock:
            info = self._info.get(digest)
            if info is not None:
                self._info.move_to_end(digest)
            return info

    def put_info(self, digest: str, info: StatementInfo, version: Optional[int] = None) -> None:
        """Cache parse-time facts; rejected when ``version`` is stale."""
        with self._lock:
            if self._disabled or self._version_is_stale(version):
                return
            self._info[digest] = info
            self._info.move_to_end(digest)
            while len(self._info) > 4 * self.capacity:
                self._info.popitem(last=False)

    # -- rewritten plans --------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[CachedPlan]:
        """Probe the plan cache (counts a hit/miss, LRU-touches on hit)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._plans.move_to_end(key)
            self.stats.hits += 1
            return plan

    def put(
        self, key: CacheKey, compiled: "CompiledQuery", version: Optional[int] = None
    ) -> CachedPlan:
        """Cache a compiled statement; rejected (but returned) when stale."""
        plan = CachedPlan(compiled=compiled, key=key)
        with self._lock:
            if self._disabled or self._version_is_stale(version):
                return plan  # computed from pre-change metadata: execute, don't cache
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.stats.evictions += 1
        return plan

    # -- maintenance ------------------------------------------------------------

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters (taken under the cache lock)."""
        with self._lock:
            return self.stats.snapshot()

    def disable(self) -> None:
        """Flush and permanently disable caching.

        Called when a gateway detaches from the middleware's metadata-change
        signal: without invalidation the cache could silently go stale, so
        orphaned sessions fall back to cold (correct, merely uncached)
        execution instead.
        """
        with self._lock:
            self._disabled = True
            self._plans.clear()
            self._info.clear()

    def invalidate(self, reason: str = "") -> int:
        """Drop every entry (DDL / privilege / tenant metadata changed)."""
        with self._lock:
            dropped = len(self._plans)
            self._plans.clear()
            self._info.clear()
            self.stats.invalidations += 1
            if reason:
                reasons = self.stats.invalidation_reasons
                reasons[reason] = reasons.get(reason, 0) + 1
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __repr__(self) -> str:
        stats = self.stats_snapshot()
        return (
            f"RewriteCache(plans={len(self)}/{self.capacity}, hits={stats.hits}, "
            f"misses={stats.misses}, hit_rate={stats.hit_rate:.1%})"
        )
