"""The gateway's rewrite cache.

The middleware pipeline — parse → scope resolution → privilege pruning →
canonical MTSQL→SQL rewrite → optimization passes — runs on every statement
(`benchmarks/test_ablation_rewrite_overhead.py` measures that cost).  The
:class:`RewriteCache` amortizes it across repeat executions:

* a **statement-info cache** maps ``(fingerprint, metadata version)`` to the
  parsed AST and the tenant-specific tables it touches, so a repeat
  execution skips the parse and the table walk needed for privilege pruning,
* a **plan cache** maps a :class:`CacheKey` — ``(fingerprint, client ttid,
  resolved D', optimization level, metadata version)`` — to the whole
  :class:`~repro.compile.CompiledQuery` artifact, so a repeat execution
  skips the entire compilation — and, because the artifact carries the
  shardability analysis and memoizes the backend's derived plan, a warm hit
  on a sharded backend skips shard planning too.

The resolved data set ``D'`` is part of the key because the rewritten SQL
embeds it (ttid IN-lists, per-tenant conversion constants); a scope or
privilege change that yields a different ``D'`` naturally misses.  Metadata
changes that alter the rewrite *for the same* ``D'`` — DDL, GRANT/REVOKE,
new tenants (they flip the "D = all tenants" trivial optimization),
conversion registrations — bump :attr:`MTBase.metadata_version
<repro.core.middleware.MTBase.metadata_version>`.  The session reads that
version before it parses or compiles and puts it into both keys, so an
entry built from older metadata is never looked up again: it ages out by
LRU instead of being flushed.

Both maps are LRU with a bounded capacity (the statement-info map holds
four entries per plan slot) and are safe to share between threads (a
single re-entrant lock; every operation is a dict move, far cheaper than
the rewrite it saves).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from ..core.optimizer.levels import OptimizationLevel
from ..sql import ast

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compile.artifact import CompiledQuery
    from ..sql.params import ParameterSlot

#: a statement-info key: ``(fingerprint, metadata version)``
InfoKey = tuple[str, int]


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached rewrite."""

    digest: str
    client: int
    dataset: tuple[int, ...]
    level: OptimizationLevel
    #: the middleware metadata version the rewrite was built against
    version: int


@dataclass(frozen=True)
class StatementInfo:
    """Parse-time facts about a statement, cached per fingerprint and version."""

    statement: ast.Statement
    tables: tuple[str, ...]
    #: the statement's bind-parameter slots (empty when unparameterized); the
    #: session resolves client-supplied values against these without
    #: re-walking the AST
    parameters: tuple["ParameterSlot", ...] = ()


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


def _insert(entries: OrderedDict, key, value, bound: int) -> int:
    """Store ``value`` as the most recent entry, drop the oldest entries
    beyond ``bound`` and return how many were dropped."""
    entries[key] = value
    entries.move_to_end(key)
    dropped = 0
    while len(entries) > bound:
        entries.popitem(last=False)
        dropped += 1
    return dropped


class RewriteCache:
    """Bounded, thread-safe LRU cache for statement info and compiled plans."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[CacheKey, "CompiledQuery"] = OrderedDict()
        self._info: OrderedDict[InfoKey, StatementInfo] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- statement info ---------------------------------------------------------

    def get_info(self, key: InfoKey) -> Optional[StatementInfo]:
        """Cached parse-time facts for ``(fingerprint, version)`` (LRU-touched)."""
        with self._lock:
            info = self._info.get(key)
            if info is not None:
                self._info.move_to_end(key)
            return info

    def put_info(self, key: InfoKey, info: StatementInfo) -> None:
        """Cache parse-time facts."""
        with self._lock:
            _insert(self._info, key, info, 4 * self.capacity)

    # -- compiled plans ---------------------------------------------------------

    def get(self, key: CacheKey) -> Optional["CompiledQuery"]:
        """Probe the plan cache (counts a hit/miss, LRU-touches on hit)."""
        with self._lock:
            compiled = self._plans.get(key)
            if compiled is None:
                self.stats.misses += 1
                return None
            self._plans.move_to_end(key)
            self.stats.hits += 1
            return compiled

    def put(self, key: CacheKey, compiled: "CompiledQuery") -> None:
        """Cache a compiled statement."""
        with self._lock:
            self.stats.evictions += _insert(self._plans, key, compiled, self.capacity)

    # -- maintenance ------------------------------------------------------------

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters (taken under the cache lock)."""
        with self._lock:
            return self.stats.snapshot()

    def invalidate(self, reason: str = "") -> int:
        """Drop every entry; returns the number of plans dropped."""
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
