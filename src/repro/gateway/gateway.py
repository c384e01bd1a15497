"""The query gateway: a rewrite cache in front of MTBase.

:class:`QueryGateway` owns one shared
:class:`~repro.gateway.cache.RewriteCache` (statement info + compiled plans)
and hands out per-tenant :class:`~repro.gateway.session.GatewaySession`
objects, each over an :class:`~repro.core.client.MTConnection` to the
middleware's one backend.  It keeps no list of its sessions: a session is
the caller's to hold and close.

It runs no threads of its own: :class:`repro.server.ReproServer` serves
many sessions of one gateway concurrently, and any caller may drive its
sessions from threads of its own.

Nothing needs to tell the gateway about metadata changes: cache keys carry
the middleware's metadata version (see :mod:`repro.gateway.cache`), so a
rewrite built before DDL, GRANT/REVOKE, a tenant or a conversion-pair
registration is never served after it.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

from ..core.middleware import MTBase
from ..core.optimizer.levels import OptimizationLevel
from .cache import CacheStats, RewriteCache
from .session import GatewaySession


class QueryGateway:
    """A multi-tenant serving layer wrapping one :class:`MTBase` instance."""

    def __init__(self, middleware: MTBase, cache_size: int = 256) -> None:
        self.middleware = middleware
        self.cache = RewriteCache(capacity=cache_size)
        self._next_session_id = 1  # HELLO replies carry the id
        self._lock = threading.Lock()

    def session(
        self,
        ttid: int,
        optimization: Optional[Union[str, OptimizationLevel]] = None,
        scope=None,
    ) -> GatewaySession:
        """Open a serving session for tenant ``ttid``."""
        connection = self.middleware.connect(ttid, optimization=optimization)
        if scope is not None:
            connection.set_scope(scope)
        with self._lock:
            session_id = self._next_session_id
            self._next_session_id += 1
        return GatewaySession(self, connection, session_id)

    def invalidate_cache(self, reason: str = "manual") -> int:
        """Flush the rewrite cache by hand; returns the dropped entry count."""
        return self.cache.invalidate(reason=reason)

    @property
    def cache_stats(self) -> CacheStats:
        """A consistent snapshot of the rewrite-cache counters."""
        return self.cache.stats_snapshot()

    def close(self) -> None:
        """Drop every cached entry.

        Sessions still held by callers keep working: their next statements
        compile again and refill the cache.
        """
        self.invalidate_cache("close")

    def __enter__(self) -> "QueryGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.cache_stats
        return (
            f"QueryGateway(cache={len(self.cache)}/{self.cache.capacity}, "
            f"hit_rate={stats.hit_rate:.1%}, invalidations={stats.invalidations})"
        )
