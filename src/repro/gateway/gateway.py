"""The query gateway: a rewrite cache in front of MTBase.

:class:`QueryGateway` owns

* one shared :class:`~repro.gateway.cache.RewriteCache` (statement info +
  rewritten plans) for all sessions,
* the per-tenant :class:`~repro.gateway.session.GatewaySession` objects.

It runs no threads of its own: :class:`repro.server.ReproServer` serves
many sessions of one gateway concurrently, and any caller may drive its
sessions from threads of its own.

The gateway subscribes to the middleware's metadata-change signal, so any
DDL, GRANT/REVOKE, tenant registration or conversion-pair registration
flushes the cache before the next statement can observe a stale rewrite.
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
        self.cache = RewriteCache(
            capacity=cache_size,
            version_source=lambda: middleware.metadata_version,
        )
        self._sessions: list[GatewaySession] = []
        self._next_session_id = 1
        self._lock = threading.Lock()
        self._listener = middleware.on_metadata_change(self._on_metadata_change)
        self._closed = False

    # -- sessions -----------------------------------------------------------------

    def session(
        self,
        ttid: int,
        optimization: Optional[Union[str, OptimizationLevel]] = None,
        scope=None,
        backend=None,
    ) -> GatewaySession:
        """Open a serving session for tenant ``ttid``.

        ``backend`` routes the session to an alternate execution backend (a
        replica of the middleware's data); the rewrite cache keys entries on
        the backend's dialect, so differently-routed sessions never share a
        cached plan.
        """
        connection = self.middleware.connect(ttid, optimization=optimization, backend=backend)
        if scope is not None:
            connection.set_scope(scope)
        with self._lock:
            session = GatewaySession(self, connection, self._next_session_id)
            self._next_session_id += 1
            self._sessions.append(session)
            return session

    @property
    def sessions(self) -> list[GatewaySession]:
        """Snapshot of the currently registered sessions."""
        with self._lock:
            return list(self._sessions)

    def release(self, session: GatewaySession) -> None:
        """Forget a session (long-running gateways would otherwise accumulate
        one session object per connect forever); idempotent."""
        with self._lock:
            if session in self._sessions:
                self._sessions.remove(session)

    # -- cache maintenance ---------------------------------------------------------

    def _on_metadata_change(self, reason: str) -> None:
        self.cache.invalidate(reason=reason)

    def invalidate_cache(self, reason: str = "manual") -> int:
        """Flush the rewrite cache by hand; returns the dropped entry count."""
        return self.cache.invalidate(reason=reason)

    @property
    def cache_stats(self) -> CacheStats:
        """A consistent snapshot of the rewrite-cache counters."""
        return self.cache.stats_snapshot()

    def close(self) -> None:
        """Detach from the middleware and disable the cache.

        A detached cache would no longer see invalidations, so it is flushed
        and disabled: sessions still held by callers keep working, they just
        pay the cold path from here on.
        """
        if not self._closed:
            self.middleware.remove_metadata_listener(self._listener)
            self.cache.disable()
            self._closed = True

    def __enter__(self) -> "QueryGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.cache.stats
        return (
            f"QueryGateway(sessions={len(self._sessions)}, cache={len(self.cache)}/"
            f"{self.cache.capacity}, hit_rate={stats.hit_rate:.1%}, "
            f"invalidations={stats.invalidations})"
        )
