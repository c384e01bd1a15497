"""repro.gateway — a caching multi-tenant query gateway.

The rewrite cache in front of the paper's middleware (Figure 4): statement
fingerprinting, a rewrite cache with LRU eviction and metadata-driven
invalidation, and per-tenant sessions with a prepared-statement API.
Serving many tenants at once is :mod:`repro.server`'s job: its worker pool
runs the sessions of its connections concurrently.

Typical use::

    from repro.gateway import QueryGateway

    gateway = QueryGateway(middleware, cache_size=512)
    session = gateway.session(ttid=1, optimization="o4", scope="IN ()")
    handle = session.prepare("SELECT ... FROM ...")
    result = session.execute(handle)          # cold: parse + rewrite + run
    result = session.execute(handle)          # warm: cache hit, run only
    print(gateway.cache_stats.hit_rate)
"""

from .cache import CacheKey, CachedPlan, CacheStats, RewriteCache, StatementInfo
from .fingerprint import Fingerprint, fingerprint_statement
from .gateway import QueryGateway
from .session import GatewaySession, PreparedStatement, SessionStats

__all__ = [
    "QueryGateway",
    "GatewaySession",
    "PreparedStatement",
    "SessionStats",
    "RewriteCache",
    "CacheKey",
    "CachedPlan",
    "CacheStats",
    "StatementInfo",
    "Fingerprint",
    "fingerprint_statement",
]
