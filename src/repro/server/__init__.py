"""repro.server — the network serving tier.

The layer that turns the in-process serving stack into a database *service*:
a thread-per-connection TCP server speaking a length-prefixed JSON frame
protocol (HELLO / PREPARE / EXECUTE / FETCH / EXPLAIN / CLOSE), with
per-tenant admission control — bounded queues, concurrency caps, retryable
``SERVER_BUSY`` shedding, per-request timeouts — and graceful drain.  Each
connection's thread reads its requests, runs them on the backend (at most
``workers`` at once, server-wide) and writes the replies itself;
an EXECUTE reply carries a SELECT's first page (a result that fits it is one
round trip), the rest streams to clients in demand-sized FETCH batches, and
an open result cursor keeps holding its tenant's admission slot, which is
what turns a slow consumer into backpressure on *that tenant* instead of
server-side buffering.

Server side::

    from repro.server import serve

    config = ServerConfig(port=5433, concurrency=4)
    with serve(middleware, config=config) as server:   # or a QueryGateway
        ...                                             # server.address is live

Client side — natively async, or the unchanged DB-API surface::

    from repro.server import AsyncSession
    session = await AsyncSession.open("db.host", 5433, client=3)

    from repro import api
    connection = api.connect("server://db.host:5433", client=3)

A :class:`ServerConfig` is the one way to configure a server; the package
reads no environment variables.  See ``docs/server.md`` for the protocol and
operational details.
"""

from .admission import AdmissionController, AdmissionSnapshot, TenantGate
from .client import AsyncSession, RemoteRowStream, SyncSession
from .config import ServerConfig
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WIRE_CODES,
    error_code,
    error_frame,
    exception_from_frame,
)
from .server import ReproServer, serve

__all__ = [
    "ReproServer",
    "serve",
    "ServerConfig",
    "AsyncSession",
    "SyncSession",
    "RemoteRowStream",
    "AdmissionController",
    "AdmissionSnapshot",
    "TenantGate",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "WIRE_CODES",
    "error_code",
    "error_frame",
    "exception_from_frame",
]
