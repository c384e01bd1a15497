"""Serving-tier configuration: admission, backend-concurrency and timeout knobs.

A :class:`ServerConfig` gathers every tunable of :class:`repro.server.
ReproServer`; it is the one way to configure a server.  Its values come from
outside the program (a deployment script, a command line), so a config is
checked when it is built: a value out of range raises
:class:`~repro.errors.ConfigurationError` instead of starting a server with
the wrong capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ServerConfig:
    """Every tunable of the serving tier, with deployment-sane defaults.

    ``queue_depth`` bounds how many requests *per tenant* may wait behind the
    ``concurrency`` in-flight ones before admission sheds with
    ``SERVER_BUSY``; ``request_timeout`` bounds one request's wall time
    (admission wait included); ``workers`` bounds how many requests run
    backend work at once, server-wide (each connection has its own thread;
    connections are not capped); ``drain_timeout`` bounds the graceful
    shutdown's wait for in-flight work.  ``port`` 0 picks an ephemeral port.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_depth: int = 32
    concurrency: int = 8
    workers: int = 8
    request_timeout: float = 30.0
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if not 0 <= _integer("port", self.port) <= 65535:
            raise ConfigurationError(
                f"the server port must be a TCP port (0-65535, got {self.port})"
            )
        for name, minimum in (("queue_depth", 0), ("concurrency", 1), ("workers", 1)):
            value = _integer(name, getattr(self, name))
            if value < minimum:
                raise ConfigurationError(
                    f"the server {name} must be >= {minimum} (got {value})"
                )
        for name in ("request_timeout", "drain_timeout"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"the server {name} must be a number of seconds (got {value!r})"
                )
            if not value > 0:
                raise ConfigurationError(
                    f"the server {name} must be positive (got {value})"
                )


def _integer(name: str, value) -> int:
    """``value`` if it is an integer (not a bool), else a configuration error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"the server {name} must be an integer (got {value!r})"
        )
    return value
