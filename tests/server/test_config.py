"""Server configuration: ``ServerConfig`` checks its values when built."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.server import ReproServer, ServerConfig

from tests.conftest import build_paper_example


def test_defaults():
    config = ServerConfig()
    assert config.host == "127.0.0.1"
    assert config.port == 0
    assert config.queue_depth == 32
    assert config.concurrency == 8
    assert config.workers == 8
    assert config.request_timeout == 30.0
    assert config.drain_timeout == 5.0


def test_fields_are_honoured():
    config = ServerConfig(
        port=5433, queue_depth=4, concurrency=2, workers=3, request_timeout=1.5
    )
    assert (config.port, config.queue_depth, config.concurrency) == (5433, 4, 2)
    assert (config.workers, config.request_timeout) == (3, 1.5)


@pytest.mark.parametrize(
    "fields",
    [
        {"port": 65535},
        {"queue_depth": 0},
        {"concurrency": 1},
        {"workers": 1},
        {"request_timeout": 0.001},
        {"drain_timeout": 1},
    ],
)
def test_boundary_values_are_accepted(fields):
    config = ServerConfig(**fields)
    for name, value in fields.items():
        assert getattr(config, name) == value


@pytest.mark.parametrize(
    ("fields", "match"),
    [
        ({"port": "http"}, "integer"),
        ({"port": -1}, "TCP port"),
        ({"port": 70000}, "TCP port"),
        ({"queue_depth": "many"}, "integer"),
        ({"queue_depth": -3}, ">= 0"),
        ({"concurrency": 0}, ">= 1"),
        ({"concurrency": 2.5}, "integer"),
        ({"concurrency": True}, "integer"),
        ({"workers": 0}, ">= 1"),
        ({"request_timeout": "soon"}, "seconds"),
        ({"request_timeout": 0}, "positive"),
        ({"request_timeout": -2}, "positive"),
        ({"request_timeout": math.nan}, "positive"),
        ({"drain_timeout": 0.0}, "positive"),
    ],
)
def test_out_of_range_values_raise_configuration_errors(fields, match):
    """A typo in a capacity value must fail loudly, never run a wrong server."""
    with pytest.raises(ConfigurationError, match=match):
        ServerConfig(**fields)


def test_a_server_without_a_config_uses_the_defaults():
    server = ReproServer(build_paper_example())
    try:
        assert server.config == ServerConfig()
        assert server.address == ("127.0.0.1", 0)
    finally:
        server.stop()
