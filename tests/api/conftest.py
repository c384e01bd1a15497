"""Fixtures for the DB-API suite: shared MT-H instances per backend family,
and ``connect`` over middleware and gateway targets in process and served."""

from __future__ import annotations

import pytest

import repro.api as api
from repro.backends import SQLiteBackend
from repro.mth.loader import load_mth
from repro.server import ReproServer

TENANTS = 4


@pytest.fixture(scope="package")
def tiny_mth_engine(tiny_tpch_data):
    """MT-H on the in-memory engine (package-shared, read-only)."""
    return load_mth(data=tiny_tpch_data, tenants=TENANTS, distribution="uniform")


@pytest.fixture(scope="package")
def tiny_mth_sqlite(tiny_tpch_data):
    """The same MT-H data on a real DBMS (SQLite)."""
    factory = SQLiteBackend()
    instance = load_mth(
        data=tiny_tpch_data, tenants=TENANTS, distribution="uniform", backend=factory
    )
    yield instance
    factory.close()


@pytest.fixture(scope="package")
def tiny_mth_sharded(tiny_tpch_data):
    """The same MT-H data on a 2-shard tenant-partitioned engine cluster."""
    return load_mth(
        data=tiny_tpch_data, tenants=TENANTS, distribution="uniform", shards=2
    )


@pytest.fixture(params=("in-process", "server"))
def mt_connect(request):
    """``api.connect`` for an ``MTBase`` or ``QueryGateway`` target, run twice.

    ``in-process`` is ``api.connect`` itself.  ``server`` fronts each distinct
    target object with one :class:`~repro.server.ReproServer` (started on
    first use, reused by the test's later connections, stopped after the
    test) and connects through ``server://``, so the same test drives the
    real TCP socket and frame protocol.
    """
    if request.param == "in-process":
        yield api.connect
        return
    servers: dict[int, tuple[object, ReproServer]] = {}

    def connect(target, client=None, optimization=None, scope=None):
        entry = servers.get(id(target))
        if entry is None:  # holding the target keeps its id unique
            entry = servers[id(target)] = (target, ReproServer(target).start())
        host, port = entry[1].address
        return api.connect(
            f"server://{host}:{port}",
            client=client,
            optimization=optimization,
            scope=scope,
        )

    yield connect
    for _target, server in servers.values():
        server.stop()
