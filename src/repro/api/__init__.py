"""repro.api — a PEP 249 (DB-API 2.0) driver surface for the MTBase repro.

MTBase is a *middleware/driver*: clients submit (MT)SQL through a thin layer
that rewrites it once and executes it many times.  This package is that
driver shaped the way Python database tooling expects::

    import repro.api

    connection = repro.api.connect(gateway, client=3, scope="IN ()")
    cursor = connection.cursor()
    cursor.execute(
        "SELECT l_returnflag, SUM(l_quantity) FROM lineitem "
        "WHERE l_shipdate <= ? GROUP BY l_returnflag",
        (repro.api.Date(1998, 9, 2),),
    )
    for row in cursor:
        ...

:func:`connect` fronts every existing entry point — an
:class:`~repro.core.middleware.MTBase` middleware, a
:class:`~repro.gateway.gateway.QueryGateway` or one of its sessions, a bare
:class:`~repro.core.client.MTConnection`, or any execution backend
(``"engine"``, ``"sqlite"``, ``"sharded:2"``, a ``Backend`` /
``BackendConnection``) — behind one :class:`Connection` → :class:`Cursor`
surface with bind parameters and incremental ``fetchmany`` streaming.

Module globals follow PEP 249: :data:`apilevel`, :data:`threadsafety`,
:data:`paramstyle` and the exception hierarchy (aliases onto
:mod:`repro.errors`, so library code keeps raising its native types and both
spellings catch them).  See ``docs/api.md`` for the full mapping table,
per-backend paramstyle notes and streaming semantics.
"""

from __future__ import annotations

from ..errors import (
    BackendError,
    ConstraintViolation,
    ExecutionError,
    InvalidStatementError,
    ParameterError,
    ReproError,
    SQLError,
    TypeMismatchError,
)
from ..errors import NotSupportedError as _NotSupportedError
# PEP 249 ``Date(year, month, day)``: the class of every DATE value the
# driver returns or binds, stdlib ``datetime.date``
from ..sql.types import Date
from .connection import Connection, connect
from .cursor import Cursor

#: DB-API level implemented (PEP 249).
apilevel = "2.0"

#: Threads may share the module, but not connections: only the gateway path
#: serializes statements internally — direct MTConnection and bare-backend
#: targets do not, so sharing a connection needs external locking.
threadsafety = 1

#: Positional placeholders are ``qmark`` (``?`` / ``?NNN``); ``named``
#: (``:name``) parameters are accepted as well — see ``docs/api.md``.
paramstyle = "qmark"


# -- PEP 249 exception hierarchy (aliases onto repro.errors) -----------------

#: PEP 249 ``Warning`` — this driver never raises it, exported for tooling.
Warning = UserWarning  # noqa: A001 - PEP 249 mandates the name

#: Base class of every error the driver raises.
Error = ReproError

#: Driver misuse: wrong target type, closed connection/cursor, bad routing.
InterfaceError = BackendError

#: Anything the database layers reject at compile or execution time.
DatabaseError = SQLError

#: Value/type problems inside expressions.
DataError = TypeMismatchError

#: Statement failures during execution.
OperationalError = ExecutionError

#: Declared-constraint violations reported by a backend.
IntegrityError = ConstraintViolation

#: The driver has no separate "internal error" class; alias of
#: :data:`DatabaseError` (keeping PEP 249's hierarchy intact).
InternalError = SQLError

#: Bad SQL or bad bind values (``InvalidStatementError`` / ``ParameterError``
#: both subclass it).
ProgrammingError = SQLError

#: Operations the middleware deliberately does not provide.
NotSupportedError = _NotSupportedError


# -- PEP 249 type constructors ----------------------------------------------


def DateFromTicks(ticks: float) -> Date:
    """Construct a date bind value from a POSIX timestamp (local time)."""
    return Date.fromtimestamp(ticks)


def Binary(data) -> bytes:
    """Construct a binary bind value (stored as ``bytes``)."""
    return bytes(data)


__all__ = [
    "apilevel",
    "threadsafety",
    "paramstyle",
    "connect",
    "Connection",
    "Cursor",
    "Date",
    "DateFromTicks",
    "Binary",
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    "InvalidStatementError",
    "ParameterError",
]
