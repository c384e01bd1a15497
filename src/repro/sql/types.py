"""SQL value model: types, dates, intervals and NULL-aware helpers.

The engine stores values as plain Python objects:

* ``NULL``        -> ``None``
* ``INTEGER``     -> ``int``
* ``DECIMAL``     -> ``float`` (sufficient precision for the MT-H workload)
* ``VARCHAR``     -> ``str``
* ``DATE``        -> :class:`Date`, which *is* stdlib :class:`datetime.date`
  (day ordinals, parsing and calendar shifts are the ``date_*`` functions)
* ``INTERVAL``    -> :class:`Interval`
* ``BOOLEAN``     -> ``bool``

The helpers in this module implement SQL's three-valued comparison logic
(``None`` propagates) and the date/interval arithmetic needed by TPC-H style
queries (``date '1998-12-01' - interval '90' day``).
"""

from __future__ import annotations

import calendar
import datetime as _dt
import functools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from ..errors import TypeMismatchError


class SQLType(Enum):
    """Logical column types understood by the engine's catalog."""

    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"

    @classmethod
    def from_name(cls, name: str) -> "SQLType":
        """Map a SQL type name (possibly with a length spec) to a SQLType."""
        base = name.strip().upper()
        if "(" in base:
            base = base[: base.index("(")].strip()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "DECIMAL": cls.DECIMAL,
            "NUMERIC": cls.DECIMAL,
            "FLOAT": cls.DECIMAL,
            "DOUBLE": cls.DECIMAL,
            "REAL": cls.DECIMAL,
            "VARCHAR": cls.VARCHAR,
            "CHAR": cls.VARCHAR,
            "TEXT": cls.VARCHAR,
            "STRING": cls.VARCHAR,
            "DATE": cls.DATE,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
        }
        if base not in aliases:
            raise TypeMismatchError(f"unknown SQL type: {name!r}")
        return aliases[base]


#: types whose values share SQL's numeric comparison/arithmetic semantics
NUMERIC_TYPES = frozenset({SQLType.INTEGER, SQLType.DECIMAL, SQLType.BOOLEAN})


def is_numeric_type(sql_type: Optional[SQLType]) -> bool:
    """True when ``sql_type`` is known and numeric (INTEGER/DECIMAL/BOOLEAN)."""
    return sql_type in NUMERIC_TYPES


def comparison_compatible(left: Optional[SQLType], right: Optional[SQLType]) -> bool:
    """Static mirror of the runtime coercion lattice: may two values compare?

    ``None`` means "type unknown" and is compatible with everything — the
    static analyzer must never reject a statement the runtime
    (:func:`sql_compare` / :func:`_coerce_pair`) would accept.
    """
    if left is None or right is None:
        return True
    if left in NUMERIC_TYPES and right in NUMERIC_TYPES:
        return True
    if left is right:
        return True
    # a string coerces to a Date when the other side is a Date
    return {left, right} == {SQLType.DATE, SQLType.VARCHAR}


def arithmetic_result(
    left: Optional[SQLType], right: Optional[SQLType]
) -> Optional[SQLType]:
    """Statically inferred type of numeric ``left <op> right``.

    ``None`` (unknown) when either side is unknown; INTEGER only when both
    sides are integral, DECIMAL otherwise — mirroring Python's int/float
    promotion in the engine's evaluators.  Callers must have established
    that both sides are numeric (or DATE/INTERVAL, handled separately).
    """
    if left is None or right is None:
        return None
    if left is SQLType.INTEGER and right is SQLType.INTEGER:
        return SQLType.INTEGER
    return SQLType.DECIMAL


#: DATE values *are* stdlib dates: a C-level ``datetime.date`` is not
#: GC-tracked (so row tuples holding only atoms and dates get untracked by
#: the collector), compares and extracts in C, and is what PEP 249 expects.
Date = _dt.date

#: the ordinal of day number 0, the epoch of :func:`date_days`
EPOCH_ORDINAL = _dt.date(1970, 1, 1).toordinal()


@functools.lru_cache(maxsize=4096)
def date_from_days(days: int) -> Date:
    """The date ``days`` after 1970-01-01 (the wire / typed-column ordinal).

    The one shared constructor: generated data, wire pages, sqlite results
    and parsed literals hold one object per distinct day (bounded cache).
    """
    return _dt.date.fromordinal(days + EPOCH_ORDINAL)


def date_days(value: Date) -> int:
    """Days since 1970-01-01; inverse of :func:`date_from_days`."""
    return value.toordinal() - EPOCH_ORDINAL


def date_from_string(text: str) -> Date:
    """Parse an ISO ``YYYY-MM-DD`` string (surrounding whitespace ignored)."""
    return date_from_days(date_days(_dt.date.fromisoformat(text.strip())))


def date_add_days(value: Date, days: int) -> Date:
    """``value`` shifted by a (possibly negative) number of days."""
    return date_from_days(date_days(value) + days)


def date_add_months(value: Date, months: int) -> Date:
    """``value`` shifted by whole months, clamping the day to the month's end."""
    year, month = divmod(value.year * 12 + (value.month - 1) + months, 12)
    month += 1
    day = min(value.day, calendar.monthrange(year, month)[1])
    return date_from_days(date_days(_dt.date(year, month, day)))


class IntervalUnit(Enum):
    """The calendar unit of an :class:`Interval`."""

    DAY = "DAY"
    MONTH = "MONTH"
    YEAR = "YEAR"


@dataclass(frozen=True)
class Interval:
    """A SQL interval such as ``interval '3' month``."""

    amount: int
    unit: IntervalUnit

    def months(self) -> int:
        """The interval in months (MONTH/YEAR units only)."""
        if self.unit is IntervalUnit.MONTH:
            return self.amount
        if self.unit is IntervalUnit.YEAR:
            return self.amount * 12
        raise TypeMismatchError("day interval has no month component")

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"INTERVAL '{self.amount}' {self.unit.value}"


def add_date_interval(date: Date, interval: Interval, sign: int = 1) -> Date:
    """Compute ``date + sign * interval`` with calendar-aware month math."""
    if interval.unit is IntervalUnit.DAY:
        return date_add_days(date, sign * interval.amount)
    return date_add_months(date, sign * interval.months())


def sql_equal(left: Any, right: Any) -> Optional[bool]:
    """SQL ``=``: returns None when either side is NULL."""
    if left is None or right is None:
        return None
    left, right = _coerce_pair(left, right)
    return left == right


def sql_compare(left: Any, right: Any) -> Optional[int]:
    """Return -1/0/1 like ``cmp`` or ``None`` if either side is NULL."""
    if left is None or right is None:
        return None
    left, right = _coerce_pair(left, right)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def _coerce_pair(left: Any, right: Any) -> tuple[Any, Any]:
    """Coerce two non-NULL values into a comparable pair.

    Numeric values (int/float/bool) compare numerically.  A Date never
    compares with a number or a string; that is a query bug we want surfaced.
    """
    if isinstance(left, Date) and isinstance(right, Date):
        return left, right
    if isinstance(left, Date) or isinstance(right, Date):
        if isinstance(left, str):
            return _compared_date(left), right
        if isinstance(right, str):
            return left, _compared_date(right)
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    numeric = (int, float, bool)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    raise TypeMismatchError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


def _compared_date(text: str) -> Date:
    """A string compared with a DATE, parsed; one that is no ISO date is a
    type mismatch, as a number would be."""
    try:
        return date_from_string(text)
    except ValueError:
        raise TypeMismatchError(f"cannot compare date with {text!r}: not an ISO date") from None


def sort_key(value: Any) -> tuple:
    """A total-order key usable for ORDER BY / DISTINCT over mixed NULLs.

    NULLs sort first (PostgreSQL's ``NULLS LAST`` is not needed for MT-H).
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, float(value))
    if isinstance(value, Date):
        return (2, value)
    return (3, str(value))


def format_value(value: Any) -> str:
    """Human-readable rendering used by result printers and examples."""
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
