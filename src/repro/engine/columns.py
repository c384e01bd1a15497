"""Typed columns: ``array``-backed payloads for NOT NULL table columns.

The generic batch kernels in :mod:`repro.engine.vector` loop over untyped
Python object lists and pay a per-element type guard (or a full
``sql_compare`` coercion) on every value.  Where the schema declares a
column NOT NULL the engine can do better, MonetDB/X100 style: store the
column once as a compact typed payload — an ``array('q')`` of integers, an
``array('d')`` of floats or an ``array('q')`` of day ordinals for dates —
and run specialized kernels that skip the per-value checks, NULL test
included, entirely.

The schema picks the columns; the payload still checks the values:
:func:`build_typed_column` verifies every stored value against the declared
:class:`~repro.sql.types.SQLType` and refuses (returns ``None``) on the
first mismatch — a NULL, a mixed-type column, a ``DECIMAL`` slot holding an
``int``, an integer outside the signed 64-bit range an ``array('q')`` can
hold.  Refusal is cheap and safe: the kernel falls back to its generic
object-list twin, which remains the semantic source of truth.  Bit-identity
is preserved by construction because every payload round-trips its values
exactly: ``array('d')`` stores IEEE-754 doubles (the engine's ``DECIMAL``),
``array('q')`` stores 64-bit integers, and dates are stored as their
:func:`~repro.sql.types.date_days` ordinal, whose ordering equals calendar
ordering.

:meth:`repro.engine.storage.TableData.typed_column` builds one
:class:`TypedColumn` (or the ``None`` refusal) per column of an immutable
table version, on the first typed kernel that asks, and keeps it for that
version's lifetime, so repeated scans of a stable table pay the check once
per write.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from ..sql.types import Date, SQLType, date_days, date_from_string

#: payload kinds whose elements behave like plain Python numbers under the
#: comparison/arithmetic operators (the codegen kernels require these)
NUMERIC_KINDS = frozenset({"int", "float"})

#: bounds of an ``array('q')`` slot; Python ints outside refuse typing
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class TypedColumn:
    """One type-stable, NULL-free column as a compact payload.

    ``kind`` names the element family:

    * ``"int"``   — ``values`` is an ``array('q')``,
    * ``"float"`` — ``values`` is an ``array('d')``,
    * ``"date"``  — ``values`` is an ``array('q')`` of day ordinals
      (:func:`repro.sql.types.date_days`).

    ``parsed`` marks a ``"date"`` payload some of whose cells were stored as
    ISO strings: against a ``Date`` those compare by their parsed ordinal,
    but two strings compare as text, so column-vs-column kernels leave such
    a column to the generic path.
    """

    __slots__ = ("kind", "values", "parsed")

    def __init__(self, kind: str, values: array, parsed: bool = False) -> None:
        self.kind = kind
        self.values = values
        self.parsed = parsed


def build_typed_column(sql_type: SQLType, values: Sequence) -> Optional[TypedColumn]:
    """Build a :class:`TypedColumn` for observed ``values``, or refuse.

    The declared ``sql_type`` selects the candidate payload; every value is
    then verified against it (exact ``type`` checks, not ``isinstance``, so
    ``bool`` never masquerades as ``int`` and subclasses cannot change
    round-trip behaviour).  A NULL or any mismatch returns ``None``, and so
    does a ``VARCHAR`` column (no kernel specializes over strings): the
    column stays on the generic object-list path.
    """
    if sql_type is SQLType.INTEGER:
        return _build_numeric(values, int, "q", "int")
    if sql_type is SQLType.DECIMAL:
        return _build_numeric(values, float, "d", "float")
    if sql_type is SQLType.DATE:
        return _build_date(values)
    return None


def _build_numeric(values: Sequence, element_type: type, typecode: str, kind: str):
    """``array(typecode)`` payload for an all-``element_type`` column."""
    payload = array(typecode)
    append = payload.append
    for value in values:
        if type(value) is not element_type:
            return None
        if element_type is int and not (_INT64_MIN <= value <= _INT64_MAX):
            return None
        append(value)
    return TypedColumn(kind, payload)


def _build_date(values: Sequence) -> Optional[TypedColumn]:
    """``array('q')`` of day ordinals for a stable DATE column.

    DATE slots commonly hold ISO strings (the engine stores dates as
    inserted); :func:`~repro.sql.types.sql_compare` parses those through
    :func:`~repro.sql.types.date_from_string` when comparing against a ``Date``, so
    pre-parsing to the same ordinal here is bit-identical.  A string that
    does not parse refuses the whole column — the generic path keeps the
    runtime error for it.
    """
    payload = array("q")
    append = payload.append
    parsed = False
    for value in values:
        if type(value) is Date:
            append(date_days(value))
        elif type(value) is str:
            parsed = True
            try:
                append(date_days(date_from_string(value)))
            except ValueError:
                return None
        else:
            return None
    return TypedColumn("date", payload, parsed)
