"""Typed columns: ``array``-backed payloads for type-stable table columns.

The generic batch kernels in :mod:`repro.engine.vector` loop over untyped
Python object lists and pay a per-element type guard (or a full
``sql_compare`` coercion) on every value.  Where a column's type is
*provably stable* the engine can do better, MonetDB/X100 style: store the
column once as a compact typed payload — an ``array('q')`` of integers, an
``array('d')`` of floats, an ``array('q')`` of day ordinals for dates, or a
plain string list — plus an explicit null index set, and run specialized
kernels that skip the per-value checks entirely.

Stability is *observed*, not assumed: :func:`build_typed_column` checks
every stored value against the declared :class:`~repro.sql.types.SQLType`
and refuses (returns ``None``) on the first mismatch — a mixed-type column,
a ``DECIMAL`` slot holding an ``int``, an integer outside the signed 64-bit
range an ``array('q')`` can hold.  Refusal is cheap and safe: callers fall
back to the generic object-list kernels, which remain the semantic source
of truth.  Bit-identity is preserved by construction because every payload
round-trips its values exactly: ``array('d')`` stores IEEE-754 doubles (the
engine's ``DECIMAL``), ``array('q')`` stores 64-bit integers, and dates are
stored as their :func:`~repro.sql.types.date_days` ordinal, whose ordering
equals calendar ordering.

:meth:`repro.engine.storage.TableData.typed_column` builds one
:class:`TypedColumn` (or the ``None`` refusal) per column of an immutable
table version and keeps it for that version's lifetime, so repeated scans of
a stable table pay the stability check once per write.
``REPRO_ENGINE_TYPED=0`` switches the whole layer off (see
:mod:`repro.engine.config`).
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
    """One type-stable column: a compact payload plus an explicit null set.

    ``kind`` names the element family:

    * ``"int"``   — ``values`` is an ``array('q')``; NULL slots hold ``0``,
    * ``"float"`` — ``values`` is an ``array('d')``; NULL slots hold ``0.0``,
    * ``"date"``  — ``values`` is an ``array('q')`` of day ordinals
      (:func:`repro.sql.types.date_days`); NULL slots hold ``0``,
    * ``"str"``   — ``values`` is the object list itself (strings and
      ``None``), kept by reference for zero-copy column access.

    ``nulls`` is a ``frozenset`` of payload positions holding SQL NULL, or
    ``None`` for a null-free column — the "null bitmap" of the typed layer.
    Specialized kernels index ``values`` directly and consult ``nulls``
    only when present, so the null-free hot path runs with no per-element
    branching beyond the operator itself.

    ``parsed`` marks a ``"date"`` payload some of whose cells were stored as
    ISO strings: against a ``Date`` those compare by their parsed ordinal,
    but two strings compare as text, so column-vs-column kernels leave such
    a column to the generic path.
    """

    __slots__ = ("kind", "values", "nulls", "parsed")

    def __init__(
        self,
        kind: str,
        values,
        nulls: Optional[frozenset] = None,
        parsed: bool = False,
    ) -> None:
        self.kind = kind
        self.values = values
        self.nulls = nulls
        self.parsed = parsed

    @property
    def null_free(self) -> bool:
        """Whether the column holds no SQL NULL at all."""
        return self.nulls is None

    def object_values(self):
        """The payload *as the object column*, or ``None`` when they differ.

        A ``"str"`` payload and a null-free numeric payload can serve
        directly as the column array handed to generic kernels (iteration
        yields exactly the stored objects).  Numeric payloads **with**
        nulls pad the NULL slots with ``0``, and date payloads hold day
        ordinals instead of :class:`~repro.sql.types.Date` objects — both
        return ``None`` so callers gather objects the generic way.
        """
        if self.kind == "str":
            return self.values
        if self.kind in NUMERIC_KINDS and self.nulls is None:
            return self.values
        return None


def build_typed_column(sql_type: SQLType, values: Sequence) -> Optional[TypedColumn]:
    """Build a :class:`TypedColumn` for observed ``values``, or refuse.

    The declared ``sql_type`` selects the candidate payload; every value is
    then verified against it (exact ``type`` checks, not ``isinstance``, so
    ``bool`` never masquerades as ``int`` and subclasses cannot change
    round-trip behaviour).  Any mismatch returns ``None`` — the column is
    not provably stable and stays on the generic object-list path.
    """
    if sql_type is SQLType.INTEGER:
        return _build_numeric(values, int, "q", "int")
    if sql_type is SQLType.DECIMAL:
        return _build_numeric(values, float, "d", "float")
    if sql_type is SQLType.DATE:
        return _build_date(values)
    if sql_type is SQLType.VARCHAR:
        return _build_str(values)
    return None


def _build_numeric(values: Sequence, element_type: type, typecode: str, kind: str):
    """``array(typecode)`` payload for an all-``element_type`` column."""
    payload = array(typecode)
    append = payload.append
    nulls: list[int] = []
    for position, value in enumerate(values):
        if type(value) is element_type:
            if element_type is int and not (_INT64_MIN <= value <= _INT64_MAX):
                return None
            append(value)
        elif value is None:
            nulls.append(position)
            append(0)
        else:
            return None
    return TypedColumn(kind, payload, frozenset(nulls) if nulls else None)


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
    nulls: list[int] = []
    parsed = False
    for position, value in enumerate(values):
        if type(value) is Date:
            append(date_days(value))
        elif type(value) is str:
            parsed = True
            try:
                append(date_days(date_from_string(value)))
            except ValueError:
                return None
        elif value is None:
            nulls.append(position)
            append(0)
        else:
            return None
    return TypedColumn("date", payload, frozenset(nulls) if nulls else None, parsed)


def _build_str(values: Sequence) -> Optional[TypedColumn]:
    """Zero-copy string payload (the object list itself) with a null set."""
    nulls: list[int] = []
    for position, value in enumerate(values):
        if value is None:
            nulls.append(position)
        elif type(value) is not str:
            return None
    payload = values if isinstance(values, list) else list(values)
    return TypedColumn("str", payload, frozenset(nulls) if nulls else None)
