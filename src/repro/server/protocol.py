"""The wire protocol of the serving tier: framing, value codec, error codes.

Every message is one **frame**: a 4-byte big-endian payload length followed
by a UTF-8 JSON object.  Requests carry an ``op`` field (HELLO, PREPARE,
EXECUTE, FETCH, EXPLAIN, CLOSE_CURSOR, CLOSE); responses either repeat the
request's shape with ``ok: true`` or are **error frames**::

    {"ok": false, "error": "SERVER_BUSY", "message": "...", "retryable": true}

``error`` is a stable wire code mapped 1:1 onto the :mod:`repro.errors`
taxonomy (:data:`WIRE_CODES`), so a client reconstructs the *same* exception
class the server raised — ``except ParameterError`` works identically on
both sides of the socket.

An EXECUTE request states in ``fetch`` how many rows it wants with the reply
(:data:`PAGE_ROWS` from the blocking client): a SELECT whose result fits
that **first page** is one round trip and opens no server-side cursor.  The
first page and every FETCH reply carry a **column-major typed page**
(:func:`encode_rows`):
``{"cols": [...], "tags": [[index, kind], ...]}``.  A column whose cells are
all exactly ``int`` (within 64 bits), all exactly ``float`` or all exactly
:class:`~repro.sql.types.Date` ships **binary**: one base64 string of a
little-endian packed array — ints in the narrowest of 1, 2, 4 or 8 signed
bytes that holds the page's min and max (kinds ``i8`` … ``i64``), floats as
8-byte IEEE (``f64``), dates as signed day numbers since 1970-01-01
(``days8`` … ``days32``).  A binary column's row count is its byte length
over its width.  Every other column is a JSON list: JSON-native cells
(``int``/``float``/``str``/``bool``/``None``) ship untouched and untagged; a
``None``-bearing date column ships as day ordinals (kind ``date``), an
all-``bytes`` column as hex (``bytes``), ``None`` staying ``None``; only a
genuinely mixed column falls back to per-cell tagged scalars (``mixed``).
The type census, the transposes, the packing and JSON itself run at C speed,
so a numeric, date or plain column costs no per-cell Python on either side.
A decoded page shares repeated strings, dates and packed numbers (one object
per distinct value), as an in-process result shares the stored values.
Bind parameters use the scalar codec: ``{"$date": days}`` /
``{"$bytes": hex}``.  Every path round-trips values *and* Python types
exactly.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from base64 import b64decode, b64encode
from functools import partial
from typing import Any, Optional

from ..errors import (
    BackendError,
    CatalogError,
    ClusterError,
    ConfigurationError,
    ConstraintViolation,
    ConversionError,
    ExecutionError,
    FunctionError,
    InvalidStatementError,
    LexerError,
    MTSQLError,
    NotSupportedError,
    ParameterError,
    ParseError,
    PrivilegeError,
    ProtocolError,
    ReproError,
    RequestTimeoutError,
    RewriteError,
    ScopeError,
    ServerBusyError,
    ServerError,
    SQLError,
    TypeCheckError,
    TypeMismatchError,
)
from ..engine.vector import DEFAULT_BATCH_SIZE
from ..sql.types import EPOCH_ORDINAL, Date, date_days, date_from_days

#: protocol revision negotiated in HELLO; bumped on incompatible changes
PROTOCOL_VERSION = 4

#: the one page size of the blocking client: the rows it asks for with an
#: EXECUTE reply (its ``fetch`` field) and the least it asks for with a FETCH.
#: It bounds a served SELECT's read-ahead at one batch of the engine's
PAGE_ROWS = DEFAULT_BATCH_SIZE

#: hard ceiling on one frame's payload (a malformed length prefix must not
#: make either end allocate gigabytes)
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: wire code -> exception class; the *server-side* taxonomy a client can see.
#: Order matters for encoding: the first entry whose class matches (exact
#: type, then subclass walk) wins, so specific codes precede their bases.
WIRE_CODES: dict[str, type] = {
    "SERVER_BUSY": ServerBusyError,
    "REQUEST_TIMEOUT": RequestTimeoutError,
    "PROTOCOL": ProtocolError,
    "SERVER": ServerError,
    "INVALID_STATEMENT": InvalidStatementError,
    "PARSE": ParseError,
    "LEXER": LexerError,
    "PARAMETER": ParameterError,
    "CATALOG": CatalogError,
    "TYPE_MISMATCH": TypeMismatchError,
    "CONSTRAINT": ConstraintViolation,
    "FUNCTION": FunctionError,
    "EXECUTION": ExecutionError,
    "NOT_SUPPORTED": NotSupportedError,
    "SCOPE": ScopeError,
    "PRIVILEGE": PrivilegeError,
    "REWRITE": RewriteError,
    "CONVERSION": ConversionError,
    "MTSQL": MTSQLError,
    "CLUSTER": ClusterError,
    "BACKEND": BackendError,
    "CONFIGURATION": ConfigurationError,
    "TYPECHECK": TypeCheckError,
    "SQL": SQLError,
    "REPRO": ReproError,
}

_CLASS_TO_CODE = {cls: code for code, cls in WIRE_CODES.items()}


def error_code(exc: BaseException) -> str:
    """The wire code for an exception (nearest registered ancestor class)."""
    for cls in type(exc).__mro__:
        code = _CLASS_TO_CODE.get(cls)
        if code is not None:
            return code
    return "SERVER"


def error_frame(exc: BaseException) -> dict[str, Any]:
    """Build the error frame describing ``exc`` (taxonomy code + retryability)."""
    return {
        "ok": False,
        "error": error_code(exc),
        "message": str(exc),
        "retryable": bool(getattr(exc, "retryable", False)),
    }


def exception_from_frame(frame: dict[str, Any]) -> ReproError:
    """Reconstruct the server's exception from an error frame.

    Unknown codes (a newer server) degrade to :class:`ServerError` rather
    than failing, keeping old clients usable against new servers.
    """
    cls = WIRE_CODES.get(str(frame.get("error", "")), ServerError)
    message = str(frame.get("message", "server error"))
    try:
        exc = cls(message)
    except TypeError:  # pragma: no cover - all registered classes accept one arg
        exc = ServerError(message)
    return exc


# -- value codec -------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode one cell/bind value into its JSON-representable form."""
    if isinstance(value, Date):
        return {"$date": date_days(value)}
    if isinstance(value, (bytes, bytearray)):
        return {"$bytes": bytes(value).hex()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    return value


_NONE = type(None)


def _decode_dates(ordinals: list) -> list:
    if not set(map(type, ordinals)) <= {int, _NONE}:
        raise ProtocolError("a date's day ordinal must be an integer")
    # date_from_days shares one object per day across pages, as the
    # in-process result shares the stored object
    try:
        return [None if days is None else date_from_days(days) for days in ordinals]
    except (OverflowError, ValueError) as exc:
        raise ProtocolError(f"a date's day ordinal is out of range: {exc}") from exc


def _decode_bytes(texts: list) -> list:
    try:
        return [None if text is None else bytes.fromhex(text) for text in texts]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bytes must travel as hex text: {exc}") from exc


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (lists stay lists; rows re-tuple upstream);
    a malformed tagged scalar raises :class:`ProtocolError`."""
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            return _decode_dates([value["$date"]])[0]
        if set(value) == {"$bytes"}:
            return _decode_bytes([value["$bytes"]])[0]
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


#: cell types JSON carries natively (exact types: a subclass goes ``mixed``)
_PLAIN = frozenset({int, float, str, bool, _NONE})

#: (exclusive bound, bits, signed ``array`` typecode) of each integer width,
#: narrowest first
_WIDTHS = ((1 << 7, 8, "b"), (1 << 15, 16, "h"), (1 << 31, 32, "i"), (1 << 63, 64, "q"))

#: the wire is little-endian whatever the host is
_BIG_ENDIAN = sys.byteorder == "big"

#: the day numbers of ``date.min`` and ``date.max``
_DAYS_RANGE = (date_days(Date.min), date_days(Date.max))


def _pack(code: str, values) -> str:
    """base64 text of ``values`` as a little-endian ``code`` array."""
    packed = array(code, values)
    if _BIG_ENDIAN:
        packed.byteswap()
    return b64encode(packed.tobytes()).decode("ascii")


def _pack_integers(prefix: str, values) -> Optional[tuple[str, str]]:
    """``(kind, base64)`` in the narrowest width holding ``values``, or
    ``None`` when they need more than 64 bits."""
    low, high = min(values), max(values)
    for bound, bits, code in _WIDTHS:
        if -bound <= low and high < bound:
            return f"{prefix}{bits}", _pack(code, values)
    return None


def _encode_column(column: tuple) -> tuple[Optional[str], Any]:
    """``(kind, wire column)`` of one page column; kind ``None`` is plain."""
    census = set(map(type, column))
    if census == {int}:
        return _pack_integers("i", column) or (None, column)
    if census == {float}:
        return "f64", _pack("d", column)
    if census == {Date}:
        # date_days at C speed: each ordinal minus the epoch's
        days = list(map(EPOCH_ORDINAL.__rsub__, map(Date.toordinal, column)))
        return _pack_integers("days", days)
    if census <= _PLAIN:
        return None, column
    if census <= {Date, _NONE}:
        return "date", [None if value is None else date_days(value) for value in column]
    if census <= {bytes, _NONE}:
        return "bytes", [None if value is None else value.hex() for value in column]
    return "mixed", [encode_value(value) for value in column]


def encode_rows(rows: list[tuple]) -> dict[str, Any]:
    """Encode a row batch as the column-major typed page of a reply."""
    cols: list[Any] = []
    tags: list[list[Any]] = []
    for index, column in enumerate(zip(*rows, strict=True)):
        kind, column = _encode_column(column)
        if kind is not None:
            tags.append([index, kind])
        cols.append(column)
    return {"cols": cols, "tags": tags}


def _decode_plain(column: list) -> list:
    census = set(map(type, column))
    if not census <= _PLAIN:
        raise ProtocolError("an untagged column holds a nested JSON value")
    # one object per repeated string, as the in-process result shares the
    # stored value instead of holding one str per cell
    if census == {str}:
        return list(map(sys.intern, column))
    if str in census:
        return [sys.intern(value) if type(value) is str else value for value in column]
    return column


def _packed(text: Any) -> bytes:
    """The bytes of a binary column, which travels as base64 text."""
    if type(text) is not str:
        raise ProtocolError("a binary column must travel as base64 text")
    try:
        return b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ProtocolError(f"a binary column is not base64: {exc}") from exc


def _unpack(code: str, data: bytes) -> list:
    """The values of a little-endian ``code`` array."""
    values = array(code)
    if len(data) % values.itemsize:
        raise ProtocolError("result page columns differ in length")
    values.frombytes(data)
    if _BIG_ENDIAN:
        values.byteswap()
    return values.tolist()


def _shared(values: list) -> list:
    """One object per distinct value, as the in-process result shares the
    stored value instead of holding one number per cell."""
    return list(map({}.setdefault, values, values))


def _decode_ints(code: str, text: Any) -> list:
    values = _unpack(code, _packed(text))
    # one-byte values are (nearly all) the interpreter's cached small ints
    return values if code == "b" else _shared(values)


#: the packed bytes of -0.0, which equals 0.0 and must not share its object
_NEGATIVE_ZERO = array("d", [-0.0]).tobytes()


def _decode_floats(text: Any) -> list:
    data = _packed(text)
    values = _unpack("d", data)
    # an unaligned match only costs the sharing, never a sign
    return values if _NEGATIVE_ZERO in data else _shared(values)


def _decode_days(code: str, text: Any) -> list:
    days = _unpack(code, _packed(text))
    if days and not (_DAYS_RANGE[0] <= min(days) and max(days) <= _DAYS_RANGE[1]):
        raise ProtocolError("a date's day number is out of range")
    # the shared objects of date_from_days, as in the JSON ``date`` kind
    return list(map(date_from_days, days))


def _json_column(decode):
    """``decode`` of a JSON list column, refusing any other column value."""
    def checked(column: Any) -> list:
        if not isinstance(column, list):
            raise ProtocolError("a result page needs 'cols', a list of column lists")
        return decode(column)
    return checked


_DECODE_PLAIN = _json_column(_decode_plain)

#: column kind tag -> column decoder (untagged columns are plain)
_COLUMN_DECODERS = {
    "date": _json_column(_decode_dates),
    "bytes": _json_column(_decode_bytes),
    "mixed": _json_column(lambda column: [decode_value(value) for value in column]),
    **{f"i{bits}": partial(_decode_ints, code) for _bound, bits, code in _WIDTHS},
    "f64": _decode_floats,
    **{f"days{bits}": partial(_decode_days, code) for _bound, bits, code in _WIDTHS[:3]},
}


def decode_rows(page: Any) -> list[tuple]:
    """Decode the page of an EXECUTE or FETCH reply back into row tuples.

    The page comes from outside the process: anything but the layout
    :func:`encode_rows` writes raises :class:`ProtocolError`.
    """
    if not isinstance(page, dict):
        raise ProtocolError("a result page must be an object with 'cols' and 'tags'")
    cols, tags = page.get("cols"), page.get("tags")
    if not isinstance(cols, list):
        raise ProtocolError("a result page needs 'cols', a list of column lists")
    if not isinstance(tags, list):
        raise ProtocolError("a result page needs 'tags', a list of [index, kind] pairs")
    decoders = [_DECODE_PLAIN] * len(cols)
    for tag in tags:
        if not (isinstance(tag, list) and len(tag) == 2 and type(tag[0]) is int
                and 0 <= tag[0] < len(cols) and isinstance(tag[1], str)
                and tag[1] in _COLUMN_DECODERS):
            raise ProtocolError(f"result page carries an invalid column tag {tag!r}")
        decoders[tag[0]] = _COLUMN_DECODERS[tag[1]]
    columns = [decode(column) for decode, column in zip(decoders, cols)]
    # a binary column's row count is its byte length over its width
    if len(set(map(len, columns))) > 1:
        raise ProtocolError("result page columns differ in length")
    return list(zip(*columns))


def encode_rows_reply(
    columns: list[str], rows: list[tuple], eof: bool, cursor: int
) -> dict[str, Any]:
    """The EXECUTE reply of a SELECT: its first page, and — unless the page
    ran the result dry (``eof``) — the ``cursor`` holding the remainder."""
    reply = {"ok": True, "kind": "rows", "columns": list(columns),
             "rows": encode_rows(rows), "eof": eof}
    if not eof:
        reply["cursor"] = cursor
    return reply


def decode_rows_reply(reply: dict[str, Any]) -> tuple[list[str], list[tuple], Optional[int]]:
    """Validate a ``rows`` EXECUTE reply: ``(columns, first page, cursor)``.

    ``cursor`` is ``None`` exactly when the reply said ``eof``.  Hostile
    input like any page: a reply without ``eof``, with ``eof`` *and* a
    cursor, or short of eof without one raises :class:`ProtocolError`.
    """
    columns, eof, cursor = reply.get("columns"), reply.get("eof"), reply.get("cursor")
    if not isinstance(columns, list) or not all(isinstance(name, str) for name in columns):
        raise ProtocolError("a rows reply needs 'columns', a list of names")
    if not isinstance(eof, bool):
        raise ProtocolError("a rows reply must state 'eof' as a boolean")
    if eof and cursor is not None:
        raise ProtocolError("a rows reply at eof must not name a cursor")
    if not eof and type(cursor) is not int:
        raise ProtocolError("a rows reply short of eof must name its integer cursor")
    return columns, decode_rows(reply.get("rows")), cursor


def encode_parameters(parameters: Any) -> Any:
    """Encode bind parameters (positional sequence or name mapping) or None."""
    if parameters is None:
        return None
    return encode_value(parameters)


def decode_parameters(parameters: Any) -> Any:
    """Decode bind parameters; positional bindings come back as a tuple."""
    if parameters is None:
        return None
    decoded = decode_value(parameters)
    if isinstance(decoded, list):
        return tuple(decoded)
    return decoded


# -- framing -----------------------------------------------------------------


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Parse one frame payload; anything but a JSON object is a violation."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def payload_length(prefix: bytes) -> int:
    """Validate a 4-byte length prefix and return the payload length."""
    if len(prefix) != _LENGTH.size:
        raise ProtocolError("truncated frame length prefix")
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


async def read_frame(reader) -> Optional[dict[str, Any]]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    import asyncio

    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    length = payload_length(prefix)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_payload(payload)


def read_frame_blocking(stream) -> Optional[dict[str, Any]]:
    """Read one frame from a blocking binary file object; ``None`` on EOF."""
    prefix = stream.read(_LENGTH.size)
    if not prefix:
        return None
    length = payload_length(prefix)
    payload = stream.read(length)
    if payload is None or len(payload) != length:
        raise ProtocolError("connection closed mid-frame")
    return decode_payload(payload)
