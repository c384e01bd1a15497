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
(:data:`FIRST_PAGE_ROWS` from the blocking client): a SELECT whose result fits
that **first page** is one round trip and opens no server-side cursor.  The
first page and every FETCH reply carry a **column-major typed page**
(:func:`encode_rows`):
``{"cols": [[...], ...], "tags": [[index, kind], ...]}``.  A column of
JSON-native cells (``int``/``float``/``str``/``bool``/``None``) ships untouched
and untagged; an all-:class:`~repro.sql.types.Date` column ships as bare day
ordinals (kind ``date``), an all-``bytes`` column as hex (``bytes``), ``None``
staying ``None``; only a genuinely mixed column falls back to per-cell tagged
scalars (``mixed``).  The type census, the transposes and JSON itself run at C
speed, so a plain column costs no per-cell Python on either side.  Bind
parameters use the scalar codec: ``{"$date": days}`` / ``{"$bytes": hex}``.
Every path round-trips values *and* Python types exactly.
"""

from __future__ import annotations

import json
import struct
import sys
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
from ..sql.types import Date, date_days, date_from_days

#: protocol revision negotiated in HELLO; bumped on incompatible changes
PROTOCOL_VERSION = 3

#: rows the blocking client asks for with an EXECUTE reply (its ``fetch``
#: field): the read-ahead bound of a served SELECT, a quarter of the engine's
#: own 1024-row read-ahead
FIRST_PAGE_ROWS = 256

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


def encode_rows(rows: list[tuple]) -> dict[str, Any]:
    """Encode a row batch as the column-major typed page of a reply."""
    cols: list[Any] = []
    tags: list[list[Any]] = []
    for index, column in enumerate(zip(*rows, strict=True)):
        census = set(map(type, column))
        if not census <= _PLAIN:
            if census <= {Date, _NONE}:
                kind = "date"
                column = [None if value is None else date_days(value) for value in column]
            elif census <= {bytes, _NONE}:
                kind = "bytes"
                column = [None if value is None else value.hex() for value in column]
            else:
                kind, column = "mixed", [encode_value(value) for value in column]
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


#: column kind tag -> column decoder (untagged columns are plain)
_COLUMN_DECODERS = {
    "date": _decode_dates,
    "bytes": _decode_bytes,
    "mixed": lambda column: [decode_value(value) for value in column],
}


def decode_rows(page: Any) -> list[tuple]:
    """Decode the page of an EXECUTE or FETCH reply back into row tuples.

    The page comes from outside the process: anything but the layout
    :func:`encode_rows` writes raises :class:`ProtocolError`.
    """
    if not isinstance(page, dict):
        raise ProtocolError("a result page must be an object with 'cols' and 'tags'")
    cols, tags = page.get("cols"), page.get("tags")
    if not isinstance(cols, list) or not all(isinstance(col, list) for col in cols):
        raise ProtocolError("a result page needs 'cols', a list of column lists")
    if len(set(map(len, cols))) > 1:
        raise ProtocolError("result page columns differ in length")
    if not isinstance(tags, list):
        raise ProtocolError("a result page needs 'tags', a list of [index, kind] pairs")
    decoders = [_decode_plain] * len(cols)
    for tag in tags:
        if not (isinstance(tag, list) and len(tag) == 2 and type(tag[0]) is int
                and 0 <= tag[0] < len(cols) and isinstance(tag[1], str)
                and tag[1] in _COLUMN_DECODERS):
            raise ProtocolError(f"result page carries an invalid column tag {tag!r}")
        decoders[tag[0]] = _COLUMN_DECODERS[tag[1]]
    return list(zip(*(decode(column) for decode, column in zip(decoders, cols))))


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
