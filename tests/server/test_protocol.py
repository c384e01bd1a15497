"""Wire protocol unit tests: framing, the value codec, error codes."""

from __future__ import annotations

import copy
import io
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol

from repro.errors import (
    BackendError,
    ExecutionError,
    InvalidStatementError,
    ParameterError,
    ProtocolError,
    ReproError,
    RequestTimeoutError,
    ServerBusyError,
    ServerError,
)
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    WIRE_CODES,
    decode_parameters,
    decode_payload,
    decode_rows,
    decode_rows_reply,
    encode_frame,
    encode_parameters,
    encode_rows,
    encode_rows_reply,
    error_code,
    error_frame,
    exception_from_frame,
    payload_length,
    read_frame_blocking,
)
from repro.sql.types import Date, date_from_days


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def test_frame_round_trip_through_a_byte_stream():
    messages = [{"op": "hello", "client": 3}, {"ok": True, "rows": [[1, "x"]]}]
    buffer = io.BytesIO(b"".join(encode_frame(m) for m in messages))
    assert read_frame_blocking(buffer) == messages[0]
    assert read_frame_blocking(buffer) == messages[1]
    assert read_frame_blocking(buffer) is None  # clean EOF


def test_truncated_frame_is_a_protocol_error():
    frame = encode_frame({"op": "hello"})
    with pytest.raises(ProtocolError, match="mid-frame"):
        read_frame_blocking(io.BytesIO(frame[:-2]))


def test_oversized_length_prefix_is_rejected_without_allocating():
    prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(ProtocolError, match="exceeds"):
        payload_length(prefix)


def test_oversized_outgoing_frame_is_rejected():
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_non_object_payload_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_payload(b"[1, 2, 3]")
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_payload(b"{nope")


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------


def wire_trip(rows):
    """A page through both frames that carry one — a FETCH reply and the first
    page of an EXECUTE reply: encode, JSON bytes, decode."""
    frame = encode_frame({"ok": True, "rows": encode_rows(rows), "eof": False})
    fetched = decode_rows(decode_payload(frame[4:])["rows"])
    frame = encode_frame(encode_rows_reply(["c"], rows, eof=False, cursor=3))
    columns, first_page, cursor = decode_rows_reply(decode_payload(frame[4:]))
    assert (columns, cursor) == (["c"], 3)
    assert len(first_page) == len(fetched)
    assert all(all(map(same_cell, a, b)) for a, b in zip(first_page, fetched))
    return first_page


def same_cell(left, right) -> bool:
    """Equal value AND equal Python type (NaN equals NaN, -0.0 is not 0.0)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return math.isnan(left) and math.isnan(right) or (
            left == right and math.copysign(1.0, left) == math.copysign(1.0, right)
        )
    return left == right


def test_rows_round_trip_exactly_including_dates_and_bytes():
    rows = [
        (1, "name", 2.5, None, True, date_from_days(9131), b"\x00\xffbinary"),
        (2, None, -0.1, None, False, None, b""),
    ]
    decoded = wire_trip(rows)
    assert decoded == rows
    assert isinstance(decoded[0][5], Date)
    assert isinstance(decoded[0][6], bytes)


def test_floats_round_trip_bit_exactly():
    values = [0.1, 1e-300, 123456.789012345, float(2**53)]
    (decoded,) = wire_trip([tuple(values)])
    assert list(decoded) == values


#: one strategy per column shape the codec distinguishes; every draw fills
#: a whole column, so a page is rectangular like a backend's
COLUMN_CELLS = [
    st.integers(min_value=-(2**70), max_value=2**70),  # beyond int64 too
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.text(max_size=6),
    st.booleans() | st.integers(min_value=0, max_value=1),  # bool next to int
    st.none(),
    st.none() | st.builds(date_from_days, st.integers(min_value=-700_000, max_value=800_000)),
    st.none() | st.binary(max_size=5),
    # deliberately mixed: no single kind covers the column
    st.one_of(
        st.builds(date_from_days, st.integers(0, 20_000)), st.binary(max_size=3),
        st.integers(), st.text(max_size=3), st.none(), st.booleans(),
    ),
]


@st.composite
def pages(draw):
    height = draw(st.sampled_from([0, 1, 2, 7, 64]))
    shapes = draw(st.lists(st.sampled_from(COLUMN_CELLS), min_size=1, max_size=6))
    columns = [
        draw(st.lists(cells, min_size=height, max_size=height)) for cells in shapes
    ]
    return list(zip(*columns))


@given(pages())
@settings(max_examples=150, deadline=None)
def test_page_round_trip_preserves_values_and_python_types(rows):
    decoded = wire_trip(rows)
    assert len(decoded) == len(rows)  # an empty page and a page of exactly n
    for sent, received in zip(rows, decoded):
        assert type(received) is tuple and len(received) == len(sent)
        assert all(map(same_cell, sent, received)), (sent, received)


def test_plain_and_date_columns_never_touch_the_scalar_codec(monkeypatch):
    def forbidden(value):
        raise AssertionError(f"per-cell codec called for {value!r}")

    monkeypatch.setattr(protocol, "encode_value", forbidden)
    monkeypatch.setattr(protocol, "decode_value", forbidden)
    rows = [(n, float(n), f"s{n % 3}", n % 2 == 0, None, date_from_days(9000 + n)) for n in range(50)]
    page = encode_rows(rows)
    assert page["tags"] == [[5, "date"]]
    assert wire_trip(rows) == rows


def test_decoded_pages_share_repeated_strings_and_dates():
    rows = [("RAIL" + str(n % 2), date_from_days(9000 + n % 2)) for n in range(40)]
    first, second = wire_trip(rows), wire_trip(rows)
    assert len({id(row[0]) for row in first + second}) == 2
    assert len({id(row[1]) for row in first + second}) == 2


def test_only_a_mixed_column_falls_back_to_tagged_cells():
    page = encode_rows([(date_from_days(1), 1), (b"x", 2)])
    assert page["tags"] == [[0, "mixed"]]
    assert page["cols"][0] == [{"$date": 1}, {"$bytes": "78"}]


# hostile pages: whatever a peer sends under "rows", the client raises
# ProtocolError — never IndexError/TypeError, never a silently short page

GOOD_PAGE = {
    "cols": [[1, 2, 3], ["a", "b", "c"], [10, None, 12], ["00", "ff", None], [{"$date": 1}, 2, "x"]],
    "tags": [[2, "date"], [3, "bytes"], [4, "mixed"]],
}

HOSTILE_PAGES = {
    "not an object": [[1, "x"]],
    "no cols": {"tags": []},
    "no tags": {"cols": [[1]]},
    "cols not a list": {"cols": "abc", "tags": []},
    "column not a list": {"cols": [[1, 2], 7], "tags": []},
    "ragged columns": {"cols": [[1, 2, 3], ["a", "b"]], "tags": []},
    "unknown kind": {"cols": [[1]], "tags": [[0, "decimal"]]},
    "unhashable kind": {"cols": [[1]], "tags": [[0, ["date"]]]},
    "tag index out of range": {"cols": [[1]], "tags": [[1, "date"]]},
    "negative tag index": {"cols": [[1]], "tags": [[-1, "date"]]},
    "boolean tag index": {"cols": [[1], [2]], "tags": [[True, "date"]]},
    "tag not a pair": {"cols": [[1]], "tags": [[0, "date", 3]]},
    "tags not a list": {"cols": [[1]], "tags": {"0": "date"}},
    "float day ordinal": {"cols": [[1.5]], "tags": [[0, "date"]]},
    "text day ordinal": {"cols": [["12"]], "tags": [[0, "date"]]},
    "boolean day ordinal": {"cols": [[True]], "tags": [[0, "date"]]},
    "day ordinal before year 1": {"cols": [[-719_163]], "tags": [[0, "date"]]},
    "day ordinal beyond year 9999": {"cols": [[10**12]], "tags": [[0, "date"]]},
    "out-of-calendar $date in a mixed column": {"cols": [[{"$date": 10**12}]], "tags": [[0, "mixed"]]},
    "non-hex bytes": {"cols": [["zz"]], "tags": [[0, "bytes"]]},
    "non-text bytes": {"cols": [[5]], "tags": [[0, "bytes"]]},
    "nested value in a plain column": {"cols": [[1, [2]]], "tags": []},
    "bad $date in a mixed column": {"cols": [[{"$date": "1"}]], "tags": [[0, "mixed"]]},
    "bad $bytes in a mixed column": {"cols": [[{"$bytes": 5}]], "tags": [[0, "mixed"]]},
}


def test_the_reference_page_decodes():
    assert decode_rows(copy.deepcopy(GOOD_PAGE)) == [
        (1, "a", date_from_days(10), b"\x00", date_from_days(1)),
        (2, "b", None, b"\xff", 2),
        (3, "c", date_from_days(12), None, "x"),
    ]


def test_date_pages_decode_to_shared_stdlib_dates():
    import datetime
    import json

    day = Date(1998, 9, 2)
    page = json.loads(json.dumps(encode_rows([(day, 1), (None, 2), (day, 3)])))
    assert page == {"cols": [[10471, None, 10471], [1, 2, 3]], "tags": [[0, "date"]]}
    rows = decode_rows(page)
    assert type(rows[0][0]) is datetime.date and rows[1][0] is None
    # one object per distinct day, shared with every other producer of dates
    assert rows[0][0] is rows[2][0] is date_from_days(10471)


@pytest.mark.parametrize("name", HOSTILE_PAGES)
def test_hostile_pages_raise_protocol_error(name):
    with pytest.raises(ProtocolError):
        decode_rows(HOSTILE_PAGES[name])


def rows_reply(eof: bool) -> dict:
    """A one-row EXECUTE reply as it comes off the wire."""
    frame = encode_frame(encode_rows_reply(["a"], [(1,)], eof=eof, cursor=7))
    return decode_payload(frame[4:])


def test_a_rows_reply_names_a_cursor_exactly_when_short_of_eof():
    open_reply = rows_reply(eof=False)
    assert open_reply["cursor"] == 7 and open_reply["eof"] is False
    assert decode_rows_reply(open_reply) == (["a"], [(1,)], 7)
    done_reply = rows_reply(eof=True)
    assert "cursor" not in done_reply
    assert decode_rows_reply(done_reply) == (["a"], [(1,)], None)


@pytest.mark.parametrize(
    "damage",
    [
        {"eof": None}, {"eof": 0}, {"eof": "false"},  # eof missing or not a boolean
        {"eof": True},  # ... together with a cursor
        {"cursor": None}, {"cursor": True}, {"cursor": "7"}, {"cursor": 7.0},
        {"columns": None}, {"columns": "a"}, {"columns": [1]},
        {"rows": None}, {"rows": [[1]]}, {"rows": {"cols": [[1], []], "tags": []}},
    ],
)
def test_hostile_rows_replies_raise_protocol_error(damage):
    reply = {**rows_reply(eof=False), **damage}
    with pytest.raises(ProtocolError):
        decode_rows_reply(reply)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
    | st.sampled_from(["date", "bytes", "mixed", "zz", "0a"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["cols", "tags", "$date", "$bytes"]), children, max_size=3),
    max_leaves=12,
)


@st.composite
def mutated_pages(draw):
    """The reference page with one JSON subtree replaced by an arbitrary one."""
    page = copy.deepcopy(GOOD_PAGE)
    path = draw(st.sampled_from([
        ("cols",), ("tags",), ("cols", 0), ("cols", 2), ("cols", 3), ("cols", 4),
        ("cols", 2, 0), ("cols", 3, 1), ("cols", 4, 0), ("tags", 0), ("tags", 1, 0),
        ("tags", 2, 1),
    ]))
    target = page
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = draw(JSON_VALUES)
    return page


@given(mutated_pages())
@settings(max_examples=300, deadline=None)
def test_mutated_pages_decode_fully_or_raise_protocol_error(page):
    try:
        rows = decode_rows(page)
    except ProtocolError:
        return
    heights = {len(column) for column in page["cols"]}
    assert len(heights) <= 1 and len(rows) == (heights.pop() if heights else 0)
    assert all(type(row) is tuple and len(row) == len(page["cols"]) for row in rows)


def test_positional_parameters_come_back_as_a_tuple():
    assert decode_parameters(encode_parameters((1, "a", date_from_days(10)))) == (1, "a", date_from_days(10))
    assert isinstance(decode_parameters(encode_parameters([1, 2])), tuple)


def test_named_parameters_round_trip_as_a_mapping():
    bound = {"low": 5, "day": date_from_days(42), "blob": b"\x01"}
    assert decode_parameters(encode_parameters(bound)) == bound
    assert decode_parameters(encode_parameters(None)) is None


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


def test_error_codes_pick_the_most_specific_class():
    assert error_code(ServerBusyError("x")) == "SERVER_BUSY"
    assert error_code(RequestTimeoutError("x")) == "REQUEST_TIMEOUT"
    assert error_code(ParameterError("x")) == "PARAMETER"
    assert error_code(InvalidStatementError("x")) == "INVALID_STATEMENT"
    assert error_code(ReproError("x")) == "REPRO"
    # an unregistered subclass maps to its nearest registered ancestor
    class CustomExecution(ExecutionError):
        pass

    assert error_code(CustomExecution("x")) == "EXECUTION"
    assert error_code(ValueError("x")) == "SERVER"


def test_error_frames_reconstruct_the_same_exception_class():
    for code, cls in WIRE_CODES.items():
        frame = error_frame(cls("the message"))
        assert frame["ok"] is False
        assert frame["error"] == code
        rebuilt = exception_from_frame(frame)
        assert type(rebuilt) is cls
        assert "the message" in str(rebuilt)


def test_retryability_travels_in_the_frame():
    assert error_frame(ServerBusyError("x"))["retryable"] is True
    assert error_frame(RequestTimeoutError("x"))["retryable"] is True
    assert error_frame(BackendError("x"))["retryable"] is False
    assert exception_from_frame(error_frame(ServerBusyError("x"))).retryable is True


def test_unknown_wire_code_degrades_to_server_error():
    exc = exception_from_frame({"ok": False, "error": "FANCY_NEW", "message": "m"})
    assert isinstance(exc, ServerError)
    assert "m" in str(exc)
