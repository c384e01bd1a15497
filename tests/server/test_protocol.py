"""Wire protocol unit tests: framing, the value codec, error codes."""

from __future__ import annotations

import base64
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
    # columns that pack: ints around each width's edges (±2⁷, ±2¹⁵, ±2³¹,
    # ±2⁶³ and one past), None-free dates out to date.min / date.max
    *(
        st.integers(-(2**bits), 2**bits - 1)
        | st.sampled_from([-(2**bits), 2**bits - 1, -(2**bits) - 1, 2**bits])
        for bits in (7, 15, 31, 63)
    ),
    st.builds(date_from_days, st.integers(-200, 200))
    | st.sampled_from([Date.min, Date.max, date_from_days(0), date_from_days(-1)]),
]

#: bits of each integer width a packed column may use, narrowest first
INT_BITS = (8, 16, 32, 64)


def expected_kind(column) -> str | None:
    """The tag the v4 codec must give a column: a binary kind exactly for
    all-``int`` (within 64 bits, narrowest width), all-``float`` and
    all-``date`` columns; ``bool``, ``None``-bearing and mixed columns keep
    their JSON kinds (``None`` = untagged)."""
    census = set(map(type, column))
    if census == {int} or census == {Date}:
        values = column if census == {int} else [(day - Date(1970, 1, 1)).days for day in column]
        for bits in INT_BITS:
            if -(2 ** (bits - 1)) <= min(values) and max(values) < 2 ** (bits - 1):
                return ("i" if census == {int} else "days") + str(bits)
        return None
    if census == {float}:
        return "f64"
    if census <= {int, float, str, bool, type(None)}:
        return None
    if census <= {Date, type(None)}:
        return "date"
    if census <= {bytes, type(None)}:
        return "bytes"
    return "mixed"


@given(st.lists(st.sampled_from(COLUMN_CELLS), min_size=1, max_size=4).flatmap(
    lambda shapes: st.tuples(*(st.lists(cells, min_size=1, max_size=40) for cells in shapes))
))
@settings(max_examples=200, deadline=None)
def test_exactly_int_float_and_date_columns_pack_in_the_narrowest_width(columns):
    height = min(map(len, columns))
    rows = list(zip(*(column[:height] for column in columns)))
    tags = dict(map(tuple, encode_rows(rows)["tags"]))
    for index, column in enumerate(zip(*rows)):
        assert tags.get(index) == expected_kind(column), column
    decoded = wire_trip(rows)
    for sent, received in zip(rows, decoded):
        assert all(map(same_cell, sent, received)), (sent, received)


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
    rows = [
        (n, float(n), f"s{n % 3}", n % 2 == 0, None, date_from_days(9000 + n),
         None if n % 7 == 0 else date_from_days(n))
        for n in range(50)
    ]
    page = encode_rows(rows)
    assert page["tags"] == [[0, "i8"], [1, "f64"], [5, "days16"], [6, "date"]]
    assert wire_trip(rows) == rows


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def test_packed_floats_keep_every_bit():
    quiet_nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
    values = [math.nan, -math.nan, quiet_nan_payload, math.inf, -math.inf,
              -0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1]
    page = encode_rows([(value,) for value in values])
    assert page["tags"] == [[0, "f64"]]
    decoded = [row[0] for row in wire_trip([(value,) for value in values])]
    assert list(map(bits, decoded)) == list(map(bits, values))
    assert all(type(value) is float for value in decoded)


def test_packed_dates_decode_to_shared_objects_out_to_the_calendar_edges():
    days = [Date.min, Date.max, date_from_days(0), date_from_days(0), date_from_days(-1)]
    rows = [(day,) for day in days]
    assert encode_rows(rows)["tags"] == [[0, "days32"]]
    decoded = [row[0] for row in wire_trip(rows)]
    assert decoded == days
    assert decoded[2] is decoded[3] is date_from_days(0)


@pytest.mark.parametrize(
    ("column", "kind"),
    [
        ([-128, 127], "i8"), ([-129, 0], "i16"), ([0, 128], "i16"),
        ([-(2**15), 2**15 - 1], "i16"), ([2**15], "i32"),
        ([-(2**31), 2**31 - 1], "i32"), ([-(2**31) - 1], "i64"),
        ([-(2**63), 2**63 - 1], "i64"), ([2**63], None), ([-(2**63) - 1, 0], None),
        ([True, False], None), ([1, True], None), ([1, None], None), ([1.5, None], None),
        ([1, 2.5], None),
    ],
)
def test_an_int_column_packs_in_the_narrowest_width_or_stays_json(column, kind):
    rows = [(value,) for value in column]
    page = encode_rows(rows)
    assert page["tags"] == ([] if kind is None else [[0, kind]])
    assert isinstance(page["cols"][0], str) == (kind is not None)
    decoded = wire_trip(rows)
    assert all(same_cell(sent[0], received[0]) for sent, received in zip(rows, decoded))


def test_decoded_pages_share_repeated_numbers_but_not_signed_zeros():
    rows = [(1000 + n % 3, 0.25 * (n % 2), n % 2) for n in range(40)]
    decoded = wire_trip(rows)
    assert decoded == rows
    assert len({id(row[0]) for row in decoded}) == 3
    assert len({id(row[1]) for row in decoded}) == 2
    # -0.0 == 0.0, yet each keeps its sign
    zeros = [row[0] for row in wire_trip([(0.0,), (-0.0,), (0.0,), (-0.0,)])]
    assert [math.copysign(1.0, zero) for zero in zeros] == [1.0, -1.0, 1.0, -1.0]


def test_decoded_pages_share_repeated_strings_and_dates():
    rows = [("RAIL" + str(n % 2), date_from_days(9000 + n % 2)) for n in range(40)]
    first, second = wire_trip(rows), wire_trip(rows)
    assert len({id(row[0]) for row in first + second}) == 2
    assert len({id(row[1]) for row in first + second}) == 2


def test_only_a_mixed_column_falls_back_to_tagged_cells():
    page = encode_rows([(date_from_days(1), 1), (b"x", 2)])
    assert page["tags"] == [[0, "mixed"], [1, "i8"]]
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
    page = json.loads(json.dumps(encode_rows([(day, 1, day), (None, 2, day), (day, 3, day)])))
    # a None-bearing date column is day ordinals; an all-date one packed days
    assert page == {
        "cols": [[10471, None, 10471], "AQID", "5yjnKOco"],
        "tags": [[0, "date"], [1, "i8"], [2, "days16"]],
    }
    rows = decode_rows(page)
    assert type(rows[0][0]) is datetime.date and rows[1][0] is None
    assert all(type(row[2]) is datetime.date for row in rows)
    # one object per distinct day, shared with every other producer of dates
    assert rows[0][0] is rows[2][0] is date_from_days(10471)
    assert all(row[2] is date_from_days(10471) for row in rows)


@pytest.mark.parametrize("name", HOSTILE_PAGES)
def test_hostile_pages_raise_protocol_error(name):
    with pytest.raises(ProtocolError):
        decode_rows(HOSTILE_PAGES[name])


def packed(code: str, *values) -> str:
    """base64 of a little-endian ``struct`` array, as a peer could send it."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


BINARY_HOSTILE_PAGES = {
    "non-base64 text": {"cols": ["AQ!D"], "tags": [[0, "i8"]]},
    "non-ASCII text": {"cols": ["AQ\u00e9D"], "tags": [[0, "i8"]]},
    "missing base64 padding": {"cols": ["AQI"], "tags": [[0, "i8"]]},
    "a list under a binary tag": {"cols": [[1, 2]], "tags": [[0, "i8"]]},
    "a number under a binary tag": {"cols": [5], "tags": [[0, "f64"]]},
    "null under a binary tag": {"cols": [None], "tags": [[0, "days16"]]},
    "bytes not a multiple of i16": {"cols": ["AQID"], "tags": [[0, "i16"]]},
    "bytes not a multiple of f64": {"cols": [packed("b", *range(7))], "tags": [[0, "f64"]]},
    "bytes not a multiple of days32": {"cols": [packed("h", 1, 2, 3)], "tags": [[0, "days32"]]},
    "count disagrees with a list column": {"cols": ["AQID", [1, 2]], "tags": [[0, "i8"]]},
    "count disagrees with a binary column": {
        "cols": [packed("b", 1, 2, 3), packed("h", 1, 2)], "tags": [[0, "i8"], [1, "i16"]],
    },
    "count disagrees with a binary date column": {
        "cols": [packed("d", 1.0), packed("i", 1, 2)], "tags": [[0, "f64"], [1, "days32"]],
    },
    "unknown int width": {"cols": ["AQID"], "tags": [[0, "i24"]]},
    "unknown float width": {"cols": [packed("f", 1.0)], "tags": [[0, "f32"]]},
    "unknown day width": {"cols": [packed("q", 1)], "tags": [[0, "days64"]]},
    "day number before date.min": {"cols": [packed("i", -719_163)], "tags": [[0, "days32"]]},
    "day number beyond date.max": {"cols": [packed("i", 0, 2_932_897)], "tags": [[0, "days32"]]},
    "day number at the int32 edge": {"cols": [packed("i", -(2**31))], "tags": [[0, "days32"]]},
}


@pytest.mark.parametrize("name", BINARY_HOSTILE_PAGES)
def test_hostile_binary_pages_raise_protocol_error(name):
    # pytest.raises lets any other exception (binascii.Error, ValueError,
    # OverflowError, TypeError) through as a failure
    with pytest.raises(ProtocolError):
        decode_rows(BINARY_HOSTILE_PAGES[name])


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


#: the binary reference page: every packed kind next to a JSON list column
GOOD_BINARY_PAGE = {
    "cols": [
        packed("b", -1, 0, 1), packed("h", -300, 0, 300), packed("i", 70_000, 0, -70_000),
        packed("q", 2**40, 0, -1), packed("d", 0.5, math.inf, -0.0),
        packed("h", 10_471, 0, -1), ["a", "b", "c"],
    ],
    "tags": [[0, "i8"], [1, "i16"], [2, "i32"], [3, "i64"], [4, "f64"], [5, "days16"]],
}

#: every width a binary kind's packed values occupy
KIND_WIDTHS = {"i8": 1, "i16": 2, "i32": 4, "i64": 8, "f64": 8, "days8": 1, "days16": 2, "days32": 4}


def test_the_binary_reference_page_decodes():
    assert decode_rows(copy.deepcopy(GOOD_BINARY_PAGE)) == [
        (-1, -300, 70_000, 2**40, 0.5, date_from_days(10_471), "a"),
        (0, 0, 0, 0, math.inf, date_from_days(0), "b"),
        (1, 300, -70_000, -1, -0.0, date_from_days(-1), "c"),
    ]


BINARY_VALUES = (
    JSON_VALUES
    | st.binary(max_size=24).map(lambda data: base64.b64encode(data).decode("ascii"))
    | st.sampled_from(list(KIND_WIDTHS) + ["i24", "f32", "days64", "date", "mixed"])
)


@st.composite
def mutated_binary_pages(draw):
    """The binary reference page with one JSON subtree replaced."""
    page = copy.deepcopy(GOOD_BINARY_PAGE)
    path = draw(st.sampled_from([
        ("cols",), ("tags",), ("cols", 0), ("cols", 3), ("cols", 4), ("cols", 5), ("cols", 6),
        ("cols", 6, 1), ("tags", 0), ("tags", 0, 0), ("tags", 1, 1), ("tags", 4, 1),
        ("tags", 5, 1),
    ]))
    target = page
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = draw(BINARY_VALUES)
    return page


@given(mutated_binary_pages())
@settings(max_examples=300, deadline=None)
def test_mutated_binary_pages_decode_fully_or_raise_protocol_error(page):
    try:
        rows = decode_rows(page)
    except ProtocolError:
        return
    kinds = dict(map(tuple, page["tags"]))
    heights = {
        len(base64.b64decode(column)) // KIND_WIDTHS[kinds[index]]
        if kinds.get(index) in KIND_WIDTHS else len(column)
        for index, column in enumerate(page["cols"])
    }
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
