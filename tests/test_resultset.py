"""Columnar result sets and their out-of-band wire transport.

The tentpole contract of the columnar result path:

* ``ResultSet.rows()`` is byte-identical to ``Table.to_rows()`` of the
  originating table (the canonical row view),
* ``ResultSet.nbytes`` is exact — cache byte counts charge on insert
  exactly what eviction frees,
* a ResultSet survives the wire protocol round trip (protocol-5 pickle
  with numeric columns as out-of-band raw buffers) for every column
  shape: empty results, all-NULL columns, string/object columns,
* a torn or internally inconsistent buffer section raises
  :class:`WireProtocolError` — never a hang, never silent truncation.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.cache import MAX_CACHED_RESULT_BYTES, QueryCache
from repro.net.serialize import (
    FRAME_HEADER_BYTES,
    ArrowCodec,
    WireProtocolError,
    decode_frame_sections,
    encode_frame,
    frame_section_lengths,
    recv_frame,
)
from repro.sql import Database
from repro.storage.column import Column, ColumnType
from repro.storage.resultset import ResultSet
from repro.storage.table import Table


def _wire_roundtrip(message: object) -> object:
    frame = encode_frame(message)
    payload_length, section_length = frame_section_lengths(frame[:FRAME_HEADER_BYTES])
    payload_end = FRAME_HEADER_BYTES + payload_length
    assert len(frame) == payload_end + section_length
    return decode_frame_sections(frame[FRAME_HEADER_BYTES:payload_end], frame[payload_end:])


# --------------------------------------------------------------------------- #
# Canonical row view and byte accounting
# --------------------------------------------------------------------------- #
def test_rows_matches_table_to_rows_exactly():
    database = Database()
    database.register_rows(
        "t",
        [
            {"g": "a", "v": 1.0, "w": None},
            {"g": None, "v": 2.5, "w": -0.0},
            {"g": "b", "v": None, "w": 7.0},
        ],
        column_order=["g", "v", "w"],
    )
    result = database.execute("SELECT * FROM t")
    rset = result.result_set()
    assert rset.rows() == result.to_rows()
    # Integral floats render as int, NaN as None — the to_rows contract.
    assert rset.rows()[0] == {"g": "a", "v": 1, "w": None}
    assert rset.head_rows(2) == result.to_rows()[:2]
    assert rset.num_rows == 3 and rset.num_columns == 3


def test_from_table_is_zero_copy_and_nbytes_is_exact():
    table = Table(
        [
            Column("v", np.array([1.0, np.nan, 3.0]), ColumnType.NUMERIC),
            Column("s", np.array(["ab", None, "cdé"], dtype=object), ColumnType.STRING),
        ]
    )
    rset = ResultSet.from_table(table)
    # Zero copy: the numeric array is the table's own buffer.
    assert rset.arrays[0] is table.columns()[0].values
    # Exact bytes: 3 float64 values + utf-8 lengths with 4-byte offsets
    # ("ab"=2+4, NULL=4, "cdé"=4+4).
    assert rset.nbytes == 3 * 8 + (2 + 4) + 4 + (4 + 4)
    masks = rset.null_masks()
    assert masks["v"].tolist() == [False, True, False]
    assert masks["s"].tolist() == [False, True, False]


def test_equality_is_canonical():
    a = ResultSet(["v"], [np.array([1.0, np.nan])], [ColumnType.NUMERIC])
    b = ResultSet(["v"], [np.array([1.0, np.nan])], [ColumnType.NUMERIC])
    c = ResultSet(["v"], [np.array([1.0, 2.0])], [ColumnType.NUMERIC])
    assert a == b  # NaN == NaN under the NULL encoding
    assert a != c
    # A numeric column boxed as objects equals its float64 twin.
    boxed = ResultSet(["v"], [np.array([1.0, None], dtype=object)], [ColumnType.STRING])
    assert boxed.equals(a) and a.equals(boxed)


def test_shape_validation():
    with pytest.raises(ValueError, match="ragged"):
        ResultSet(
            ["a", "b"],
            [np.array([1.0]), np.array([1.0, 2.0])],
            [ColumnType.NUMERIC, ColumnType.NUMERIC],
        )
    with pytest.raises(ValueError, match="mismatched"):
        ResultSet(["a"], [], [])


# --------------------------------------------------------------------------- #
# Wire round trips (hypothesis over column shapes)
# --------------------------------------------------------------------------- #
_numeric_cols = st.lists(
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)),
    max_size=20,
)
_string_cols = st.lists(
    st.one_of(st.none(), st.sampled_from(["", "a", "bb", "ccc", "naïve"])), max_size=20
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_rows=st.integers(min_value=0, max_value=20))
def test_resultset_wire_roundtrip_property(data, n_rows):
    names, arrays, ctypes = [], [], []
    n_cols = data.draw(st.integers(min_value=0, max_value=4))
    for index in range(n_cols):
        names.append(f"c{index}")
        if data.draw(st.booleans()):
            values = data.draw(
                st.lists(
                    st.one_of(
                        st.none(),
                        st.floats(allow_nan=False, allow_infinity=False, width=32),
                    ),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            )
            arrays.append(
                np.array([np.nan if v is None else v for v in values], dtype=np.float64)
            )
            ctypes.append(ColumnType.NUMERIC)
        else:
            values = data.draw(
                st.lists(
                    st.one_of(st.none(), st.sampled_from(["", "a", "bb", "naïve"])),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            )
            arrays.append(np.array(values, dtype=object))
            ctypes.append(ColumnType.STRING)
    rset = ResultSet(names, arrays, ctypes)
    decoded = _wire_roundtrip({"ok": True, "result": rset})["result"]
    assert isinstance(decoded, ResultSet)
    assert decoded.equals(rset)
    assert decoded.rows() == rset.rows()
    assert decoded.nbytes == rset.nbytes


def test_wire_roundtrip_edge_shapes():
    cases = [
        ResultSet([], [], []),  # zero columns
        ResultSet(["v"], [np.array([], dtype=np.float64)], [ColumnType.NUMERIC]),
        ResultSet(["s"], [np.array([], dtype=object)], [ColumnType.STRING]),
        ResultSet(  # all-NULL columns of both types
            ["v", "s"],
            [np.full(5, np.nan), np.array([None] * 5, dtype=object)],
            [ColumnType.NUMERIC, ColumnType.STRING],
        ),
    ]
    for rset in cases:
        decoded = _wire_roundtrip(rset)
        assert decoded.equals(rset)
        assert decoded.rows() == rset.rows()


def test_wire_roundtrip_preserves_noncontiguous_input():
    # A strided slice (e.g. a column of a 2-D array) must still export as
    # one contiguous out-of-band buffer.
    grid = np.arange(20, dtype=np.float64).reshape(10, 2)
    rset = ResultSet(["v"], [grid[:, 1]], [ColumnType.NUMERIC])
    assert rset.arrays[0].flags["C_CONTIGUOUS"]
    decoded = _wire_roundtrip(rset)
    assert decoded.arrays[0].tolist() == grid[:, 1].tolist()


def test_row_cache_does_not_cross_the_wire():
    rset = ResultSet(["v"], [np.array([1.0, 2.0])], [ColumnType.NUMERIC])
    rset.rows()  # populate the lazy row cache
    frame_with_cache = encode_frame(rset)
    fresh = ResultSet(["v"], [np.array([1.0, 2.0])], [ColumnType.NUMERIC])
    assert len(frame_with_cache) == len(encode_frame(fresh))


# --------------------------------------------------------------------------- #
# Torn and corrupt buffer sections
# --------------------------------------------------------------------------- #
def test_torn_buffer_section_raises_not_hangs():
    rset = ResultSet(["v"], [np.arange(64, dtype=np.float64)], [ColumnType.NUMERIC])
    frame = encode_frame(rset)
    payload_length, section_length = frame_section_lengths(frame[:FRAME_HEADER_BYTES])
    assert section_length > 0
    left, right = socket.socketpair()
    try:
        # Send everything but the tail of the buffer section, then die.
        left.sendall(frame[: len(frame) - 16])

        def close_soon() -> None:
            left.close()

        closer = threading.Timer(0.05, close_soon)
        closer.start()
        try:
            with pytest.raises(WireProtocolError, match="mid-frame"):
                recv_frame(right)
        finally:
            closer.cancel()
    finally:
        try:
            left.close()
        except OSError:
            pass
        right.close()


def test_inconsistent_buffer_section_is_protocol_error():
    rset = ResultSet(["v"], [np.arange(8, dtype=np.float64)], [ColumnType.NUMERIC])
    frame = bytearray(encode_frame(rset))
    payload_length, section_length = frame_section_lengths(
        bytes(frame[:FRAME_HEADER_BYTES])
    )
    section_start = FRAME_HEADER_BYTES + payload_length
    # Corrupt the declared buffer count: lengths no longer fit the section.
    frame[section_start : section_start + 4] = (1000).to_bytes(4, "big")
    with pytest.raises(WireProtocolError, match="declares"):
        decode_frame_sections(
            bytes(frame[FRAME_HEADER_BYTES:section_start]), bytes(frame[section_start:])
        )
    # Truncated mid-lengths section.
    with pytest.raises(WireProtocolError):
        decode_frame_sections(
            bytes(frame[FRAME_HEADER_BYTES:section_start]), b"\x00\x00"
        )
    # Trailing garbage after the last declared buffer.
    original = encode_frame(rset)
    with pytest.raises(WireProtocolError, match="trailing"):
        decode_frame_sections(
            original[FRAME_HEADER_BYTES:section_start],
            original[section_start:] + b"xx",
        )


def test_missing_buffers_for_out_of_band_payload_is_protocol_error():
    # The payload references out-of-band buffers that never arrive.
    rset = ResultSet(["v"], [np.arange(8, dtype=np.float64)], [ColumnType.NUMERIC])
    frame = encode_frame(rset)
    payload_length, _ = frame_section_lengths(frame[:FRAME_HEADER_BYTES])
    with pytest.raises(WireProtocolError):
        decode_frame_sections(
            frame[FRAME_HEADER_BYTES : FRAME_HEADER_BYTES + payload_length], b""
        )


# --------------------------------------------------------------------------- #
# Cache byte accounting with columnar entries
# --------------------------------------------------------------------------- #
def _batch(value: float, n_rows: int) -> ResultSet:
    return ResultSet(
        ["v"], [np.full(n_rows, value, dtype=np.float64)], [ColumnType.NUMERIC]
    )


def test_cache_bytes_equal_sum_of_resident_entries_after_mixed_sequence():
    """current_bytes == sum of resident entries through put/evict/reject/clear."""
    cache = QueryCache(max_entries=4)

    def check() -> None:
        with cache._lock:
            resident = sum(e.payload_bytes for e in cache._entries.values())
            assert cache.stats.current_bytes == resident

    for index in range(6):  # inserts + count evictions
        batch = _batch(float(index), 10 + index)
        assert cache.put(f"q{index}", batch, batch.nbytes)
        check()
    assert cache.get("q2") is not None  # the next eviction takes q3, not q2
    big = _batch(1.0, 49)
    assert cache.put("big", big, big.nbytes)
    check()
    assert cache.peek("q2") is not None and cache.peek("q3") is None
    assert not cache.put("too-big", _batch(1.0, 1), MAX_CACHED_RESULT_BYTES + 1)  # rejected
    check()
    cache.clear()
    check()
    assert cache.total_bytes == 0


def test_cache_entry_rows_materialise_lazily_and_payload_is_exact():
    cache = QueryCache(max_entries=2)
    batch = _batch(1.5, 4)
    cache.put("q", batch, batch.nbytes)
    entry = cache.get("q")
    assert entry.payload_bytes == batch.nbytes == 32
    assert entry.result.rows() == [{"v": 1.5}] * 4
    # The columnar codec's estimate is the documented formula, exactly.
    codec = ArrowCodec()
    assert codec.estimate_result(batch).payload_bytes == batch.nbytes + codec.framing_bytes
