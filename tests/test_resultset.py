"""Result tables and their out-of-band wire transport.

The executor's :class:`~repro.storage.table.Table` is what caches,
frames and clients carry.  The contract of that result path:

* ``Table.to_rows()`` is the canonical row view, materialised once per
  result and cached on it — never on a catalog table,
* ``Table.nbytes`` is exact — cache byte counts charge on insert
  exactly what eviction frees,
* a table survives the wire protocol round trip (protocol-5 pickle with
  numeric columns as out-of-band raw buffers, encoded string columns as
  code bytes plus the entries they use) for every column shape: empty results, all-NULL columns, string/object columns;
  its caches never cross the wire, and loading hashes no string,
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

from repro.net import MiddlewareServer
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
from repro.storage import column as column_module
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table


def _wire_roundtrip(message: object) -> object:
    frame = encode_frame(message)
    payload_length, section_length = frame_section_lengths(frame[:FRAME_HEADER_BYTES])
    payload_end = FRAME_HEADER_BYTES + payload_length
    assert len(frame) == payload_end + section_length
    return decode_frame_sections(frame[FRAME_HEADER_BYTES:payload_end], frame[payload_end:])


def _numeric(name: str, values) -> Column:
    return Column(name, np.asarray(values, dtype=np.float64), ColumnType.NUMERIC)


def _database() -> Database:
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
    return database


# --------------------------------------------------------------------------- #
# Canonical row view and byte accounting
# --------------------------------------------------------------------------- #
def test_rows_matches_table_to_rows_exactly():
    database = _database()
    result = database.execute("SELECT * FROM t")
    rows = result.to_rows()
    # Integral floats render as int, NaN as None — the to_rows contract.
    assert rows == [
        {"g": "a", "v": 1, "w": None},
        {"g": None, "v": 2.5, "w": 0},
        {"g": "b", "v": None, "w": 7},
    ]
    # Computed once per result, cached on it — and never on the catalog
    # table, whose columns the scan shares.
    assert result.table.to_rows() is rows
    catalog_table = database.table("t")
    assert result.table is not catalog_table
    assert catalog_table._rows is None
    assert result.table.num_rows == 3 and result.table.num_columns == 3


def test_from_table_is_zero_copy_and_nbytes_is_exact():
    database = Database()
    database.register_rows(
        "t", [{"v": 1.0, "s": "ab"}, {"v": None, "s": None}, {"v": 3.0, "s": "cdé"}]
    )
    result = database.execute("SELECT * FROM t").table
    # Zero copy: the scan's columns are the catalog table's own.
    assert result.column("v") is database.table("t").column("v")
    # Exact bytes: 3 float64 values + utf-8 lengths with 4-byte offsets
    # ("ab"=2+4, NULL=4, "cdé"=4+4) — for the encoded column and for its
    # plain object twin alike.
    assert result.nbytes == 3 * 8 + (2 + 4) + 4 + (4 + 4)
    twin = Column("s", np.array(["ab", None, "cdé"], dtype=object), ColumnType.STRING)
    twin.codes = twin.dictionary = None
    assert Table([result.column("v"), twin]).nbytes == result.nbytes
    assert result.column("v").null_mask().tolist() == [False, True, False]
    assert result.column("s").null_mask().tolist() == [False, True, False]


def test_equality_is_canonical():
    a = Table([_numeric("v", [1.0, np.nan])])
    b = Table([_numeric("v", [1.0, np.nan])])
    c = Table([_numeric("v", [1.0, 2.0])])
    assert a.to_rows() == b.to_rows()  # NaN == NaN under the NULL encoding
    assert a.to_rows() != c.to_rows()
    # A numeric column boxed as objects has its float64 twin's rows.
    boxed = Table([Column("v", np.array([1.0, None], dtype=object), ColumnType.STRING)])
    assert boxed.to_rows() == a.to_rows()


def test_shape_validation():
    with pytest.raises(ValueError, match="differing lengths"):
        Table([_numeric("a", [1.0]), _numeric("b", [1.0, 2.0])])
    with pytest.raises(ValueError, match="duplicate"):
        Table([_numeric("a", [1.0]), _numeric("a", [2.0])])


# --------------------------------------------------------------------------- #
# Wire round trips (hypothesis over column shapes)
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_rows=st.integers(min_value=0, max_value=20))
def test_resultset_wire_roundtrip_property(data, n_rows):
    columns = []
    n_cols = data.draw(st.integers(min_value=0, max_value=4))
    for index in range(n_cols):
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
            columns.append(_numeric(f"c{index}", [np.nan if v is None else v for v in values]))
        else:
            values = data.draw(
                st.lists(
                    st.one_of(st.none(), st.sampled_from(["", "a", "bb", "naïve"])),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            )
            columns.append(
                Column(f"c{index}", np.array(values, dtype=object), ColumnType.STRING)
            )
    table = Table(columns)
    decoded = _wire_roundtrip({"ok": True, "result": table})["result"]
    assert isinstance(decoded, Table)
    assert decoded.column_names() == table.column_names()
    assert [c.ctype for c in decoded.columns()] == [c.ctype for c in table.columns()]
    assert decoded.to_rows() == table.to_rows()
    assert decoded.nbytes == table.nbytes


def test_wire_roundtrip_edge_shapes():
    cases = [
        Table([]),  # zero columns
        Table([_numeric("v", [])]),
        Table([Column("s", np.array([], dtype=object), ColumnType.STRING)]),
        Table(  # all-NULL columns of both types
            [
                _numeric("v", np.full(5, np.nan)),
                Column("s", np.array([None] * 5, dtype=object), ColumnType.STRING),
            ]
        ),
        # A mixed-object column stays in the object representation.
        Table([Column("m", np.array(["a", 2.5, None], dtype=object), ColumnType.STRING)]),
    ]
    for table in cases:
        decoded = _wire_roundtrip(table)
        assert decoded.to_rows() == table.to_rows()
        assert decoded.nbytes == table.nbytes
        for got, want in zip(decoded.columns(), table.columns()):
            assert (got.codes is None) == (want.codes is None)


def test_wire_roundtrip_preserves_noncontiguous_input():
    # A strided slice (e.g. a column of a 2-D array) must still export as
    # one contiguous out-of-band buffer.
    grid = np.arange(20, dtype=np.float64).reshape(10, 2)
    table = Table([_numeric("v", grid[:, 1])])
    assert not table.column("v").values.flags["C_CONTIGUOUS"]
    frame = encode_frame(table)
    assert frame_section_lengths(frame[:FRAME_HEADER_BYTES])[1] >= 10 * 8
    decoded = _wire_roundtrip(table)
    assert decoded.column("v").values.tolist() == grid[:, 1].tolist()


def test_row_cache_does_not_cross_the_wire():
    table = Table([_numeric("v", [1.0, 2.0])])
    table.to_rows()  # populate the row cache
    assert table.nbytes == 16  # and the byte count
    frame_with_cache = encode_frame(table)
    fresh = Table([_numeric("v", [1.0, 2.0])])
    assert len(frame_with_cache) == len(encode_frame(fresh))
    decoded = _wire_roundtrip(table)
    assert decoded._rows is None and decoded._nbytes is None


def test_filtered_encoded_column_ships_only_the_entries_it_uses():
    big = Column.from_values("s", [f"key-{i:04d}" for i in range(1000)] + [None])
    picked = big.take(np.tile([7, 1000, 7, 512], 500))
    assert picked.dictionary is big.dictionary
    decoded_form = Column("s", picked.values, ColumnType.STRING)
    decoded_form.codes = decoded_form.dictionary = None
    frame = encode_frame(Table([picked]))
    assert len(frame) < len(encode_frame(Table([decoded_form])))
    loaded = _wire_roundtrip(Table([picked])).column("s")
    assert loaded.to_pylist() == picked.to_pylist()
    assert loaded.dictionary.tolist() == ["key-0007", "key-0512"]
    assert loaded.codes[:4].tolist() == [0, 2, 0, 1]  # NULL = len(dictionary)


def test_loading_a_frame_hashes_no_string(monkeypatch):
    database = _database()
    frame = encode_frame(database.execute("SELECT g, COUNT(*) AS n FROM t GROUP BY g").table)
    calls = []
    original = column_module.encode_strings

    def counting(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(column_module, "encode_strings", counting)
    payload_length, _ = frame_section_lengths(frame[:FRAME_HEADER_BYTES])
    payload_end = FRAME_HEADER_BYTES + payload_length
    loaded = decode_frame_sections(frame[FRAME_HEADER_BYTES:payload_end], frame[payload_end:])
    assert loaded.column("g").codes is not None
    assert loaded.to_rows() == [{"g": "a", "n": 1}, {"g": "b", "n": 1}, {"g": None, "n": 1}]
    assert calls == []


# --------------------------------------------------------------------------- #
# Torn and corrupt buffer sections
# --------------------------------------------------------------------------- #
def test_torn_buffer_section_raises_not_hangs():
    frame = encode_frame(Table([_numeric("v", np.arange(64))]))
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
    table = Table([_numeric("v", np.arange(8))])
    frame = bytearray(encode_frame(table))
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
    original = encode_frame(table)
    with pytest.raises(WireProtocolError, match="trailing"):
        decode_frame_sections(
            original[FRAME_HEADER_BYTES:section_start],
            original[section_start:] + b"xx",
        )


def test_missing_buffers_for_out_of_band_payload_is_protocol_error():
    # The payload references out-of-band buffers that never arrive.
    frame = encode_frame(Table([_numeric("v", np.arange(8))]))
    payload_length, _ = frame_section_lengths(frame[:FRAME_HEADER_BYTES])
    with pytest.raises(WireProtocolError):
        decode_frame_sections(
            frame[FRAME_HEADER_BYTES : FRAME_HEADER_BYTES + payload_length], b""
        )


# --------------------------------------------------------------------------- #
# Cache byte accounting with columnar entries
# --------------------------------------------------------------------------- #
def _batch(value: float, n_rows: int) -> Table:
    return Table([_numeric("v", np.full(n_rows, value))])


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
    assert cache.stats.current_bytes == 0


def test_cache_entry_rows_materialise_lazily_and_payload_is_exact():
    cache = QueryCache(max_entries=2)
    batch = _batch(1.5, 4)
    cache.put("q", batch, batch.nbytes)
    entry = cache.get("q")
    assert entry.payload_bytes == batch.nbytes == 32
    assert entry.result._rows is None
    assert entry.result.to_rows() == [{"v": 1.5}] * 4
    # The columnar codec's estimate is the documented formula, exactly.
    codec = ArrowCodec()
    assert codec.estimate_result(batch).payload_bytes == batch.nbytes + codec.framing_bytes


def test_client_cache_hit_reuses_the_materialised_rows():
    middleware = MiddlewareServer(_database())
    sql = "SELECT g, v FROM t"
    first = middleware.execute(sql)
    assert first.cache_level is None
    rows = first.rows
    hit = middleware.execute(sql)
    assert hit.cache_level == "client"
    assert hit.result is first.result
    assert hit.rows is rows
