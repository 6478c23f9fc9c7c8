"""Serialisation: cost models and the sharded-tier wire protocol.

VegaPlus reduces network transfer cost by encoding query results with the
binary Apache Arrow format instead of JSON (Section 4).  We model the two
codecs' payload sizes (and the CPU cost of encoding/decoding) without
materialising giant byte strings: sizes are computed from a columnar
:class:`~repro.storage.table.Table` result — exactly for the columnar
codec, from a head-row sample for the text codec — which keeps benchmarks
fast while preserving the relative JSON/Arrow gap.

This module also carries the **real** wire format of the sharded serving
tier (:mod:`repro.server.shard`): length-prefixed frames over a stream
socket/pipe.  A frame is::

    header (12 bytes):  >IQ  = (pickle payload length, buffer section length)
    payload:            pickle protocol 5 of the message
    buffer section:     u32 buffer count, count x u64 buffer lengths,
                        then the raw buffers back to back

The buffer section carries pickle protocol-5 **out-of-band buffers**
(``pickle.dumps(..., buffer_callback=...)`` on the way out,
``pickle.loads(..., buffers=...)`` on the way in): a columnar result's
float64 column arrays travel as raw bytes, never re-encoded cell by
cell.  Messages without out-of-band buffers have an
empty buffer section, which keeps control traffic (pings, stats)
compact.  The
gateway and its worker processes are two halves of one program, so
pickle is the honest codec and the explicit lengths make message
boundaries — and torn streams — detectable on a byte stream.
:func:`encode_frame` / :func:`decode_frame_sections` are shared by the
asyncio side (``StreamReader.readexactly``) and the blocking worker
side (:func:`send_frame` / :func:`recv_frame`).
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
from dataclasses import dataclass

from repro.storage.table import Table

#: Number of rows sampled when estimating per-row payload size.
_SAMPLE_ROWS = 50

# --------------------------------------------------------------------------- #
# Length-prefixed wire frames (sharded serving tier)
# --------------------------------------------------------------------------- #

#: Bytes of the frame header: payload length (u32) + buffer section
#: length (u64), both big-endian.
FRAME_HEADER_BYTES = 12

_FRAME_HEADER = struct.Struct(">IQ")

#: Count prefix of the buffer section (number of out-of-band buffers).
_BUFFER_COUNT = struct.Struct(">I")

#: Per-buffer length entry inside the buffer section.
_BUFFER_LENGTH = struct.Struct(">Q")

#: Upper bound on a single frame's pickle payload (256 MiB).  A length
#: prefix beyond this is treated as stream corruption, not an
#: allocation request.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Upper bound on a frame's out-of-band buffer section (4 GiB).  Column
#: buffers are large by design, but a length past this guard means a
#: corrupt or malicious header, never a legitimate result.
MAX_BUFFER_SECTION_BYTES = 4 * 1024 * 1024 * 1024


class WireProtocolError(RuntimeError):
    """A malformed frame or a connection that died mid-frame."""


def encode_frame(message: object) -> bytes:
    """One wire frame: header + protocol-5 pickle + out-of-band buffers.

    Numeric arrays inside ``message`` (the float64 columns of a result
    :class:`~repro.storage.table.Table`) are exported through
    ``buffer_callback`` as raw buffers in the frame's buffer section —
    the pickle payload holds only their metadata.  Encoded string
    columns (code bytes plus the dictionary entries they use) and object
    columns pickle in-band.
    """
    buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    raw_views = [buffer.raw() for buffer in buffers]
    section_length = 0
    if raw_views:
        section_length = _BUFFER_COUNT.size + len(raw_views) * _BUFFER_LENGTH.size
        section_length += sum(view.nbytes for view in raw_views)
        if section_length > MAX_BUFFER_SECTION_BYTES:
            raise WireProtocolError(
                f"frame buffer section of {section_length} bytes exceeds the "
                f"{MAX_BUFFER_SECTION_BYTES}-byte limit"
            )
    chunks: list[bytes] = [_FRAME_HEADER.pack(len(payload), section_length), payload]
    if raw_views:
        chunks.append(_BUFFER_COUNT.pack(len(raw_views)))
        chunks.extend(_BUFFER_LENGTH.pack(view.nbytes) for view in raw_views)
        chunks.extend(view for view in raw_views)  # type: ignore[arg-type]
    return b"".join(chunks)


def frame_section_lengths(header: bytes) -> tuple[int, int]:
    """``(payload length, buffer section length)`` of a frame header.

    Validates the header size and both length fields; anything out of
    range is stream corruption and raises :class:`WireProtocolError`.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise WireProtocolError(
            f"expected a {FRAME_HEADER_BYTES}-byte frame header, got {len(header)}"
        )
    payload_length, section_length = _FRAME_HEADER.unpack(header)
    if payload_length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame length {payload_length} exceeds the {MAX_FRAME_BYTES}-byte "
            "limit (corrupt stream?)"
        )
    if section_length > MAX_BUFFER_SECTION_BYTES:
        raise WireProtocolError(
            f"frame buffer section length {section_length} exceeds the "
            f"{MAX_BUFFER_SECTION_BYTES}-byte limit (corrupt stream?)"
        )
    return int(payload_length), int(section_length)


def _split_buffer_section(section: bytes | memoryview) -> list[memoryview]:
    """The out-of-band buffers encoded in a frame's buffer section.

    Returns zero-copy memoryview slices.  An internally inconsistent
    section (count/lengths disagreeing with the section size) raises
    :class:`WireProtocolError`.
    """
    if not len(section):
        return []
    view = memoryview(section)
    if len(view) < _BUFFER_COUNT.size:
        raise WireProtocolError(
            f"truncated buffer section: {len(view)} bytes, "
            f"expected at least {_BUFFER_COUNT.size}"
        )
    (count,) = _BUFFER_COUNT.unpack_from(view, 0)
    offset = _BUFFER_COUNT.size
    index_end = offset + count * _BUFFER_LENGTH.size
    if index_end > len(view):
        raise WireProtocolError(
            f"buffer section declares {count} buffers but is only "
            f"{len(view)} bytes long"
        )
    lengths = [
        _BUFFER_LENGTH.unpack_from(view, offset + i * _BUFFER_LENGTH.size)[0]
        for i in range(count)
    ]
    buffers: list[memoryview] = []
    cursor = index_end
    for length in lengths:
        end = cursor + length
        if end > len(view):
            raise WireProtocolError(
                f"buffer section overruns its frame: buffer of {length} bytes "
                f"at offset {cursor} in a {len(view)}-byte section"
            )
        buffers.append(view[cursor:end])
        cursor = end
    if cursor != len(view):
        raise WireProtocolError(
            f"buffer section has {len(view) - cursor} trailing bytes"
        )
    return buffers


def decode_frame_sections(
    payload: bytes | memoryview, buffer_section: bytes | memoryview = b""
) -> object:
    """The message carried by one frame's payload + buffer section."""
    buffers = _split_buffer_section(buffer_section)
    try:
        return pickle.loads(payload, buffers=buffers)
    except WireProtocolError:
        raise
    except Exception as exc:  # pickle raises a zoo of error types
        raise WireProtocolError(f"undecodable frame payload: {exc}") from exc


def send_frame(sock: socket.socket, message: object) -> None:
    """Blocking send of one frame (worker side of the shard protocol)."""
    sock.sendall(encode_frame(message))


def _recv_exactly(sock: socket.socket, n_bytes: int) -> bytes | None:
    """``n_bytes`` from the stream, or ``None`` on EOF at byte 0.

    EOF after at least one byte is a torn frame and raises
    :class:`WireProtocolError`.
    """
    chunks: list[bytes] = []
    remaining = n_bytes
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n_bytes and not chunks:
                return None
            raise WireProtocolError(
                f"connection died mid-frame with {remaining} of {n_bytes} "
                "bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> object:
    """Blocking receive of one frame (worker side of the shard protocol).

    Raises :class:`EOFError` when the peer closed the stream cleanly at a
    frame boundary, :class:`WireProtocolError` on a torn or corrupt frame
    — including a connection that dies inside the buffer section, which
    must surface as an error, never as a hang or a silent truncation.
    """
    header = _recv_exactly(sock, FRAME_HEADER_BYTES)
    if header is None:
        raise EOFError("connection closed")
    payload_length, section_length = frame_section_lengths(header)
    payload = _recv_exactly(sock, payload_length) if payload_length else b""
    if payload is None:
        raise WireProtocolError("connection died between frame header and payload")
    section = _recv_exactly(sock, section_length) if section_length else b""
    if section is None:
        raise WireProtocolError(
            "connection died between frame payload and buffer section"
        )
    return decode_frame_sections(payload, section)


@dataclass(frozen=True)
class PayloadEstimate:
    """Estimated payload size and codec CPU cost for one result transfer."""

    num_rows: int
    payload_bytes: int
    encode_seconds: float
    decode_seconds: float


class Codec:
    """Base class for result-set codecs."""

    #: Human-readable codec name.
    name = "abstract"

    def estimate_result(self, result: Table) -> PayloadEstimate:
        """Estimate the payload of a columnar result without exploding it."""
        raise NotImplementedError


class JsonCodec(Codec):
    """Text JSON codec: large payloads, per-row encode/decode CPU cost.

    This is the paper's default HTTP connector, which "requires client-side
    decoding and leads to large serialization overhead".
    """

    name = "json"

    #: Seconds of CPU per byte for encoding / decoding text JSON.  The
    #: constants approximate a few hundred MB/s, typical of browser JSON.
    encode_seconds_per_byte = 1.0 / 300e6
    decode_seconds_per_byte = 1.0 / 150e6

    def estimate_result(self, result: Table) -> PayloadEstimate:
        """Scale the JSON size of the head rows (cheap: only the sample
        is materialised) to the full row count."""
        sample = result.slice(0, _SAMPLE_ROWS).to_rows()
        if not sample:
            return PayloadEstimate(0, 2, 0.0, 0.0)
        per_row = len(json.dumps(sample, default=str)) / len(sample)
        payload = int(per_row * result.num_rows) + 2
        return PayloadEstimate(
            num_rows=result.num_rows,
            payload_bytes=payload,
            encode_seconds=payload * self.encode_seconds_per_byte,
            decode_seconds=payload * self.decode_seconds_per_byte,
        )


class ArrowCodec(Codec):
    """Binary columnar codec modelled on Apache Arrow IPC.

    Numeric columns cost 8 bytes per value; strings cost their UTF-8 length
    plus a 4-byte offset.  Encoding/decoding is roughly an order of
    magnitude cheaper than JSON because no text parsing is involved.
    """

    name = "arrow"

    encode_seconds_per_byte = 1.0 / 2e9
    decode_seconds_per_byte = 1.0 / 4e9

    #: Fixed per-message framing overhead (schema + record batch headers).
    framing_bytes = 512

    def estimate_result(self, result: Table) -> PayloadEstimate:
        """Exact estimate: the codec is columnar, so the result's own
        byte accounting *is* the Arrow payload size (``nbytes +
        framing_bytes``)."""
        payload = result.nbytes + self.framing_bytes
        return PayloadEstimate(
            num_rows=result.num_rows,
            payload_bytes=payload,
            encode_seconds=payload * self.encode_seconds_per_byte,
            decode_seconds=payload * self.decode_seconds_per_byte,
        )
