"""Ablation: serialisation of the result path.

Two cells:

* **Arrow-like vs JSON codec** (Section 4: "To further reduce network
  transfer costs, VegaPlus encodes query results using the binary Apache
  Arrow format") — the same all-client plan under both cost models.
* **Columnar vs row-dict transport** — the real serialize+decode cost of
  shipping one large ``SELECT *`` result through the shard wire protocol
  as a :class:`~repro.storage.resultset.ResultSet` (numeric columns ride
  the frame's out-of-band buffer section as raw float64 buffers) versus
  as the equivalent ``list[dict]`` (every cell boxed and pickled
  in-band).  The measured ratio lands in the results DB as
  ``transport_speedup``; at full ``REPRO_BENCH_SCALE`` the columnar path
  must be at least 3x cheaper.
"""

import time

from repro.bench.scale import bench_scale, scaled_size
from repro.core.enumerator import PlanEnumerator
from repro.core.system import VegaPlusSystem
from repro.net.serialize import (
    FRAME_HEADER_BYTES,
    ArrowCodec,
    JsonCodec,
    decode_frame_sections,
    encode_frame,
    frame_section_lengths,
)
from repro.storage.resultset import ResultSet

SIZE = 20_000


def _initial_render_seconds(configuration, harness, codec) -> float:
    system = VegaPlusSystem(
        configuration.spec,
        configuration.database,
        network=harness.network,
        codec=codec,
        enable_cache=False,
    )
    system.use_plan(PlanEnumerator(configuration.spec).all_client_plan())
    return system.initialize().total_seconds


def test_arrow_vs_json_serialization(benchmark, harness):
    configuration = harness.configure(
        "interactive_histogram", "flights", SIZE, interactions_per_session=0
    )

    arrow_seconds = benchmark.pedantic(
        _initial_render_seconds,
        args=(configuration, harness, ArrowCodec()),
        rounds=1,
        iterations=1,
    )
    json_seconds = _initial_render_seconds(configuration, harness, JsonCodec())

    flights = ResultSet.from_table(configuration.database.table("flights"))
    arrow_bytes = ArrowCodec().estimate_result(flights).payload_bytes
    json_bytes = JsonCodec().estimate_result(flights).payload_bytes

    print(f"\nArrow codec: {arrow_seconds * 1000:8.1f} ms, payload {arrow_bytes:>12,} bytes")
    print(f"JSON codec:  {json_seconds * 1000:8.1f} ms, payload {json_bytes:>12,} bytes")
    assert json_bytes > arrow_bytes
    assert json_seconds > arrow_seconds


# --------------------------------------------------------------------------- #
# Columnar vs row-dict wire transport
# --------------------------------------------------------------------------- #


def _wire_roundtrip(message: object) -> object:
    """Encode one frame and decode it back — the full shard wire cost."""
    frame = encode_frame(message)
    payload_length, _ = frame_section_lengths(frame[:FRAME_HEADER_BYTES])
    payload_end = FRAME_HEADER_BYTES + payload_length
    return decode_frame_sections(frame[FRAME_HEADER_BYTES:payload_end], frame[payload_end:])


def _best_of(fn, message, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(message)
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_vs_rows_transport(benchmark, harness):
    """The tentpole gate: ResultSet frames vs row-dict frames.

    ``SELECT *`` over the scaled flights table is the largest, widest
    result class the serving tier ships.  Both legs run the identical
    encode+decode round trip through the wire protocol; only the payload
    representation differs.  The decoded columnar batch must also be
    row-identical to the row-dict leg under the canonical row view.
    """
    n_rows = scaled_size(SIZE, floor=2_000)
    configuration = harness.configure(
        "interactive_histogram", "flights", n_rows, interactions_per_session=0
    )
    result = configuration.database.execute("SELECT * FROM flights")
    rset = result.result_set()
    rows = result.to_rows()

    columnar_seconds = benchmark.pedantic(
        _best_of, args=(_wire_roundtrip, rset), rounds=1, iterations=1
    )
    rows_seconds = _best_of(_wire_roundtrip, rows)
    speedup = rows_seconds / columnar_seconds if columnar_seconds > 0 else 0.0

    decoded = _wire_roundtrip(rset)
    assert decoded.equals(rset)
    assert decoded.rows() == rows

    benchmark.extra_info["backend"] = configuration.database.name
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["n_columns"] = rset.num_columns
    benchmark.extra_info["columnar_seconds"] = columnar_seconds
    benchmark.extra_info["rows_seconds"] = rows_seconds
    benchmark.extra_info["transport_speedup"] = speedup

    print(
        f"\ncolumnar frame: {columnar_seconds * 1000:8.2f} ms   "
        f"row dicts: {rows_seconds * 1000:8.2f} ms   "
        f"speedup {speedup:5.1f}x  ({n_rows:,} rows x {rset.num_columns} cols)"
    )
    assert speedup > 1.0
    if bench_scale() >= 1.0:
        # Full-scale acceptance gate: >=3x cheaper serialize+decode on
        # the largest result class.  Reduced CI scales still record the
        # ratio in the results DB without gating on it.
        assert speedup >= 3.0
