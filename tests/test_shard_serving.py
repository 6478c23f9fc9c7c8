"""Sharded serving tier: wire protocol, admission, gateway, open-loop load.

Process-spawning tests keep their datasets tiny (a few hundred rows) —
they exercise protocol and lifecycle correctness, not throughput; the
saturation measurements live in ``benchmarks/bench_fig14_serving.py``.
"""

from __future__ import annotations

import asyncio
import pickle
import socket

import pytest

from repro.bench.load import (
    ThreadedTier,
    open_loop_requests,
    run_serving_point,
    saturation_throughput,
)
from repro.errors import BenchmarkError, OverloadError, ServingError, ShardError, SQLError
from repro.net.middleware import QueryResponse
from repro.net.serialize import (
    FRAME_HEADER_BYTES,
    MAX_BUFFER_SECTION_BYTES,
    MAX_FRAME_BYTES,
    WireProtocolError,
    encode_frame,
    frame_section_lengths,
    recv_frame,
    send_frame,
)
from repro.server.shard import (
    AdmissionController,
    AsyncGateway,
    ShardSpec,
    TableSpec,
    default_start_method,
    shard_for,
)

SQL = (
    "SELECT carrier, COUNT(*) AS n FROM flights "
    "WHERE dep_delay >= 0 GROUP BY carrier ORDER BY carrier"
)

SPEC = ShardSpec(backend="embedded", tables=(TableSpec("flights", 300),), max_workers=2)


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
def test_wire_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        messages = [
            {"op": "execute", "request_id": 7, "sql": SQL},
            {"rows": [{"a": 1.5, "b": None}], "ok": True},
            "just a string",
        ]
        for message in messages:
            send_frame(left, message)
        for message in messages:
            assert recv_frame(right) == message
    finally:
        left.close()
        right.close()


def test_wire_clean_close_raises_eof_torn_frame_raises_protocol_error():
    # Clean close at a frame boundary -> EOFError.
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(EOFError):
            recv_frame(right)
    finally:
        right.close()
    # Death mid-frame -> WireProtocolError, never a silent truncation.
    left, right = socket.socketpair()
    try:
        frame = encode_frame({"op": "ping"})
        left.sendall(frame[: len(frame) - 2])
        left.close()
        with pytest.raises(WireProtocolError):
            recv_frame(right)
    finally:
        right.close()


def test_wire_header_validation():
    header = encode_frame("x")[:FRAME_HEADER_BYTES]
    payload_length, section_length = frame_section_lengths(header)
    assert payload_length == len(pickle.dumps("x", protocol=5))
    assert section_length == 0  # a plain string carries no out-of-band buffers
    with pytest.raises(WireProtocolError):
        frame_section_lengths(b"\x00\x00")  # short header
    oversized_payload = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + (0).to_bytes(8, "big")
    with pytest.raises(WireProtocolError):
        frame_section_lengths(oversized_payload)
    oversized_section = (1).to_bytes(4, "big") + (
        MAX_BUFFER_SECTION_BYTES + 1
    ).to_bytes(8, "big")
    with pytest.raises(WireProtocolError):
        frame_section_lengths(oversized_section)


def test_wire_undecodable_payload_is_protocol_error():
    left, right = socket.socketpair()
    try:
        garbage = b"\x93NOTPICKLE"
        header = len(garbage).to_bytes(4, "big") + (0).to_bytes(8, "big")
        left.sendall(header + garbage)
        with pytest.raises(WireProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# --------------------------------------------------------------------------- #
# Routing and admission
# --------------------------------------------------------------------------- #
def test_shard_for_is_stable_and_in_range():
    assignments = {f"user-{i}": shard_for(f"user-{i}", 4) for i in range(64)}
    assert all(0 <= shard < 4 for shard in assignments.values())
    # Deterministic across calls (and across processes: CRC-32, not hash()).
    assert assignments == {sid: shard_for(sid, 4) for sid in assignments}
    # Not degenerate: 64 sessions over 4 shards use more than one shard.
    assert len(set(assignments.values())) > 1
    with pytest.raises(ValueError):
        shard_for("x", 0)


def test_admission_controller_sheds_past_both_bounds():
    async def scenario():
        admission = AdmissionController(max_inflight=1, max_queue_depth=1)
        await admission.acquire()  # runs
        queued = asyncio.ensure_future(admission.acquire())  # queues
        await asyncio.sleep(0)
        with pytest.raises(OverloadError):
            await admission.acquire()  # both bounds hit -> shed
        admission.release(ok=True)
        await queued
        admission.release(ok=False)
        return admission.stats.snapshot()

    snapshot = asyncio.run(scenario())
    assert snapshot["submitted"] == 3
    assert snapshot["admitted"] == 2
    assert snapshot["shed"] == 1
    assert snapshot["completed"] == 1
    assert snapshot["failed"] == 1
    assert snapshot["inflight"] == 0
    assert snapshot["queued"] == 0
    assert snapshot["peak_inflight"] == 1
    assert snapshot["shed_rate"] == pytest.approx(1 / 3)
    # The shed signal is a distinct, catchable serving error.
    assert issubclass(OverloadError, ServingError)


def test_admission_controller_validates_bounds():
    with pytest.raises(ValueError):
        AdmissionController(0, 4)
    with pytest.raises(ValueError):
        AdmissionController(4, -1)


def test_default_start_method_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_START_METHOD", "spawn")
    assert default_start_method() == "spawn"
    monkeypatch.setenv("REPRO_SHARD_START_METHOD", "not-a-method")
    with pytest.raises(ValueError):
        default_start_method()
    monkeypatch.delenv("REPRO_SHARD_START_METHOD")
    assert default_start_method() in ("forkserver", "spawn")


# --------------------------------------------------------------------------- #
# The gateway, end to end (spawns real worker processes)
# --------------------------------------------------------------------------- #
def test_gateway_serves_row_identical_results_across_shards():
    baseline = SPEC.build_backend()
    try:
        expected = baseline.execute(SQL).to_rows()
    finally:
        baseline.close()

    async def scenario():
        async with AsyncGateway(SPEC, n_shards=2) as gateway:
            session_ids = [f"user-{i}" for i in range(6)]
            responses = await asyncio.gather(
                *(gateway.execute(sid, SQL) for sid in session_ids)
            )
            for sid, response in zip(session_ids, responses):
                # Affinity: the response came from the session's home shard.
                assert response.shard == gateway.shard_for(sid)
            stats = await gateway.stats()
            return responses, stats

    responses, stats = asyncio.run(scenario())
    for response in responses:
        assert response.rows == expected
        assert response.payload_bytes > 0
        assert response.total_seconds > 0
    serving = stats["serving"]
    assert serving["n_shards"] == 2
    assert serving["sessions"] == 6
    assert serving["requests"] == 6
    assert serving["admission"]["shed"] == 0
    # Per-shard session counts are the routing function's partition.
    by_shard = {s["shard"]: s["sessions"] for s in stats["shards"]}
    for shard in range(2):
        assert by_shard[shard] == sum(
            1 for i in range(6) if shard_for(f"user-{i}", 2) == shard
        )


def test_gateway_coalesces_identical_queries_within_a_shard():
    # Pick sessions that all live on shard 0, so their identical queries
    # meet in one worker's single-flight scheduler / server cache.
    co_resident = [f"sess-{i}" for i in range(40) if shard_for(f"sess-{i}", 2) == 0][:6]
    assert len(co_resident) == 6

    async def scenario():
        async with AsyncGateway(SPEC, n_shards=2) as gateway:
            await asyncio.gather(
                *(gateway.execute(sid, SQL) for sid in co_resident)
            )
            return await gateway.stats()

    stats = asyncio.run(scenario())
    serving = stats["serving"]
    # Single-flight + publish-before-retire: one backend execution total.
    assert serving["queries_executed"] == 1
    assert serving["requests"] == 6
    scheduler = serving["scheduler"]
    assert scheduler["submitted"] >= 1


def test_gateway_serving_counters_merge_the_shards():
    """``serving`` is the shards' counters merged: counts sum, the peak is
    the highest shard's, and the mean wait is the total wait over all
    submissions, not the sum of the per-shard means."""
    session_ids = [f"user-{i}" for i in range(8)]
    assert {shard_for(sid, 2) for sid in session_ids} == {0, 1}

    async def scenario():
        async with AsyncGateway(SPEC, n_shards=2) as gateway:
            await asyncio.gather(*(gateway.execute(sid, SQL) for sid in session_ids))
            return await gateway.stats()

    stats = asyncio.run(scenario())
    serving, shards = stats["serving"], stats["shards"]
    for key in ("sessions", "requests", "queries_executed"):
        assert serving[key] == sum(shard[key] for shard in shards)
    assert serving["requests"] == len(session_ids)
    schedulers = [shard["scheduler"] for shard in shards]
    assert all(scheduler["submitted"] > 0 for scheduler in schedulers)
    submitted = sum(scheduler["submitted"] for scheduler in schedulers)
    waited = sum(s["mean_wait_seconds"] * s["submitted"] for s in schedulers)
    merged = serving["scheduler"]
    assert merged["submitted"] == submitted
    assert merged["mean_wait_seconds"] == pytest.approx(waited / submitted)
    assert merged["peak_in_flight"] == max(s["peak_in_flight"] for s in schedulers)


def test_gateway_failed_request_is_typed_and_session_keeps_serving():
    bad_sql = "SELECT no_such_column FROM flights"
    baseline = SPEC.build_backend()
    try:
        with pytest.raises(SQLError) as local:
            baseline.execute(bad_sql)
    finally:
        baseline.close()

    async def scenario():
        async with AsyncGateway(SPEC, n_shards=2) as gateway:
            with pytest.raises(ShardError) as excinfo:
                await gateway.execute("alice", bad_sql)
            response = await gateway.execute("alice", SQL)
            return excinfo.value, response, await gateway.stats()

    error, response, stats = asyncio.run(scenario())
    # The worker's exception class crosses the wire by name.
    assert error.error_type == type(local.value).__name__
    # The same session is served next, on its home shard.
    assert response.rows and response.shard == shard_for("alice", 2)
    assert stats["serving"]["sessions"] == 1
    assert stats["serving"]["admission"]["failed"] == 1


def test_gateway_overload_sheds_with_distinct_error_and_counts():
    async def scenario():
        async with AsyncGateway(
            SPEC, n_shards=2, max_inflight=1, max_queue_depth=0
        ) as gateway:
            outcomes = await asyncio.gather(
                *(gateway.execute(f"user-{i}", SQL) for i in range(8)),
                return_exceptions=True,
            )
            return outcomes, await gateway.stats()

    outcomes, stats = asyncio.run(scenario())
    shed = [o for o in outcomes if isinstance(o, OverloadError)]
    served = [o for o in outcomes if not isinstance(o, BaseException)]
    # Nothing hung and nothing was silently dropped: every request is
    # accounted for as served or shed with the distinct error.
    assert len(shed) + len(served) == 8
    assert shed, "tiny admission budget never shed"
    assert served, "admission shed everything"
    serving = stats["serving"]
    assert serving["admission"]["shed"] == len(shed)
    assert serving["admission"]["completed"] == len(served)


def test_gateway_worker_crash_fails_requests_instead_of_hanging():
    async def scenario():
        async with AsyncGateway(SPEC, n_shards=2) as gateway:
            await asyncio.gather(
                *(gateway.execute(f"user-{i}", SQL) for i in range(4))
            )
            victim = gateway.shard_for("user-0")
            gateway._shards[victim].process.kill()
            # The reader task notices EOF and fails pending futures; any
            # later call to the dead shard raises ShardError promptly.
            await asyncio.sleep(0.3)
            with pytest.raises(ShardError):
                await gateway.execute("user-0", SQL)
            # Surviving shards keep serving.
            survivor = next(
                f"user-{i}" for i in range(8)
                if gateway.shard_for(f"user-{i}") != victim
            )
            response = await gateway.execute(survivor, SQL)
            assert response.rows
            stats = await gateway.stats()
            assert stats["serving"]["live_shards"] == 1
            assert any("error" in s for s in stats["shards"])

    asyncio.run(scenario())


def test_gateway_close_is_idempotent_and_start_validates():
    with pytest.raises(BenchmarkError):
        AsyncGateway(SPEC, n_shards=0)

    async def scenario():
        gateway = AsyncGateway(SPEC, n_shards=2)
        assert await gateway.close() is None  # never started
        gateway = AsyncGateway(SPEC, n_shards=2)
        await gateway.start()
        await gateway.start()  # idempotent
        assert len(gateway._shards) == 2
        await gateway.execute("alice", SQL)
        final = await gateway.close()
        assert final["serving"]["requests"] == 1
        assert await gateway.close() is None  # idempotent
        for handle in gateway._shards:
            assert not handle.process.is_alive()

    asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# Open-loop load generation
# --------------------------------------------------------------------------- #
def test_open_loop_requests_interleave_sessions_round_robin():
    requests = open_loop_requests("sliding_brush", n_sessions=3, queries_per_session=2)
    assert len(requests) == 6
    # Step 0 of every session arrives before step 1 of any session.
    assert [sid for sid, _ in requests[:3]] == ["user-0", "user-1", "user-2"]
    assert [sid for sid, _ in requests[3:]] == ["user-0", "user-1", "user-2"]
    # sliding_brush thresholds are globally unique: no repeated SQL.
    assert len({sql for _, sql in requests}) == 6


SERVING_KEYS = {
    "n_shards", "live_shards", "sessions", "requests", "queries_executed",
    "scheduler", "server_cache", "client_cache", "admission",
}


@pytest.mark.parametrize(
    "make_tier",
    [
        lambda: ThreadedTier(SPEC, max_inflight=4, max_queue_depth=8),
        lambda: AsyncGateway(SPEC, n_shards=1, max_inflight=4, max_queue_depth=8),
    ],
    ids=["threaded", "sharded"],
)
def test_serving_tiers_serve_and_report_the_same_stats_shape(make_tier):
    """Both tiers run the shared handler and the shared summary: same
    response type, same ``serving`` key set, same counts."""

    async def scenario():
        async with make_tier() as tier:
            responses = await asyncio.gather(
                *(tier.execute(f"user-{i}", SQL) for i in range(4))
            )
            stats = await tier.stats()
            return responses, stats

    responses, stats = asyncio.run(scenario())
    rows = responses[0].rows
    assert rows and all(response.rows == rows for response in responses)
    assert all(type(response) is QueryResponse for response in responses)
    serving = stats["serving"]
    assert set(serving) == SERVING_KEYS
    assert serving["n_shards"] == serving["live_shards"] == 1
    assert serving["sessions"] == 4
    assert serving["requests"] == 4
    assert serving["queries_executed"] == 1  # coalesced/cached in one process
    assert serving["scheduler"]["submitted"] >= 1
    assert serving["admission"]["submitted"] == 4
    assert [shard["shard"] for shard in stats["shards"]] == [0]


def test_threaded_tier_close_answers_every_admitted_request():
    """close() drains the executor before shutting the manager down, so
    requests admitted before it complete; a request after it is a typed
    serving error."""
    queries = [
        "SELECT carrier, COUNT(*) AS n FROM flights "
        f"WHERE dep_delay >= {threshold} GROUP BY carrier ORDER BY carrier"
        for threshold in range(16)
    ]

    async def scenario():
        tier = ThreadedTier(SPEC, max_inflight=16, max_queue_depth=0)
        await tier.start()
        tasks = [
            asyncio.ensure_future(tier.execute(f"user-{i}", sql))
            for i, sql in enumerate(queries)
        ]
        for _ in range(3):  # every task reaches the executor, few finish
            await asyncio.sleep(0)
        await tier.close()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        late = await asyncio.gather(tier.execute("late", SQL), return_exceptions=True)
        return outcomes, late[0]

    outcomes, late = asyncio.run(scenario())
    errors = [o for o in outcomes if isinstance(o, BaseException)]
    assert not errors, errors[:3]
    assert all(response.rows for response in outcomes)
    assert isinstance(late, ServingError)


@pytest.mark.parametrize("tier", ["threaded", "sharded"])
def test_open_loop_point_rows_identical_and_accounted(tier):
    point = run_serving_point(
        tier,
        scenario="sliding_brush",
        n_sessions=4,
        queries_per_session=3,
        arrival_rate=200.0,
        n_rows=300,
        n_shards=2,
        max_workers=2,
    )
    assert point.completed == point.n_requests == 12
    assert point.shed == 0 and point.failed == 0
    assert point.matches_serial, point.mismatched_queries
    assert point.throughput_rps > 0
    p = point.percentiles
    assert 0.0 < p["p50"] <= p["p95"] <= p["p99"]
    assert len(point.latencies) == 12
    assert point.serving["admission"]["shed"] == 0
    assert saturation_throughput([point], tier) == point.throughput_rps


def test_open_loop_overload_is_shed_not_hung():
    point = run_serving_point(
        "sharded",
        scenario="sliding_brush",
        n_sessions=4,
        queries_per_session=3,
        arrival_rate=5_000.0,
        n_rows=300,
        n_shards=2,
        max_workers=2,
        max_inflight=1,
        max_queue_depth=0,
    )
    assert point.shed > 0
    assert point.failed == 0
    assert point.completed + point.shed == point.n_requests
    assert point.serving["admission"]["shed"] == point.shed
    assert point.matches_serial, point.mismatched_queries


def test_run_serving_point_validates_tier_and_rate():
    with pytest.raises(BenchmarkError):
        run_serving_point("bogus")
    with pytest.raises(BenchmarkError):
        run_serving_point("threaded", arrival_rate=0.0, n_rows=300)
