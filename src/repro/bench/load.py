"""Open-loop load generation for the serving tiers (Figure 14).

The fig10 driver (:mod:`repro.bench.concurrency`) is **closed-loop**:
each simulated user waits for a response before issuing the next query,
so when the server slows down the offered load politely slows down with
it — queueing delay is hidden (the classic *coordinated omission*
problem).  A serving tier's saturation behaviour only shows under
**open-loop** load: requests arrive on a fixed schedule regardless of
how the server is doing, and each request's latency is measured from its
*scheduled arrival time*, so time spent waiting behind a slow server
counts against the server.

This module drives both serving tiers through one async interface:

* :class:`ThreadedTier` — the single-process baseline: one
  :class:`~repro.server.session.SessionManager` over one middleware and
  single-flight scheduler, adapted to asyncio via a thread-pool executor
  whose threads run their queries themselves.  It runs
  the **same** request handler a shard worker runs
  (:meth:`SessionManager.execute`) behind the **same**
  :class:`~repro.server.shard.AdmissionController` as the gateway, and
  reports the same :func:`~repro.server.shard.tier_stats`, so fig14
  compares execution models over shared code, not two implementations,
* :class:`~repro.server.shard.AsyncGateway` — the sharded tier.

:func:`run_serving_point` measures one (tier, scenario, sessions,
arrival rate) cell: completed/shed/failed counts, saturation-relevant
throughput, p50/p95/p99 sojourn latency, and **row identity** of every
completed response against a serial execution of the same query.
:func:`run_serving_sweep` grids the cells; fig14's headline is
:func:`saturation_throughput` — the best completed-requests-per-second a
tier sustains across the arrival-rate axis.
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.bench.concurrency import build_sessions, latency_percentiles
from repro.errors import BenchmarkError, OverloadError, ServingError
from repro.net.middleware import QueryResponse
from repro.server.session import SessionManager
from repro.server.shard import (
    AdmissionController,
    AsyncGateway,
    ShardSpec,
    TableSpec,
    tier_stats,
)

#: Tier names accepted by :func:`run_serving_point`.
SERVING_TIERS = ("threaded", "sharded")


class ThreadedTier:
    """The single-process serving tier behind the gateway's async API.

    One shared middleware + single-flight scheduler (the pre-sharding
    serving runtime), adapted to the event loop with a thread-pool
    executor.  Admission control is the gateway's own
    :class:`AdmissionController` and requests run through
    :meth:`SessionManager.execute`, the handler a shard worker runs.
    :meth:`close` drains the executor before it shuts the manager down,
    so every admitted request is answered; a request after close raises
    :class:`~repro.errors.ServingError`.
    """

    def __init__(
        self,
        spec: ShardSpec,
        max_inflight: int = 16,
        max_queue_depth: int = 64,
    ) -> None:
        self.spec = spec
        self.admission = AdmissionController(max_inflight, max_queue_depth)
        self._database = None
        self._manager: SessionManager | None = None
        self._executor: ThreadPoolExecutor | None = None

    async def __aenter__(self) -> "ThreadedTier":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def start(self) -> None:
        if self._manager is not None:
            return
        self._database = self.spec.build_backend()
        self._manager = SessionManager.for_backend(
            self._database, max_workers=self.spec.max_workers, network=self.spec.network
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.spec.max_workers),
            thread_name_prefix="threaded-tier",
        )

    def _running(self) -> SessionManager:
        if self._manager is None:
            raise ServingError("threaded tier is not running")
        return self._manager

    async def execute(self, session_id: str, sql: str) -> QueryResponse:
        """Serve one request (sheds with :class:`OverloadError`)."""
        await self.admission.acquire()
        ok = False
        try:
            # Checked once admitted: a request queued across close() fails
            # typed instead of reaching a shut-down executor.
            manager = self._running()
            response = await asyncio.get_running_loop().run_in_executor(
                self._executor, manager.execute, session_id, sql
            )
            ok = True
        finally:
            self.admission.release(ok=ok)
        return response

    async def stats(self) -> dict[str, object]:
        """Same shape as :meth:`AsyncGateway.stats` with one 'shard'."""
        return tier_stats([self._running().snapshot()], self.admission)

    async def close(self) -> None:
        manager, self._manager = self._manager, None
        if self._executor is not None:
            self._executor.shutdown(wait=True)  # answer what was admitted
            self._executor = None
        if manager is not None:
            manager.shutdown()
        if self._database is not None:
            self._database.close()
            self._database = None


# --------------------------------------------------------------------------- #
# The open-loop generator
# --------------------------------------------------------------------------- #
@dataclass
class OpenLoopPoint:
    """One measured cell of the fig14 sweep."""

    tier: str
    scenario: str
    backend: str
    n_sessions: int
    #: Offered load: scheduled request arrivals per second.
    arrival_rate: float
    n_requests: int
    n_shards: int = 1
    completed: int = 0
    shed: int = 0
    failed: int = 0
    #: First scheduled arrival to last completion, real seconds.
    wall_seconds: float = 0.0
    #: Completed requests per wall second — the saturation metric.
    throughput_rps: float = 0.0
    #: Sojourn latency (completion − *scheduled* arrival) of every
    #: completed request: open-loop, so server queueing is charged to
    #: the server even when the client would have been "waiting anyway".
    latencies: list[float] = field(default_factory=list)
    #: p50/p95/p99 over :attr:`latencies`.
    percentiles: dict[str, float] = field(default_factory=dict)
    #: True when every completed response was row-identical to the
    #: serial baseline.
    matches_serial: bool = False
    mismatched_queries: list[str] = field(default_factory=list)
    #: ``stats()["serving"]`` of the tier after the run.
    serving: dict[str, object] = field(default_factory=dict)


def open_loop_requests(
    scenario: str, n_sessions: int, queries_per_session: int, seed: int = 0
) -> list[tuple[str, str]]:
    """The request stream of one cell: ``(session_id, sql)`` in arrival order.

    Sessions interleave round-robin (step 0 of every session, then step
    1, …) — the arrival pattern of many dashboards refreshing together —
    so consecutive arrivals usually route to *different* shards.
    """
    sessions_sql = build_sessions(scenario, n_sessions, queries_per_session, seed=seed)
    return [
        (f"user-{session_index}", sessions_sql[session_index][step])
        for step in range(queries_per_session)
        for session_index in range(n_sessions)
    ]


async def run_open_loop(
    tier: AsyncGateway | ThreadedTier,
    requests: Sequence[tuple[str, str]],
    arrival_rate: float,
    expected_rows: dict[str, list[dict]],
    point: OpenLoopPoint,
) -> OpenLoopPoint:
    """Drive ``requests`` at ``arrival_rate``/s and fill ``point`` in.

    Request *k* is dispatched at ``start + k / arrival_rate`` whether or
    not earlier requests finished (open loop); a tier that cannot keep
    up accumulates sojourn latency or sheds — it cannot slow the clock.
    """
    if arrival_rate <= 0:
        raise BenchmarkError(f"arrival_rate must be positive, got {arrival_rate}")
    loop = asyncio.get_running_loop()
    mismatches: list[str] = []
    failures: list[BaseException] = []

    async def issue(session_id: str, sql: str, scheduled: float) -> None:
        try:
            response = await tier.execute(session_id, sql)
        except OverloadError:
            point.shed += 1
            return
        except Exception as exc:
            point.failed += 1
            failures.append(exc)
            return
        point.latencies.append(loop.time() - scheduled)
        point.completed += 1
        if response.rows != expected_rows[sql]:
            mismatches.append(sql)

    start = loop.time()
    tasks: list[asyncio.Task] = []
    for index, (session_id, sql) in enumerate(requests):
        scheduled = start + index / arrival_rate
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(issue(session_id, sql, scheduled)))
    if tasks:
        await asyncio.gather(*tasks)

    point.wall_seconds = loop.time() - start
    point.throughput_rps = (
        point.completed / point.wall_seconds if point.wall_seconds > 0 else 0.0
    )
    point.percentiles = latency_percentiles(point.latencies)
    point.mismatched_queries = sorted(set(mismatches))
    point.matches_serial = not mismatches
    if point.failed and not point.completed:
        raise BenchmarkError(
            f"every request failed; first failure: {failures[0]!r}"
        ) from failures[0]
    return point


def run_serving_point(
    tier: str,
    scenario: str = "sliding_brush",
    backend: str = "embedded",
    n_sessions: int = 8,
    queries_per_session: int = 4,
    arrival_rate: float = 50.0,
    n_rows: int = 2_000,
    n_shards: int = 2,
    max_workers: int = 4,
    max_inflight: int = 32,
    max_queue_depth: int = 256,
    seed: int = 0,
    start_method: str | None = None,
) -> OpenLoopPoint:
    """Measure one fig14 cell against a fresh serving tier.

    Builds the serial baseline first (every unique query straight on an
    identical backend — the row-identity ground truth), then boots the
    requested tier and replays the open-loop schedule against it.
    """
    if tier not in SERVING_TIERS:
        raise BenchmarkError(f"unknown tier {tier!r}; choose from {SERVING_TIERS}")
    spec = ShardSpec(
        backend=backend,
        tables=(TableSpec("flights", n_rows, seed=seed),),
        max_workers=max_workers,
    )
    requests = open_loop_requests(scenario, n_sessions, queries_per_session, seed=seed)

    baseline = spec.build_backend()
    try:
        unique_queries = sorted({sql for _, sql in requests})
        expected_rows = {sql: baseline.execute(sql).to_rows() for sql in unique_queries}
        backend_name = baseline.name
    finally:
        baseline.close()

    point = OpenLoopPoint(
        tier=tier,
        scenario=scenario,
        backend=backend_name,
        n_sessions=n_sessions,
        arrival_rate=arrival_rate,
        n_requests=len(requests),
        n_shards=n_shards if tier == "sharded" else 1,
    )

    async def drive() -> OpenLoopPoint:
        if tier == "sharded":
            service: AsyncGateway | ThreadedTier = AsyncGateway(
                spec,
                n_shards=n_shards,
                max_inflight=max_inflight,
                max_queue_depth=max_queue_depth,
                start_method=start_method,
            )
        else:
            service = ThreadedTier(
                spec, max_inflight=max_inflight, max_queue_depth=max_queue_depth
            )
        async with service:
            await run_open_loop(service, requests, arrival_rate, expected_rows, point)
            point.serving = (await service.stats())["serving"]
        return point

    return asyncio.run(drive())


def run_serving_sweep(
    tiers: Sequence[str] = SERVING_TIERS,
    scenarios: Sequence[str] = ("sliding_brush",),
    arrival_rates: Sequence[float] = (25.0, 100.0),
    n_sessions: int = 8,
    queries_per_session: int = 4,
    backend: str = "embedded",
    n_rows: int = 2_000,
    n_shards: int = 2,
    max_workers: int = 4,
    max_inflight: int = 32,
    max_queue_depth: int = 256,
    seed: int = 0,
) -> list[OpenLoopPoint]:
    """The fig14 grid: tier × scenario × arrival rate, fresh tier per cell.

    A fresh tier per cell keeps cells independent (no warm caches
    leaking across rates), which is what makes the per-rate latency
    profile interpretable as a saturation curve.
    """
    points: list[OpenLoopPoint] = []
    for tier in tiers:
        for scenario in scenarios:
            for arrival_rate in arrival_rates:
                points.append(
                    run_serving_point(
                        tier,
                        scenario=scenario,
                        backend=backend,
                        n_sessions=n_sessions,
                        queries_per_session=queries_per_session,
                        arrival_rate=arrival_rate,
                        n_rows=n_rows,
                        n_shards=n_shards,
                        max_workers=max_workers,
                        max_inflight=max_inflight,
                        max_queue_depth=max_queue_depth,
                        seed=seed,
                    )
                )
    return points


def saturation_throughput(points: Sequence[OpenLoopPoint], tier: str) -> float:
    """Best completed-requests/second ``tier`` sustained in ``points``."""
    rates = [point.throughput_rps for point in points if point.tier == tier]
    return max(rates) if rates else 0.0
