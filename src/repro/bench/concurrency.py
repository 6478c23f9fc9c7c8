"""Concurrent-workload driver for the serving runtime (Figure 10).

Models the muBench/Locust-style load methodology of the replication
literature: **N concurrent users × scenario × repetitions**, with latency
percentiles as the headline metric.  Each simulated user is one
:class:`~repro.server.session.ClientSession` driven by its own thread;
all users share one middleware, scheduler and backend, so the driver
exercises exactly the layers the serving runtime must keep thread-safe.

Three scenarios:

* ``cold_start_burst`` — every session opens the *same* dashboard at the
  same instant (a release-day burst): maximal overlap, the single-flight
  scheduler should collapse each distinct query to one execution,
* ``crossfilter_storm`` — every session crossfilters the same dashboard,
  drawing filter thresholds from a small shared pool: heavy (but not
  total) overlap, exercising coalescing *and* cache reuse,
* ``sliding_brush`` — every session drags its own brush monotonically
  across the filter dimension, with thresholds distinct across *all*
  sessions and steps: zero overlap by construction, so neither
  coalescing nor result caching can mask the per-interaction cost — this
  is the regime incremental view maintenance (:mod:`repro.sql.ivm`) is
  built for,
* ``mixed_dashboards`` — sessions are spread across three dashboard
  families with per-session parameters: low overlap, exercising raw
  concurrent throughput.

Every scenario's query set is dialect-neutral and totally ordered
(ORDER BY over the full, non-null group key), so the concurrent run must
return **row-identical** results to a serial execution of the same
queries — the driver checks this and reports it as
:attr:`ConcurrencyResult.matches_serial`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends import create_backend
from repro.datasets.generators import generate_dataset
from repro.errors import BenchmarkError
from repro.net.channel import NetworkModel
from repro.server.session import SessionManager

#: Percentile levels reported by latency summaries.
LATENCY_PERCENTILES = (50, 95, 99)

#: Scenario names accepted by :func:`build_sessions` / :func:`run_scenario`.
CONCURRENCY_SCENARIOS = (
    "cold_start_burst",
    "crossfilter_storm",
    "sliding_brush",
    "mixed_dashboards",
)

#: Shared parameter pools — small on purpose, so concurrent sessions
#: frequently land on identical queries (the interesting regime).
_DELAY_THRESHOLDS = (0, 30, 60, 120)
_DISTANCE_LIMITS = (500, 1000, 2000, 3000)


def _carrier_dashboard(threshold: int) -> str:
    return (
        "SELECT carrier, COUNT(*) AS n, AVG(delay) AS avg_delay "
        f"FROM flights WHERE dep_delay >= {threshold} "
        "GROUP BY carrier ORDER BY carrier"
    )


def _brush_dashboard(threshold: int) -> str:
    # Integer-exact aggregates (COUNT, SUM over integer-valued distance)
    # with a full ORDER BY over the group key: row-identical between the
    # IVM maintenance path and plain re-execution on every backend.
    return (
        "SELECT carrier, COUNT(*) AS n, SUM(distance) AS total_distance "
        f"FROM flights WHERE dep_delay >= {threshold} "
        "GROUP BY carrier ORDER BY carrier"
    )


def _origin_dashboard(limit: int) -> str:
    return (
        "SELECT origin, COUNT(*) AS n, AVG(distance) AS avg_distance "
        f"FROM flights WHERE distance <= {limit} "
        "GROUP BY origin ORDER BY origin"
    )


def _overview_dashboard(threshold: int) -> str:
    return (
        "SELECT carrier, origin, COUNT(*) AS n "
        f"FROM flights WHERE delay >= {threshold} "
        "GROUP BY carrier, origin ORDER BY carrier, origin"
    )


#: The fixed "initial render" query set every cold-starting session issues.
_COLD_START_QUERIES = (
    _carrier_dashboard(_DELAY_THRESHOLDS[0]),
    _origin_dashboard(_DISTANCE_LIMITS[-1]),
    "SELECT cancelled, COUNT(*) AS n, MIN(air_time) AS min_air, "
    "MAX(air_time) AS max_air FROM flights GROUP BY cancelled ORDER BY cancelled",
    _overview_dashboard(_DELAY_THRESHOLDS[1]),
)


def latency_percentiles(latencies: list[float]) -> dict[str, float]:
    """p50/p95/p99 of ``latencies`` (zeros when empty)."""
    if not latencies:
        return {f"p{level}": 0.0 for level in LATENCY_PERCENTILES}
    points = np.percentile(np.asarray(latencies, dtype=float), LATENCY_PERCENTILES)
    return {f"p{level}": float(point) for level, point in zip(LATENCY_PERCENTILES, points)}


def build_sessions(
    scenario: str,
    n_sessions: int,
    queries_per_session: int,
    seed: int = 0,
) -> list[list[str]]:
    """Per-session SQL sequences for ``scenario``."""
    if scenario not in CONCURRENCY_SCENARIOS:
        raise BenchmarkError(
            f"unknown concurrency scenario {scenario!r}; "
            f"choose from {CONCURRENCY_SCENARIOS}"
        )
    if n_sessions <= 0 or queries_per_session <= 0:
        raise BenchmarkError("n_sessions and queries_per_session must be positive")

    if scenario == "cold_start_burst":
        burst = list(_COLD_START_QUERIES)[:queries_per_session] or list(
            _COLD_START_QUERIES
        )
        return [list(burst) for _ in range(n_sessions)]

    if scenario == "sliding_brush":
        # Thresholds are distinct across every (session, step) pair and
        # monotone within a session: each step is a genuinely new query,
        # so the scheduler cannot coalesce it and the result cache cannot
        # serve it — the measured cost is the per-interaction cost.
        return [
            [
                _brush_dashboard(-10 + session_index + n_sessions * step)
                for step in range(queries_per_session)
            ]
            for session_index in range(n_sessions)
        ]

    sessions: list[list[str]] = []
    for session_index in range(n_sessions):
        rng = np.random.default_rng(seed + 7000 + session_index)
        queries: list[str] = []
        for _ in range(queries_per_session):
            if scenario == "crossfilter_storm":
                threshold = int(rng.choice(_DELAY_THRESHOLDS))
                queries.append(_carrier_dashboard(threshold))
            else:  # mixed_dashboards
                family = session_index % 3
                if family == 0:
                    queries.append(_carrier_dashboard(int(rng.choice(_DELAY_THRESHOLDS))))
                elif family == 1:
                    queries.append(_origin_dashboard(int(rng.choice(_DISTANCE_LIMITS))))
                else:
                    queries.append(_overview_dashboard(int(rng.choice(_DELAY_THRESHOLDS))))
        sessions.append(queries)
    return sessions


@dataclass
class ConcurrencyResult:
    """Everything one concurrent run measured."""

    scenario: str
    backend: str
    n_sessions: int
    queries_per_session: int
    max_workers: int
    #: Real wall-clock seconds from barrier release to last session done.
    wall_seconds: float = 0.0
    #: Modelled end-to-end latency of every request, across all sessions.
    latencies: list[float] = field(default_factory=list)
    #: p50/p95/p99 over :attr:`latencies`.
    percentiles: dict[str, float] = field(default_factory=dict)
    #: The serving stack's counters after the run
    #: (:meth:`SessionManager.snapshot`).
    statistics: dict[str, object] = field(default_factory=dict)
    #: Distinct SQL strings in the workload.
    unique_queries: int = 0
    #: True when every concurrent response matched the serial baseline.
    matches_serial: bool = False
    #: Queries whose concurrent rows differed from the serial rows.
    mismatched_queries: list[str] = field(default_factory=list)

    @property
    def coalescing_rate(self) -> float:
        """Fraction of scheduler submissions served by a shared flight."""
        return self.statistics["scheduler"]["coalescing_rate"]

    @property
    def queries_executed(self) -> int:
        """Backend executions the middleware ran."""
        return int(self.statistics["queries_executed"])

    @property
    def requests(self) -> int:
        """Total requests issued across sessions."""
        return len(self.latencies)


def run_scenario(
    scenario: str,
    backend: str = "embedded",
    n_sessions: int = 8,
    queries_per_session: int = 6,
    n_rows: int = 2_000,
    max_workers: int = 4,
    seed: int = 0,
    network: NetworkModel | None = None,
) -> ConcurrencyResult:
    """Run one concurrent scenario and verify against the serial baseline.

    Builds a fresh backend with ``n_rows`` of the flights dataset, runs
    every unique query serially to pin the expected rows, then releases
    ``n_sessions`` threads (one per session, synchronised on a barrier)
    against a shared serving runtime and compares every concurrent
    response to the serial rows.
    """
    sessions_sql = build_sessions(scenario, n_sessions, queries_per_session, seed=seed)
    database = create_backend(backend)
    database.register_rows("flights", generate_dataset("flights", n_rows, seed=seed))

    # Serial baseline: the same workload, one query at a time, straight on
    # the backend (no caches, no scheduler) — the ground truth for row identity.
    unique_queries = sorted({sql for session in sessions_sql for sql in session})
    serial_rows = {sql: database.execute(sql).to_rows() for sql in unique_queries}

    manager = SessionManager.for_backend(database, max_workers=max_workers, network=network)
    result = ConcurrencyResult(
        scenario=scenario,
        backend=database.name,
        n_sessions=n_sessions,
        queries_per_session=queries_per_session,
        max_workers=max_workers,
        unique_queries=len(unique_queries),
    )

    sessions = [manager.create_session(f"user-{i}") for i in range(n_sessions)]
    barrier = threading.Barrier(n_sessions)
    mismatches: list[str] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def drive(session_index: int) -> None:
        session = sessions[session_index]
        try:
            barrier.wait()
            for sql in sessions_sql[session_index]:
                response = session.execute(sql)
                matches = response.rows == serial_rows[sql]
                with lock:
                    result.latencies.append(response.total_seconds)
                    if not matches:
                        mismatches.append(sql)
        except BaseException as exc:  # surfaced after join
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,), name=f"session-{i}")
        for i in range(n_sessions)
    ]
    try:
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_seconds = time.perf_counter() - start
        result.statistics = manager.snapshot()
    finally:
        manager.shutdown()
        database.close()

    if errors:
        raise BenchmarkError(
            f"{len(errors)} session thread(s) failed; first: {errors[0]!r}"
        ) from errors[0]

    result.percentiles = latency_percentiles(result.latencies)
    result.mismatched_queries = sorted(set(mismatches))
    result.matches_serial = not mismatches
    return result
