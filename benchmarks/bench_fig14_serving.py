"""Figure 14 (extension): the sharded serving tier under open-loop load.

The fig10 benchmark drives the serving runtime closed-loop (each session
waits for its response before the next query), which hides queueing
delay once the tier saturates.  This benchmark drives both serving tiers
**open-loop** (:mod:`repro.bench.load`): requests arrive on a fixed
schedule, latency is measured from the *scheduled* arrival — so a tier
that falls behind shows it in the tail — and offered load beyond the
admission budget is **shed** with a distinct error, never queued
unboundedly and never dropped silently.

The grid is scenario × arrival rate × sessions per tier:

* ``threaded`` — the single-process baseline (one SessionManager whose
  requests run on a thread-pool executor's threads, each bounded and
  coalesced by one single-flight scheduler),
* ``sharded`` — the :class:`~repro.server.shard.AsyncGateway` over
  session-sharded worker processes.

Correctness gates at **every** cell: each completed response must be
row-identical to a serial execution of the same query, the request
accounting must be exact (completed + shed + failed = offered), and
p50/p95/p99 must be recorded.  The ≥ 2× saturation-throughput gate for
the sharded tier only binds at full workload scale on ≥ 4 cores (the
GIL-bound baseline has nothing to lose on a single-core runner).
"""

import os

import pytest

from repro.bench.load import (
    SERVING_TIERS,
    run_serving_point,
    run_serving_sweep,
    saturation_throughput,
)
from repro.bench.scale import bench_scale, scaled_size

N_SESSIONS = 8
QUERIES_PER_SESSION = 4
N_ROWS = scaled_size(5_000, floor=1_000)
MAX_WORKERS = 4

#: Offered arrival rates (requests/second) of the open-loop schedule.
ARRIVAL_RATES = (25.0, 100.0)

#: Scenario axis: sliding_brush is execution-dominated (globally unique
#: thresholds defeat every cache), crossfilter_storm is coalescing/cache
#: heavy — together they bracket the serving tier's regimes.
SCENARIOS = ("sliding_brush", "crossfilter_storm")

#: Shard count: REPRO_SERVING_SHARDS wins (CI smoke pins 2); otherwise
#: one shard per core up to 4.
N_SHARDS = int(os.environ.get("REPRO_SERVING_SHARDS", "0")) or min(
    4, max(2, os.cpu_count() or 1)
)

#: The ≥2× saturation gate needs real parallelism and the full workload.
RUN_SPEEDUP_GATE = bench_scale() >= 1.0 and (os.cpu_count() or 1) >= 4


def _check_point(point) -> None:
    """The per-cell acceptance gates (every cell, every scale)."""
    # Open-loop accounting is exact: every offered request completed,
    # was shed with the distinct overload error, or failed loudly.
    assert point.completed + point.shed + point.failed == point.n_requests
    assert point.failed == 0, f"{point.tier}@{point.arrival_rate}: {point.failed} failed"
    # Row identity: serving concurrently (and across processes) must
    # never change results.
    assert point.matches_serial, point.mismatched_queries
    # Tail latency is recorded at every point.
    assert point.completed > 0
    p = point.percentiles
    assert 0.0 < p["p50"] <= p["p95"] <= p["p99"]
    # Shed counts surface in the serving stats.
    assert point.serving["admission"]["shed"] == point.shed


@pytest.mark.parametrize("tier", SERVING_TIERS)
def test_figure14_serving_tier(benchmark, backend_name, tier):
    n_shards = N_SHARDS if tier == "sharded" else 1
    benchmark.extra_info["backend"] = backend_name
    benchmark.extra_info["tier"] = tier
    benchmark.extra_info["scenario"] = "+".join(SCENARIOS)
    benchmark.extra_info["n_sessions"] = N_SESSIONS
    benchmark.extra_info["n_rows"] = N_ROWS
    benchmark.extra_info["n_shards"] = n_shards

    points = benchmark.pedantic(
        run_serving_sweep,
        kwargs={
            "tiers": (tier,),
            "scenarios": SCENARIOS,
            "arrival_rates": ARRIVAL_RATES,
            "n_sessions": N_SESSIONS,
            "queries_per_session": QUERIES_PER_SESSION,
            "backend": backend_name,
            "n_rows": N_ROWS,
            "n_shards": n_shards,
            "max_workers": MAX_WORKERS,
        },
        rounds=1,
        iterations=1,
    )

    for point in points:
        _check_point(point)

    # The committed sweep table: p50/p95/p99 + throughput at each
    # (scenario, rate) cell.
    benchmark.extra_info["sweep"] = [
        {
            "scenario": point.scenario,
            "arrival_rate": point.arrival_rate,
            "completed": point.completed,
            "shed": point.shed,
            "throughput_rps": round(point.throughput_rps, 2),
            "percentiles": {k: round(v, 6) for k, v in point.percentiles.items()},
        }
        for point in points
    ]
    # Headline metrics for the results DB: the tier's saturation
    # throughput across the rate axis, and the tail of the most
    # execution-bound cell (sliding_brush at the highest rate).
    benchmark.extra_info["throughput_rps"] = round(saturation_throughput(points, tier), 2)
    tail_point = max(
        (p for p in points if p.scenario == "sliding_brush"),
        key=lambda p: p.arrival_rate,
    )
    benchmark.extra_info["latency_percentiles"] = {
        name: round(value, 6) for name, value in tail_point.percentiles.items()
    }


def test_figure14_overload_shedding(benchmark, backend_name):
    """Overload degrades into fast, counted shedding — never a hang.

    A deliberately tiny admission budget (1 inflight, empty queue) at an
    arrival rate far past it: most requests must shed with the distinct
    OverloadError, the sheds must be counted in ``stats()["serving"]``,
    and the run must still terminate with every admitted request served
    row-identically.
    """
    point = benchmark.pedantic(
        run_serving_point,
        kwargs={
            "tier": "sharded",
            "scenario": "sliding_brush",
            "backend": backend_name,
            "n_sessions": 4,
            "queries_per_session": 4,
            "arrival_rate": 2_000.0,
            "n_rows": max(500, N_ROWS // 4),
            "n_shards": 2,
            "max_workers": MAX_WORKERS,
            "max_inflight": 1,
            "max_queue_depth": 0,
        },
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["backend"] = backend_name
    benchmark.extra_info["tier"] = "sharded"
    benchmark.extra_info["completed"] = point.completed
    benchmark.extra_info["shed"] = point.shed

    assert point.shed > 0, "overload never triggered shedding"
    assert point.failed == 0
    assert point.completed + point.shed == point.n_requests
    assert point.serving["admission"]["shed"] == point.shed
    assert point.matches_serial, point.mismatched_queries


@pytest.mark.skipif(
    not RUN_SPEEDUP_GATE,
    reason="saturation gate needs full workload scale and >= 4 cores",
)
def test_figure14_saturation_speedup(backend_name):
    """Sharded saturation throughput ≥ 2× the threaded tier (≥ 4 cores).

    Both tiers under the same open-loop schedule, same admission policy,
    execution-bound scenario, offered load past saturation: the process
    shards must lift completed-requests/second by at least 2× over the
    GIL-bound thread tier.
    """
    rates = (100.0, 400.0)
    points = run_serving_sweep(
        tiers=SERVING_TIERS,
        scenarios=("sliding_brush",),
        arrival_rates=rates,
        n_sessions=16,
        queries_per_session=QUERIES_PER_SESSION,
        backend=backend_name,
        n_rows=N_ROWS,
        n_shards=4,
        max_workers=MAX_WORKERS,
    )
    for point in points:
        _check_point(point)
    threaded = saturation_throughput(points, "threaded")
    sharded = saturation_throughput(points, "sharded")
    assert sharded >= 2.0 * threaded, (
        f"sharded saturation {sharded:.1f} rps < 2x threaded {threaded:.1f} rps"
    )
