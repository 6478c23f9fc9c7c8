"""Figure 12 (extension): partitioned-storage scale sweep.

Beyond the paper: the reproduction's storage tier splits tables into
horizontal row-range partitions with per-partition zone maps, and the
embedded engine's scan reads only the partitions that survive zone-map
pruning; every operator above the scan is the one a flat table runs.
This sweep measures throughput as a function of **data scale × partition
count** — the muBench-style axes — on the crossfilter query mix a
filtered dashboard actually sends (grouped aggregates, extents, DISTINCT
over a sliding date window).

Each point runs the identical mix twice: once on a flat table (the
pre-partitioning engine), once partitioned, and the partitioned rows
must ``==`` the flat rows, in order, query for query.  The committed BENCH summary
records the partitioned leg's p50/p95, the zone-map pruning rate, and
the speedup over serial.

Correctness gates: partitioned results equal serial ones exactly
everywhere; at full workload scale the embedded backend must prune
(pruning rate > 0) and finish the mix at least 2x faster than serial on
the largest scale point.  (The reduced-scale CI smoke run keeps the
identity and pruning gates but not the speedup floor — at a few
thousand rows per query, fixed per-query overheads dominate both legs;
CI runs the full-scale headline point as a step of its own.)

Backends without the ``partitioning`` capability (sqlite) run both legs
flat, so their entries track pure data scaling on the same mix.

Partitions are scanned on the calling thread; docs/STORAGE.md
("Partitioned execution") carries the measurement that retired the
thread and process pools.
"""

import pytest

from repro.bench.scale import (
    bench_scale,
    headline_point,
    run_scale_point,
    scale_points,
)

#: Timed passes over the query mix per leg (after one warmup pass).
REPEATS = 3

POINTS = scale_points()


@pytest.mark.parametrize("point", POINTS, ids=[p.label for p in POINTS])
def test_figure12_partitioned_scale(benchmark, backend_name, point):
    benchmark.extra_info["backend"] = backend_name
    benchmark.extra_info["n_rows"] = point.n_rows
    benchmark.extra_info["partitions"] = point.partitions

    result = benchmark.pedantic(
        run_scale_point,
        kwargs={
            "backend": backend_name,
            "n_rows": point.n_rows,
            "partitions": point.partitions,
            "repeats": REPEATS,
        },
        rounds=1,
        iterations=1,
    )

    benchmark.extra_info["latency_percentiles"] = {
        name: round(value, 6) for name, value in result.percentiles.items()
    }
    benchmark.extra_info["pruning_rate"] = round(result.pruning_rate, 4)
    benchmark.extra_info["speedup_vs_serial"] = round(result.speedup, 3)
    benchmark.extra_info["partitioned"] = result.partitioned
    benchmark.extra_info["serial_total_seconds"] = round(sum(result.serial_seconds), 6)
    benchmark.extra_info["partitioned_total_seconds"] = round(
        sum(result.partitioned_seconds), 6
    )

    # Partitioned execution must never change results.
    assert result.matches_serial, result.mismatched_queries

    if result.partitioned:
        # The crossfilter windows are narrow and the data is time-ordered:
        # zone maps must skip partitions on every backend that partitions.
        assert result.pruning_rate > 0.0

    if backend_name == "embedded" and point == headline_point() and bench_scale() >= 1.0:
        # The acceptance gate: on the largest scale point, partitioned
        # execution must at least halve the mix's latency vs serial.
        assert result.speedup >= 2.0, (
            f"expected >= 2x over serial at the largest scale point, "
            f"got {result.speedup:.2f}x (pruning rate {result.pruning_rate:.2f})"
        )
