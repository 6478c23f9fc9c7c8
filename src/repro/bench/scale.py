"""Workload scaling and the partitioned-storage scale sweep (Figure 12).

Two things live here:

* :func:`bench_scale` / :func:`scaled_size` — the ``REPRO_BENCH_SCALE``
  knob (a float, default 1.0) that shrinks every benchmark workload
  uniformly; CI's benchmark-smoke job sets it to 0.25 so the suite runs
  in seconds while still recording the perf trajectory per PR.
* the **scale sweep driver** for ``benchmarks/bench_fig12_scale.py`` —
  rows × partitions over a crossfilter-style query mix on the flights
  dataset, run once against a flat engine and once against a partitioned
  engine (zone-map pruning at the scan), with the partitioned rows
  asserted ``==`` to the flat ones.

The sweep loads the data *time-ordered* (sorted by the ``date`` column),
which is how dashboard fact tables actually arrive; that clustering is
what makes zone maps selective — each partition covers a narrow date
range, so a crossfilter window prunes most partitions outright.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends import SQLBackend, create_backend
from repro.datasets.generators import generate_dataset
from repro.storage.column import sort_rank_key


def bench_scale() -> float:
    """The configured workload scale factor (> 0)."""
    value = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    if value <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be positive, got {value}")
    return value


def scaled_size(n_rows: int, floor: int = 500) -> int:
    """``n_rows`` scaled by :func:`bench_scale`, never below ``floor``."""
    return max(floor, int(n_rows * bench_scale()))


# --------------------------------------------------------------------------- #
# Figure 12: partitioned scale sweep
# --------------------------------------------------------------------------- #

#: Base (unscaled) row counts of the sweep's data-size axis.
SCALE_BASE_ROWS: tuple[int, ...] = (20_000, 60_000, 200_000)

#: Crossfilter windows as fractions of the date span: (low, high).
#: 5%-wide brushes — the selection width a dashboard slider/brush
#: actually produces, and narrow enough that zone maps can prune most
#: date-clustered partitions.
_WINDOWS: tuple[tuple[float, float], ...] = (
    (0.05, 0.10),
    (0.30, 0.35),
    (0.55, 0.60),
    (0.80, 0.85),
)


@dataclass(frozen=True)
class ScalePoint:
    """One sweep configuration: size × partitions."""

    n_rows: int
    partitions: int

    @property
    def label(self) -> str:
        """Stable test id."""
        return f"rows{self.n_rows}-parts{self.partitions}"


def scale_points() -> list[ScalePoint]:
    """The fig12 sweep grid, scaled by ``REPRO_BENCH_SCALE``.

    The rows axis runs at 16 partitions; the largest size additionally
    sweeps the partition count, so pruning granularity is visible in the
    committed summary.
    """
    sizes = [scaled_size(size, floor=2_000) for size in SCALE_BASE_ROWS]
    points = [ScalePoint(size, 16) for size in sizes]
    points.extend(ScalePoint(sizes[-1], partitions) for partitions in (4, 8))
    return points


def headline_point() -> ScalePoint:
    """The largest scale point — the one the ≥2x acceptance gate uses."""
    return scale_points()[len(SCALE_BASE_ROWS) - 1]


def scale_queries(date_low: float, date_high: float) -> list[str]:
    """The crossfilter query mix over a ``date`` span (dialect-neutral).

    Four interaction windows × four query shapes: grouped aggregates,
    a BETWEEN variant, an extent-style
    global aggregate, and a DISTINCT — the server-side shapes the
    rewriter emits for a filtered dashboard.
    """
    span = date_high - date_low
    queries: list[str] = []
    for low_fraction, high_fraction in _WINDOWS:
        low = date_low + low_fraction * span
        high = date_low + high_fraction * span
        queries.extend(
            [
                f"SELECT carrier, COUNT(*) AS n, AVG(delay) AS avg_delay "
                f"FROM flights WHERE date >= {low:.0f} AND date < {high:.0f} "
                f"GROUP BY carrier",
                f"SELECT origin, SUM(distance) AS total, MAX(delay) AS worst "
                f"FROM flights WHERE date BETWEEN {low:.0f} AND {high:.0f} "
                f"GROUP BY origin",
                f"SELECT MIN(delay) AS lo, MAX(delay) AS hi, COUNT(*) AS n "
                f"FROM flights WHERE date >= {low:.0f} AND date < {high:.0f}",
                f"SELECT DISTINCT carrier FROM flights "
                f"WHERE date >= {low:.0f} AND date < {high:.0f}",
            ]
        )
    return queries


@dataclass
class ScaleRunResult:
    """Latencies and pruning behaviour of one sweep point."""

    backend: str
    n_rows: int
    partitions: int
    #: Whether the backend actually partitioned (capability-gated).
    partitioned: bool
    serial_seconds: list[float] = field(default_factory=list)
    partitioned_seconds: list[float] = field(default_factory=list)
    partitions_scanned: float = 0.0
    partitions_pruned: float = 0.0
    matches_serial: bool = True
    mismatched_queries: list[str] = field(default_factory=list)

    @property
    def pruning_rate(self) -> float:
        """Fraction of partition scans skipped by zone maps."""
        considered = self.partitions_scanned + self.partitions_pruned
        return self.partitions_pruned / considered if considered else 0.0

    @property
    def speedup(self) -> float:
        """Serial total latency over partitioned total latency."""
        partitioned = sum(self.partitioned_seconds)
        return sum(self.serial_seconds) / partitioned if partitioned > 0 else 0.0

    @property
    def percentiles(self) -> dict[str, float]:
        """p50/p95 of the partitioned leg's per-query latencies."""
        samples = self.partitioned_seconds or [0.0]
        return {
            "p50": float(np.percentile(samples, 50)),
            "p95": float(np.percentile(samples, 95)),
        }


def values_equal(a: object, b: object) -> bool:
    """Result-value equality: floats to tolerance, everything else exact.

    The row-identity contract between engines that may sum in different
    orders — the cross-backend differential suite and the plan-space
    test share it, so they enforce the same notion of "row-identical".
    """
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def row_sort_key(row: dict[str, object]) -> tuple:
    """Canonical multiset key with float rounding, deterministic for NULLs."""
    return tuple(
        sort_rank_key(round(value, 6) if isinstance(value, float) else value)
        for value in row.values()
    )


def rows_match(left: list[dict[str, object]], right: list[dict[str, object]]) -> bool:
    """Multiset row equality with float tolerance (order unspecified)."""
    if len(left) != len(right):
        return False
    if left and list(left[0]) != list(right[0]):
        return False
    left_sorted = sorted(left, key=row_sort_key)
    right_sorted = sorted(right, key=row_sort_key)
    for row_a, row_b in zip(left_sorted, right_sorted):
        for column in row_a:
            if not values_equal(row_a[column], row_b[column]):
                return False
    return True


def _build_backend(backend: str) -> SQLBackend:
    # IVM stays off on both legs: the sweep measures scan execution
    # (flat vs partitioned), and the repeated query mix would otherwise
    # be answered from maintained views on both sides, compressing the
    # ratio toward 1.  The IVM axis has its own sweep (repro.bench.ivm).
    return create_backend(backend, ivm=False)


def run_scale_point(
    backend: str,
    n_rows: int,
    partitions: int,
    repeats: int = 3,
    seed: int = 7,
) -> ScaleRunResult:
    """Measure one sweep point: flat vs partitioned.

    Both legs run the same query mix over identical (time-ordered) data
    on the same backend, so the partitioned leg's rows must ``==`` the
    flat leg's, in order, for every query.  Backends without the ``partitioning`` capability run
    the second leg flat too (the sweep then measures pure data scaling).
    """
    rows = generate_dataset("flights", n_rows, seed=seed)
    rows.sort(key=lambda row: row["date"])
    dates = [float(row["date"]) for row in rows]
    queries = scale_queries(dates[0], dates[-1])

    serial = _build_backend(backend)
    serial.register_rows("flights", rows)
    partitioned_backend = _build_backend(backend)
    partitioned_backend.register_rows("flights", rows)
    partitioned = bool(partitioned_backend.capabilities.partitioning) and partitions > 1
    if partitioned:
        partitioned_backend.repartition("flights", max(1, n_rows // partitions))

    result = ScaleRunResult(
        backend=backend,
        n_rows=n_rows,
        partitions=partitions if partitioned else 1,
        partitioned=partitioned,
    )

    try:
        # Warm up both legs (plan caches, lazy statistics and zone maps)
        # and check row identity once per query.
        for sql in queries:
            serial_rows = serial.execute(sql).to_rows()
            partitioned_rows = partitioned_backend.execute(sql).to_rows()
            if partitioned_rows != serial_rows:
                result.matches_serial = False
                result.mismatched_queries.append(sql)

        before = partitioned_backend.metrics.snapshot()
        for _ in range(repeats):
            for sql in queries:
                start = time.perf_counter()
                serial.execute(sql)
                result.serial_seconds.append(time.perf_counter() - start)
                start = time.perf_counter()
                partitioned_backend.execute(sql)
                result.partitioned_seconds.append(time.perf_counter() - start)
        after = partitioned_backend.metrics.snapshot()
        result.partitions_scanned = after.get("partitions_scanned", 0.0) - before.get(
            "partitions_scanned", 0.0
        )
        result.partitions_pruned = after.get("partitions_pruned", 0.0) - before.get(
            "partitions_pruned", 0.0
        )
    finally:
        serial.close()
        partitioned_backend.close()
    return result
