"""Brush-trajectory driver for incremental view maintenance (Figure 13).

Measures the claim behind :mod:`repro.sql.ivm`: once a crossfilter
view's index tile is built, a brush move costs two binary searches, one
gather of the rows the brush selects and one aggregate over them —
proportional to the brush *window*, with no pass over the table and no
re-evaluation of the static conjuncts — while re-executing the SQL
filters the whole table.  The driver slides a fixed-width brush across
the ``dep_delay`` dimension of the flights dataset and runs every step
twice on the *same* backend kind: once with IVM enabled and once with
IVM disabled (the plain re-scan path), asserting the two result tables
**exactly equal** at every step — the IVM eligibility rules only admit
query shapes whose results from a view are bit-identical to
re-execution, so the comparison here is ``==`` on rows, not
tolerance-based.

Two query kinds, one per aggregate family:

* ``decomposable`` — COUNT(*), SUM and AVG over the integer-valued
  ``distance`` column (exact sums, so their bits do not depend on row
  order); this is the kind the ≥5x headline gate measures.
* ``extrema`` — MIN/MAX over ``delay``.  A step costs what a
  ``decomposable`` step costs: the view has no per-step state, so a
  brush that slides past a group's extremum needs nothing special.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends import SQLBackend, create_backend
from repro.bench.scale import scaled_size
from repro.datasets.generators import generate_dataset

#: Base (unscaled) row counts of the fig13 data-size axis.  The largest
#: is the headline point the ≥5x p95 acceptance gate runs against.
IVM_BASE_ROWS: tuple[int, ...] = (20_000, 60_000, 200_000)

#: Brush geometry: a window 10% of the dimension span wide, sliding in
#: 5% steps — the interaction granularity of a dashboard range slider.
BRUSH_WIDTH_FRACTION = 0.10
BRUSH_STEP_FRACTION = 0.05


@dataclass(frozen=True)
class IVMPoint:
    """One fig13 configuration: a data size for the trajectory sweep."""

    n_rows: int

    @property
    def label(self) -> str:
        """Stable test id."""
        return f"rows{self.n_rows}"


def ivm_points() -> list[IVMPoint]:
    """The fig13 sweep sizes, scaled by ``REPRO_BENCH_SCALE``."""
    seen: set[int] = set()
    points: list[IVMPoint] = []
    for size in IVM_BASE_ROWS:
        scaled = scaled_size(size, floor=2_000)
        if scaled not in seen:
            seen.add(scaled)
            points.append(IVMPoint(scaled))
    return points


def headline_ivm_point() -> IVMPoint:
    """The largest sweep size — the one the ≥5x p95 gate uses."""
    return ivm_points()[-1]


#: Query kinds accepted by :func:`brush_query` / :func:`run_ivm_trajectory`.
IVM_QUERY_KINDS = ("decomposable", "extrema")


def brush_query(low: float, high: float, kind: str = "decomposable") -> str:
    """One brush step of the given aggregate ``kind``, totally ordered."""
    if kind == "decomposable":
        items = (
            "COUNT(*) AS n, SUM(distance) AS total_distance, "
            "AVG(distance) AS avg_distance"
        )
    elif kind == "extrema":
        items = "COUNT(*) AS n, MIN(delay) AS min_delay, MAX(delay) AS max_delay"
    else:
        raise ValueError(f"unknown query kind {kind!r}; choose from {IVM_QUERY_KINDS}")
    return (
        f"SELECT carrier, {items} "
        f"FROM flights WHERE dep_delay >= {low:.4f} AND dep_delay < {high:.4f} "
        "GROUP BY carrier ORDER BY carrier"
    )


def brush_trajectory(
    span_low: float,
    span_high: float,
    width_fraction: float = BRUSH_WIDTH_FRACTION,
    step_fraction: float = BRUSH_STEP_FRACTION,
) -> list[tuple[float, float]]:
    """Sliding-brush intervals covering ``[span_low, span_high]``.

    Monotone left-to-right: consecutive windows overlap by
    ``width_fraction - step_fraction`` of the span, so each step
    aggregates a ``width_fraction`` slice of the data.
    """
    span = span_high - span_low
    width = width_fraction * span
    step = step_fraction * span
    windows: list[tuple[float, float]] = []
    low = span_low
    while low + width <= span_high + step / 2:
        windows.append((low, low + width))
        low += step
    return windows


@dataclass
class IVMRunResult:
    """Latencies and maintenance behaviour of one trajectory sweep."""

    backend: str
    n_rows: int
    steps: int
    query_kind: str = "decomposable"
    #: Per-step latency of the IVM-enabled backend (after view warm-up).
    ivm_seconds: list[float] = field(default_factory=list)
    #: Per-step latency of the IVM-disabled backend (plain re-scan).
    rescan_seconds: list[float] = field(default_factory=list)
    #: IVM counter differences over the measured passes (hits, window rows, ...).
    ivm_metrics: dict[str, float] = field(default_factory=dict)
    #: True when every IVM result was exactly equal to the re-scan result.
    matches_rescan: bool = True
    mismatched_queries: list[str] = field(default_factory=list)

    @property
    def percentiles(self) -> dict[str, float]:
        """p50/p95 of both legs' per-step latencies."""
        ivm = self.ivm_seconds or [0.0]
        rescan = self.rescan_seconds or [0.0]
        return {
            "ivm_p50": float(np.percentile(ivm, 50)),
            "ivm_p95": float(np.percentile(ivm, 95)),
            "rescan_p50": float(np.percentile(rescan, 50)),
            "rescan_p95": float(np.percentile(rescan, 95)),
        }

    @property
    def p95_speedup(self) -> float:
        """Re-scan p95 latency over IVM p95 latency (the fig13 headline)."""
        percentiles = self.percentiles
        ivm_p95 = percentiles["ivm_p95"]
        return percentiles["rescan_p95"] / ivm_p95 if ivm_p95 > 0 else 0.0

    @property
    def delta_fraction(self) -> float:
        """Window rows aggregated as a fraction of the rows a re-scan reads."""
        touched = self.ivm_metrics.get("ivm_delta_rows", 0.0)
        avoided = self.ivm_metrics.get("ivm_rescan_rows_avoided", 0.0)
        total = touched + avoided
        return touched / total if total else 0.0


def run_ivm_trajectory(
    backend: str,
    n_rows: int,
    query_kind: str = "decomposable",
    repeats: int = 3,
    seed: int = 7,
) -> IVMRunResult:
    """Measure one sweep size: answers from a view vs plain re-execution.

    Two backends of the same kind over identical data — one with IVM on,
    one with IVM off — replay the same sliding-brush trajectory.  The
    first pass warms both legs (plan caches; the IVM leg registers and
    builds its view), then ``repeats`` measured passes time each step on
    each leg and compare the rows for exact equality.
    """
    rows = generate_dataset("flights", n_rows, seed=seed)
    values = [float(row["dep_delay"]) for row in rows if row["dep_delay"] is not None]
    trajectory = brush_trajectory(min(values), max(values))
    queries = [brush_query(low, high, kind=query_kind) for low, high in trajectory]

    # Every step shares one view key, so the warm pass builds the view
    # (on its REGISTER_AFTER-th step) and every measured step is a hit.
    ivm_backend: SQLBackend = create_backend(backend)
    rescan_backend: SQLBackend = create_backend(backend, ivm=False)
    result = IVMRunResult(
        backend=backend, n_rows=n_rows, steps=len(queries), query_kind=query_kind
    )
    try:
        ivm_backend.register_rows("flights", rows)
        rescan_backend.register_rows("flights", rows)

        for sql in queries:  # warm-up + row-identity gate
            ivm_rows = ivm_backend.execute(sql).to_rows()
            rescan_rows = rescan_backend.execute(sql).to_rows()
            if ivm_rows != rescan_rows:
                result.matches_rescan = False
                result.mismatched_queries.append(sql)

        before = ivm_backend.metrics.snapshot()
        for _ in range(repeats):
            for sql in queries:
                start = time.perf_counter()
                ivm_backend.execute(sql)
                result.ivm_seconds.append(time.perf_counter() - start)
                start = time.perf_counter()
                rescan_backend.execute(sql)
                result.rescan_seconds.append(time.perf_counter() - start)
        after = ivm_backend.metrics.snapshot()
        result.ivm_metrics = {
            key: after.get(key, 0.0) - before.get(key, 0.0)
            for key in (
                "ivm_hits",
                "ivm_delta_rows",
                "ivm_rescan_rows_avoided",
                "ivm_fallbacks",
                "ivm_fallback_rows",
            )
        }
    finally:
        ivm_backend.close()
        rescan_backend.close()
    return result
