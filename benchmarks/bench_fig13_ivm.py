"""Figure 13 (extension): incremental view maintenance brush sweep.

Beyond the paper: crossfilter brush sequences are the dominant
interaction pattern of the paper's dashboards, and re-executing the full
aggregate query on every brush move filters the whole table each time.
The IVM subsystem (:mod:`repro.sql.ivm`) builds a prefiltered index tile
per query shape instead, and answers each move by aggregating only the
rows inside the brushed interval.  This sweep slides a 10%-wide brush in
5% steps across ``dep_delay`` at several data scales and times every
step twice on the same backend kind: IVM enabled vs IVM disabled.

Two query kinds per point: ``decomposable`` (COUNT/SUM/AVG) and
``extrema`` (MIN/MAX).  Both aggregate the brush window through the
executor's own operators, so neither ever re-scans part of a view.

Correctness gates: the IVM leg's rows are **exactly equal** (``==``, no
float tolerance — eligibility rules guarantee bit-identity) to the
re-scan leg's at every step, on every backend, at every scale.
Acceptance gate: at full workload scale the embedded backend's
decomposable sweep must show a ≥5x p95 win over re-scan on the largest
point.  (The reduced-scale CI smoke keeps the identity gate but not the
speedup floor: at a few thousand rows, fixed per-query overheads
dominate.)
"""

import pytest

from repro.bench.ivm import (
    IVM_QUERY_KINDS,
    headline_ivm_point,
    ivm_points,
    run_ivm_trajectory,
)
from repro.bench.scale import bench_scale

#: Timed passes over the trajectory per leg (after one warmup pass).
REPEATS = 3

POINTS = ivm_points()


@pytest.mark.parametrize("query_kind", IVM_QUERY_KINDS)
@pytest.mark.parametrize("point", POINTS, ids=[p.label for p in POINTS])
def test_figure13_ivm_brush_sweep(benchmark, backend_name, point, query_kind):
    benchmark.extra_info["backend"] = backend_name
    benchmark.extra_info["n_rows"] = point.n_rows
    benchmark.extra_info["query_kind"] = query_kind

    result = benchmark.pedantic(
        run_ivm_trajectory,
        kwargs={
            "backend": backend_name,
            "n_rows": point.n_rows,
            "query_kind": query_kind,
            "repeats": REPEATS,
        },
        rounds=1,
        iterations=1,
    )

    percentiles = result.percentiles
    benchmark.extra_info["steps"] = result.steps
    # Standard percentile keys hold the IVM leg (the latency users feel,
    # and the one the results-DB regression gate tracks); the re-scan
    # leg rides along for the speedup trend.
    benchmark.extra_info["latency_percentiles"] = {
        "p50": round(percentiles["ivm_p50"], 6),
        "p95": round(percentiles["ivm_p95"], 6),
    }
    benchmark.extra_info["rescan_percentiles"] = {
        "p50": round(percentiles["rescan_p50"], 6),
        "p95": round(percentiles["rescan_p95"], 6),
    }
    benchmark.extra_info["p95_speedup"] = round(result.p95_speedup, 3)
    benchmark.extra_info["delta_fraction"] = round(result.delta_fraction, 4)
    benchmark.extra_info["ivm_metrics"] = {
        name: round(value, 1) for name, value in result.ivm_metrics.items()
    }

    # A view must never change results — and it must actually have
    # answered (one hit per measured step).
    assert result.matches_rescan, result.mismatched_queries
    assert result.ivm_metrics["ivm_hits"] >= result.steps * REPEATS

    if query_kind == "decomposable":
        # No partial re-scan of a view may occur.
        assert result.ivm_metrics["ivm_fallbacks"] == 0

    if (
        backend_name == "embedded"
        and query_kind == "decomposable"
        and point == headline_ivm_point()
        and bench_scale() >= 1.0
    ):
        # The acceptance gate: brush-move latency must scale with the
        # delta, not the table — ≥5x p95 over re-scan at the largest point.
        assert result.p95_speedup >= 5.0, (
            f"expected >= 5x p95 over re-scan at the largest point, "
            f"got {result.p95_speedup:.2f}x "
            f"(delta fraction {result.delta_fraction:.3f})"
        )
