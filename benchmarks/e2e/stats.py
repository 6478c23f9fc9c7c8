"""Sample statistics: the percentile rule and the run-to-run spread."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

import numpy as np

#: A percentile is reported only when at least 10 samples lie beyond it:
#: p95 needs this many.
P95_SAMPLES = 200


def p95(samples: Sequence[float]) -> float | None:
    """The 95th percentile, or ``None`` when fewer than ten samples lie
    beyond it: a lower level is never reported under the p95 name."""
    if len(samples) < P95_SAMPLES:
        return None
    return float(np.percentile(np.asarray(samples, dtype=float), 95.0))


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def window_medians(samples: Sequence[float], size: int) -> list[float]:
    """Medians of consecutive windows of ``size`` samples (a shorter tail
    joins the last window; fewer than ``size`` samples are one window)."""
    count = max(1, len(samples) // size)
    edges = [k * size for k in range(count)] + [len(samples)]
    return [median(samples[low:high]) for low, high in zip(edges, edges[1:])]


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (how the driver judges steadiness)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else float("inf")
