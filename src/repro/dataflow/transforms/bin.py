"""The ``bin`` transform: discretise a numeric field into uniform buckets.

Follows Vega's binning semantics: given the field extent and a ``maxbins``
target, a "nice" step size is chosen from a 1/2/5 ladder, and each datum
is annotated with the start (``bin0``) and end (``bin1``) of its bucket.
"""

from __future__ import annotations

import math

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError


def nice_bin_step(span: float, maxbins: int) -> float:
    """Choose a human-friendly bin step for ``span`` and a target bin count.

    Mirrors Vega's ``bin`` heuristic: the smallest step from the
    1 / 2 / 2.5 / 5 / 10 ladder that yields at most ``maxbins`` bins.
    """
    if span <= 0 or maxbins <= 0:
        return 1.0
    step = 10 ** math.floor(math.log10(span / maxbins))
    candidates = (step, 2 * step, 2.5 * step, 5 * step, 10 * step)
    for candidate in candidates:
        if span / candidate <= maxbins:
            return float(candidate)
    return float(candidates[-1])


def compute_bins(extent: tuple[float, float], maxbins: int) -> tuple[float, float, float]:
    """Return ``(start, stop, step)`` for binning over ``extent``."""
    low, high = float(extent[0]), float(extent[1])
    if high < low:
        low, high = high, low
    span = high - low if high > low else 1.0
    step = nice_bin_step(span, maxbins)
    start = math.floor(low / step) * step
    stop = math.ceil(high / step) * step
    if stop <= start:
        stop = start + step
    return start, stop, step


def bin_start(value: float, start: float, stop: float, step: float) -> float:
    """Start of the bin holding ``value``.

    Values below the domain clamp into the first bin; values at or
    beyond its end, and any whose computed start reaches ``stop``, fall
    into the last bin.
    """
    clamped = min(max(value, start), stop)
    first = start + math.floor((clamped - start) / step) * step
    return stop - step if first >= stop else first


def last_bin_threshold(start: float, stop: float, step: float) -> float:
    """The smallest value :func:`bin_start` puts where it puts ``stop``.

    Below the threshold (and at or above ``start``) a value's bin start is
    its floored start, which never reaches ``stop``; from the threshold
    up it is ``bin_start(stop)``.  The floored start is monotone in the
    value, so a bisection over floats finds the threshold exactly.  It is
    ``stop`` itself unless float rounding floors a value just below
    ``stop`` onto it.
    """

    def floored(value: float) -> float:
        return start + math.floor((value - start) / step) * step

    if floored(stop) < stop:
        return stop
    low, high = start, stop
    while True:
        middle = low + (high - low) / 2
        if not low < middle < high:
            return high
        if floored(middle) >= stop:
            high = middle
        else:
            low = middle


class BinTransform(Operator):
    """Annotates each datum with its bin start/end.

    Parameters
    ----------
    field:
        Numeric field to bin.
    maxbins:
        Target maximum number of bins (may be a signal reference).
    extent:
        Two-element ``[min, max]`` list; may reference a signal or the
        output value of an ``extent`` operator.
    as:
        Output field names, default ``["bin0", "bin1"]``.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="bin", params=params)
        if not self.params.get("field"):
            raise DataflowError("bin transform requires a 'field' parameter")

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        field = params["field"]
        maxbins = int(params.get("maxbins", 20) or 20)
        extent = params.get("extent")
        if extent is None:
            extent = _field_extent(source, field)
        start, stop, step = compute_bins((float(extent[0]), float(extent[1])), maxbins)
        out_names = params.get("as") or ["bin0", "bin1"]
        bin0_name = out_names[0]
        bin1_name = out_names[1] if len(out_names) > 1 else "bin1"

        rows: list[dict[str, object]] = []
        for row in source:
            value = row.get(field)
            updated = dict(row)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                lower = bin_start(float(value), start, stop, step)
                updated[bin0_name] = lower
                updated[bin1_name] = lower + step
            else:
                updated[bin0_name] = None
                updated[bin1_name] = None
            rows.append(updated)
        return OperatorResult(rows=rows, value={"start": start, "stop": stop, "step": step})


def _field_extent(source: list[dict[str, object]], field: str) -> tuple[float, float]:
    values = [
        float(row[field])
        for row in source
        if isinstance(row.get(field), (int, float)) and not isinstance(row.get(field), bool)
    ]
    if not values:
        return (0.0, 1.0)
    return (min(values), max(values))
