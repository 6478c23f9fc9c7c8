"""The ``timeunit`` transform: truncate temporal values to a calendar unit.

Temporal fields in the synthetic datasets are epoch seconds; the transform
floors each value to the start of its year / month / week / day / hour and
emits the unit start (and optionally the unit end) as new fields.  This is
the transform that only appears in the "Overview+Detail Chart With Bar
Chart" template in the paper's benchmark (Section 7.4).
"""

from __future__ import annotations

import math

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError

#: Unit → length in seconds (calendar-approximate, good enough for binning).
UNIT_SECONDS = {
    "year": 365.25 * 86_400,
    "quarter": 91.3125 * 86_400,
    "month": 30.4375 * 86_400,
    "week": 7.0 * 86_400,
    "day": 86_400.0,
    "hours": 3_600.0,
    "minutes": 60.0,
    "seconds": 1.0,
}


class TimeUnitTransform(Operator):
    """Truncates a temporal field to a unit boundary.

    Parameters: ``field`` — the temporal field (epoch seconds); ``units``
    — one of :data:`UNIT_SECONDS`; ``as`` — output names, default
    ``["unit0", "unit1"]``.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="timeunit", params=params)
        if not self.params.get("field"):
            raise DataflowError("timeunit transform requires a 'field' parameter")

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        field: str = params["field"]
        units = params.get("units", "month")
        if isinstance(units, (list, tuple)):
            units = units[0] if units else "month"
        try:
            span = UNIT_SECONDS[str(units)]
        except KeyError as exc:
            raise DataflowError(
                f"unsupported time unit {units!r}; supported: {sorted(UNIT_SECONDS)}"
            ) from exc
        out_names = params.get("as") or ["unit0", "unit1"]
        unit0 = out_names[0]
        unit1 = out_names[1] if len(out_names) > 1 else "unit1"

        rows = []
        for row in source:
            updated = dict(row)
            value = row.get(field)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                start = math.floor(float(value) / span) * span
                updated[unit0] = start
                updated[unit1] = start + span
            else:
                updated[unit0] = None
                updated[unit1] = None
            rows.append(updated)
        return OperatorResult(rows=rows, value={"units": str(units), "step": span})
