"""The ``extent`` transform: compute ``[min, max]`` of a field.

The extent's output is a *value* (not rows): it is consumed by scales and
by the ``bin`` transform as a signal-like parameter, which is why plan
enumeration keeps it in its own query when rewritten to SQL (Example 4.1
in the paper).
"""

from __future__ import annotations

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError


class ExtentTransform(Operator):
    """Computes the minimum and maximum of a numeric field.

    Parameters: ``field`` — the field to summarise; ``signal`` (optional)
    — the name under which Vega exposes the result, kept for provenance.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="extent", params=params)
        if not self.params.get("field"):
            raise DataflowError("extent transform requires a 'field' parameter")

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        field = params["field"]
        minimum: float | None = None
        maximum: float | None = None
        for row in source:
            value = row.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if minimum is None or value < minimum:
                minimum = float(value)
            if maximum is None or value > maximum:
                maximum = float(value)
        extent = [minimum if minimum is not None else 0.0,
                  maximum if maximum is not None else 0.0]
        # Rows pass through unchanged; the extent itself is the value output.
        return OperatorResult(rows=list(source), value=extent)
