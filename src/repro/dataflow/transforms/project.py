"""The ``project`` transform: keep (and optionally rename) selected fields."""

from __future__ import annotations

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError


class ProjectTransform(Operator):
    """Projects each row to a subset of fields.

    Parameters: ``fields`` — list of field names to keep; ``as`` —
    optional parallel list of output names.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="project", params=params)
        if not self.params.get("fields"):
            raise DataflowError("project transform requires a 'fields' parameter")

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        fields: list[str] = list(params["fields"])
        as_names: list[str] = list(params.get("as") or fields)
        if len(as_names) < len(fields):
            as_names = as_names + fields[len(as_names):]
        rows = [
            {name: row.get(field) for field, name in zip(fields, as_names)}
            for row in source
        ]
        return OperatorResult(rows=rows)
