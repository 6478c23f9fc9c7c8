"""The ``stack`` transform: cumulative offsets for stacked charts.

For each group (e.g. one bar position in a stacked bar chart), rows are
ordered and each row receives the running sum *before* it (``y0``) and
*after* it (``y1``).  The paper maps this transform to SQL window
functions when it is offloaded.
"""

from __future__ import annotations

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError
from repro.dataflow.transforms.collect import _sort_key


class StackTransform(Operator):
    """Computes stacked layout offsets.

    Parameters
    ----------
    field:
        Numeric field supplying each row's extent.
    groupby:
        Fields identifying one stack (e.g. the x-axis category).
    sort:
        Optional ``{"field": ..., "order": ...}`` ordering within a stack.
    as:
        Output field names, default ``["y0", "y1"]``.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="stack", params=params)
        if not self.params.get("field"):
            raise DataflowError("stack transform requires a 'field' parameter")

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        field: str = params["field"]
        groupby: list[str] = list(params.get("groupby") or [])
        sort = params.get("sort") or {}
        sort_fields = sort.get("field") or []
        if isinstance(sort_fields, str):
            sort_fields = [sort_fields]
        out_names = params.get("as") or ["y0", "y1"]
        y0_name = out_names[0]
        y1_name = out_names[1] if len(out_names) > 1 else "y1"

        groups: dict[tuple, list[int]] = {}
        for index, row in enumerate(source):
            key = tuple(row.get(g) for g in groupby)
            groups.setdefault(key, []).append(index)

        rows: list[dict[str, object] | None] = [None] * len(source)
        for indices in groups.values():
            ordered = list(indices)
            if sort_fields:
                ordered.sort(
                    key=lambda i: tuple(_sort_key(source[i].get(f)) for f in sort_fields)
                )
            running = 0.0
            for i in ordered:
                row = dict(source[i])
                value = row.get(field)
                amount = (
                    float(value)
                    if isinstance(value, (int, float)) and not isinstance(value, bool)
                    else 0.0
                )
                row[y0_name] = running
                running += amount
                row[y1_name] = running
                rows[i] = row
        return OperatorResult(rows=[r for r in rows if r is not None])
