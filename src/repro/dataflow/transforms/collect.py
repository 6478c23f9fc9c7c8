"""The ``collect`` transform: sort tuples by one or more fields."""

from __future__ import annotations

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult


class CollectTransform(Operator):
    """Sorts rows.

    Parameters: ``sort`` — ``{"field": ..., "order": "ascending"|"descending"}``
    or ``{"field": [...], "order": [...]}`` for multi-key sorts.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="collect", params=params)

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        sort = params.get("sort") or {}
        fields = sort.get("field") or []
        orders = sort.get("order") or []
        if isinstance(fields, str):
            fields = [fields]
        if isinstance(orders, str):
            orders = [orders]
        rows = list(source)
        if not fields:
            return OperatorResult(rows=rows)
        # Apply keys from least to most significant for a stable multi-key sort.
        for index in range(len(fields) - 1, -1, -1):
            field = fields[index]
            descending = index < len(orders) and str(orders[index]).lower().startswith("desc")
            rows.sort(key=lambda row: _sort_key(row.get(field)), reverse=descending)
        return OperatorResult(rows=rows)


def _sort_key(value: object) -> tuple:
    """Order NULLs last, numbers before strings, each group internally sorted."""
    if value is None:
        return (2, 0.0, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value), "")
    return (1, 0.0, str(value))
