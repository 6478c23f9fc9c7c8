"""The ``aggregate`` and ``joinaggregate`` transforms.

``aggregate`` groups tuples by one or more fields and computes summary
statistics per group (one output row per group).  ``joinaggregate``
computes the same statistics but joins them back onto every input row
(Vega uses it for normalised/percent-of-total encodings).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError

#: Aggregate operations supported by the client-side runtime.
SUPPORTED_OPS = ("count", "sum", "mean", "average", "min", "max", "median", "stdev", "variance", "distinct")


def _aggregate_values(op: str, values: list[float]) -> float | None:
    if op == "count":
        return float(len(values))
    if not values:
        return None
    if op == "sum":
        return float(sum(values))
    if op in ("mean", "average"):
        return float(sum(values) / len(values))
    if op == "min":
        return float(min(values))
    if op == "max":
        return float(max(values))
    if op == "median":
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return float(ordered[mid])
        return float((ordered[mid - 1] + ordered[mid]) / 2)
    if op == "distinct":
        return float(len(set(values)))
    if op in ("stdev", "variance"):
        if len(values) < 2:
            return None
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return float(variance) if op == "variance" else float(math.sqrt(variance))
    raise DataflowError(f"unsupported aggregate op {op!r}")


def _numeric(values: list[object]) -> list[float]:
    return [
        float(v)
        for v in values
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]


def _group_key(row: dict[str, object], groupby: Sequence[str]) -> tuple:
    return tuple(row.get(field) for field in groupby)


def _output_name(op: str, field: str | None, index: int, as_names: Sequence[str] | None) -> str:
    if as_names and index < len(as_names) and as_names[index]:
        return str(as_names[index])
    if op == "count" and not field:
        return "count"
    return f"{op}_{field}"


class AggregateTransform(Operator):
    """Group-by aggregation producing one row per group.

    Parameters
    ----------
    groupby:
        List of fields to group on (empty = one global group).
    ops, fields, as:
        Parallel lists of aggregate operations, their input fields (``None``
        for ``count``), and optional output names.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="aggregate", params=params)
        ops = self.params.get("ops") or ["count"]
        for op in ops:
            if op not in SUPPORTED_OPS:
                raise DataflowError(
                    f"unsupported aggregate op {op!r}; supported: {SUPPORTED_OPS}"
                )

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        groupby: list[str] = list(params.get("groupby") or [])
        ops: list[str] = list(params.get("ops") or ["count"])
        fields: list[str | None] = list(params.get("fields") or [None] * len(ops))
        as_names: list[str] | None = params.get("as")
        if len(fields) < len(ops):
            fields = fields + [None] * (len(ops) - len(fields))

        groups: dict[tuple, list[dict[str, object]]] = {}
        order: list[tuple] = []
        for row in source:
            key = _group_key(row, groupby)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)

        out_rows: list[dict[str, object]] = []
        for key in order:
            rows = groups[key]
            out: dict[str, object] = {field: value for field, value in zip(groupby, key)}
            for index, (op, field) in enumerate(zip(ops, fields)):
                name = _output_name(op, field, index, as_names)
                if op == "count" and field is None:
                    out[name] = float(len(rows))
                else:
                    values = _numeric([r.get(field) for r in rows])
                    out[name] = _aggregate_values(op, values)
            out_rows.append(out)
        return OperatorResult(rows=out_rows)


class JoinAggregateTransform(Operator):
    """Like :class:`AggregateTransform` but keeps every input row.

    Each row gains the aggregate values of its group, e.g. the group total
    used to compute a percentage-of-total encoding.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="joinaggregate", params=params)

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        groupby: list[str] = list(params.get("groupby") or [])
        ops: list[str] = list(params.get("ops") or ["count"])
        fields: list[str | None] = list(params.get("fields") or [None] * len(ops))
        as_names: list[str] | None = params.get("as")
        if len(fields) < len(ops):
            fields = fields + [None] * (len(ops) - len(fields))

        groups: dict[tuple, list[dict[str, object]]] = {}
        for row in source:
            groups.setdefault(_group_key(row, groupby), []).append(row)

        aggregates: dict[tuple, dict[str, object]] = {}
        for key, rows in groups.items():
            out: dict[str, object] = {}
            for index, (op, field) in enumerate(zip(ops, fields)):
                name = _output_name(op, field, index, as_names)
                if op == "count" and field is None:
                    out[name] = float(len(rows))
                else:
                    values = _numeric([r.get(field) for r in rows])
                    out[name] = _aggregate_values(op, values)
            aggregates[key] = out

        out_rows = []
        for row in source:
            merged = dict(row)
            merged.update(aggregates[_group_key(row, groupby)])
            out_rows.append(merged)
        return OperatorResult(rows=out_rows)
