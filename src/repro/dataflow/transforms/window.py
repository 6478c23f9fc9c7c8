"""The ``window`` transform: ranking and running aggregates over sorted rows."""

from __future__ import annotations

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError
from repro.dataflow.transforms.collect import _sort_key

#: Window operations supported by the client runtime.
SUPPORTED_OPS = ("row_number", "rank", "sum", "count", "mean", "min", "max")


class WindowTransform(Operator):
    """Computes window functions per partition.

    Parameters
    ----------
    ops, fields, as:
        Parallel lists of window operations, their input fields (``None``
        for ``row_number``/``rank``/``count``), and output names.
    groupby:
        Partitioning fields.
    sort:
        ``{"field": ..., "order": ...}`` ordering within each partition.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="window", params=params)
        for op in self.params.get("ops") or []:
            if op not in SUPPORTED_OPS:
                raise DataflowError(
                    f"unsupported window op {op!r}; supported: {SUPPORTED_OPS}"
                )

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        ops: list[str] = list(params.get("ops") or ["row_number"])
        fields: list[str | None] = list(params.get("fields") or [None] * len(ops))
        as_names: list[str] = list(params.get("as") or [])
        groupby: list[str] = list(params.get("groupby") or [])
        sort = params.get("sort") or {}
        sort_fields = sort.get("field") or []
        sort_orders = sort.get("order") or []
        if isinstance(sort_fields, str):
            sort_fields = [sort_fields]
        if isinstance(sort_orders, str):
            sort_orders = [sort_orders]
        if len(fields) < len(ops):
            fields = fields + [None] * (len(ops) - len(fields))
        while len(as_names) < len(ops):
            index = len(as_names)
            field = fields[index]
            as_names.append(f"{ops[index]}_{field}" if field else ops[index])

        partitions: dict[tuple, list[int]] = {}
        for index, row in enumerate(source):
            key = tuple(row.get(g) for g in groupby)
            partitions.setdefault(key, []).append(index)

        rows: list[dict[str, object]] = [dict(row) for row in source]
        for indices in partitions.values():
            ordered = list(indices)
            if sort_fields:
                def sort_key(i: int) -> tuple:
                    return tuple(_sort_key(source[i].get(f)) for f in sort_fields)

                ordered.sort(key=sort_key)
                if sort_orders and str(sort_orders[0]).lower().startswith("desc"):
                    ordered.reverse()
            for op, field, name in zip(ops, fields, as_names):
                self._apply(op, field, name, ordered, source, rows)
        return OperatorResult(rows=rows)

    @staticmethod
    def _apply(
        op: str,
        field: str | None,
        name: str,
        ordered: list[int],
        source: list[dict[str, object]],
        rows: list[dict[str, object]],
    ) -> None:
        if op == "row_number":
            for position, i in enumerate(ordered, start=1):
                rows[i][name] = float(position)
            return
        if op == "rank":
            previous = object()
            rank = 0
            for position, i in enumerate(ordered, start=1):
                current = tuple(sorted(source[i].items()))
                if current != previous:
                    rank = position
                    previous = current
                rows[i][name] = float(rank)
            return
        running_sum = 0.0
        running_count = 0
        running_min: float | None = None
        running_max: float | None = None
        for i in ordered:
            value = source[i].get(field) if field else None
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                running_sum += float(value)
                running_count += 1
                running_min = float(value) if running_min is None else min(running_min, float(value))
                running_max = float(value) if running_max is None else max(running_max, float(value))
            if op == "sum":
                rows[i][name] = running_sum
            elif op == "count":
                rows[i][name] = float(running_count)
            elif op == "mean":
                rows[i][name] = running_sum / running_count if running_count else None
            elif op == "min":
                rows[i][name] = running_min
            elif op == "max":
                rows[i][name] = running_max
