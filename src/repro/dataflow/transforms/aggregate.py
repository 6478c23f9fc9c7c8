"""The ``aggregate`` and ``joinaggregate`` transforms.

``aggregate`` groups tuples by one or more fields and computes summary
statistics per group (one output row per group).  ``joinaggregate``
computes the same statistics but joins them back onto every input row
(Vega uses it for normalised/percent-of-total encodings).

Both reduce through the SQL engine's kernel,
:func:`~repro.sql.functions.aggregate_segments`, over each field's values
held as a :class:`~repro.storage.column.Column` holds them (numbers as
float64 with NaN = NULL, strings as objects).  An aggregate therefore has
the same bits whether a plan runs it here or in the DBMS.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError
from repro.sql.functions import aggregate_segments, none_for_null
from repro.storage.column import Column

#: Vega aggregate op → (SQL aggregate, DISTINCT): what the client runtime
#: reduces and what the rewriter emits for it.
AGGREGATE_OPS: dict[str, tuple[str, bool]] = {
    "count": ("COUNT", False),
    "sum": ("SUM", False),
    "mean": ("AVG", False),
    "average": ("AVG", False),
    "min": ("MIN", False),
    "max": ("MAX", False),
    "median": ("MEDIAN", False),
    "stdev": ("STDDEV", False),
    "variance": ("VARIANCE", False),
    "distinct": ("COUNT", True),
}


def aggregate_output_name(
    op: str, field: str | None, index: int, as_names: Sequence[str] | None
) -> str:
    """The output field of the ``index``-th op, on the client and in SQL."""
    if as_names and index < len(as_names) and as_names[index]:
        return str(as_names[index])
    if op == "count" and not field:
        return "count"
    return f"{op}_{field}"


def _check_ops(ops: Sequence[str]) -> None:
    for op in ops:
        if op not in AGGREGATE_OPS:
            raise DataflowError(
                f"unsupported aggregate op {op!r}; supported: {tuple(AGGREGATE_OPS)}"
            )


def _aggregate(
    source: list[dict[str, object]], params: dict
) -> tuple[list[tuple], list[int], list[dict[str, object]]]:
    """Group ``source`` and reduce every op over the groups.

    Returns the group keys in first-seen order, each source row's group
    index, and each group's output fields.  One kernel call per op.
    """
    groupby: list[str] = list(params.get("groupby") or [])
    ops: list[str] = list(params.get("ops") or ["count"])
    fields: list[str | None] = list(params.get("fields") or [])
    fields += [None] * (len(ops) - len(fields))
    as_names: list[str] | None = params.get("as")

    # Without groupby there is one group even over no rows, as in SQL.
    index: dict[tuple, int] = {} if groupby else {(): 0}
    group_of = [
        index.setdefault(tuple(row.get(field) for field in groupby), len(index))
        for row in source
    ]
    groups = np.asarray(group_of, dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    sizes = np.bincount(groups, minlength=len(index))
    ends = np.cumsum(sizes)
    starts = ends - sizes

    aggregates: list[dict[str, object]] = [{} for _ in index]
    grouped: dict[str, np.ndarray] = {}  # each field's values in group order
    for position, (op, field) in enumerate(zip(ops, fields)):
        if op == "count" and field is None:
            reduced = sizes.astype(np.float64)
        else:
            if field not in grouped:
                column = Column.from_values(field, [row.get(field) for row in source])
                grouped[field] = column.values[order]
            function, distinct = AGGREGATE_OPS[op]
            reduced = aggregate_segments(function, grouped[field], starts, ends, distinct)
        name = aggregate_output_name(op, field, position, as_names)
        for out, value in zip(aggregates, none_for_null(reduced)):
            out[name] = value
    return list(index), group_of, aggregates


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
        _check_ops(self.params.get("ops") or ["count"])

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        groupby: list[str] = list(params.get("groupby") or [])
        keys, _, aggregates = _aggregate(source, params)
        return OperatorResult(
            rows=[{**dict(zip(groupby, key)), **out} for key, out in zip(keys, aggregates)]
        )


class JoinAggregateTransform(Operator):
    """Like :class:`AggregateTransform` but keeps every input row.

    Each row gains the aggregate values of its group, e.g. the group total
    used to compute a percentage-of-total encoding.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="joinaggregate", params=params)
        _check_ops(self.params.get("ops") or ["count"])

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        _, group_of, aggregates = _aggregate(source, params)
        return OperatorResult(
            rows=[{**row, **aggregates[group]} for row, group in zip(source, group_of)]
        )
