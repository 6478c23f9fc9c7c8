"""Helpers shared by test modules."""

from __future__ import annotations

import math

import numpy as np

from repro.expr import Evaluator, parse_expression
from repro.core.encoder import FEATURE_OPERATOR_TYPES, PlanVector, _operator_type
from repro.storage.column import Column, sort_rank_key
from repro.storage.table import Table


def table_from_columns(data, name: str = "") -> Table:
    """A table built from a mapping of column name -> values."""
    return Table([Column.from_values(key, list(values)) for key, values in data.items()], name)


def reference_vector(encoder, built, plan_id, episode=0, interaction=None):
    """The per-plan definition of an estimated vector, written out longhand.

    Episode 0 sums every operator of the plan's own built dataflow; an
    interaction episode sums only the operators the interaction makes
    stale.  This is what ``encode_candidates`` computed — one build per
    plan — before it encoded by fragment, kept as the oracle.
    """
    dataflow = built.dataflow
    estimates = encoder._estimate_cardinalities(built)
    wanted = (
        None
        if interaction is None
        else {operator.id for operator in dataflow._stale_order(frozenset(interaction))}
    )
    vector = PlanVector(plan_id=plan_id, episode=episode)
    for operator in dataflow.operators():
        if wanted is not None and operator.id not in wanted:
            continue
        op_type = _operator_type(operator)
        vector.counts[op_type] = vector.counts.get(op_type, 0.0) + 1.0
        vector.cardinalities[op_type] = (
            vector.cardinalities.get(op_type, 0.0) + estimates.get(operator.id, 0.0)
        )
    return vector


def scaled_by_hand(vector: PlanVector) -> np.ndarray:
    """``vector.to_array()`` with every cardinality on the learned log scale."""
    row = vector.to_array()
    for index in range(len(FEATURE_OPERATOR_TYPES), len(row)):
        if row[index] > 0.0:
            row[index] = min(np.log1p(row[index]) / np.log1p(1e7), 1.0)
    return row


def evaluate(expression, datum=None, signals=None):
    """A Vega expression (text or parsed) evaluated the way the client
    transforms evaluate it: :class:`~repro.expr.Evaluator` over a datum."""
    if isinstance(expression, str):
        expression = parse_expression(expression)
    return Evaluator(signals).evaluate(expression, datum)


def values_equal(a: object, b: object) -> bool:
    """Result-value equality: floats to 1e-9, everything else exact.

    The row-identity contract between engines that sum in different
    orders: SQLite 3.40's ``SUM`` adds one value at a time, the embedded
    engine's kernel pairwise.  The cross-backend differential suite and
    the plan-space test's sqlite leg share it.  Plans on the embedded
    backend need no tolerance: the client runtime and the engine reduce
    through one kernel, so their rows compare with ``==``.
    """
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def row_sort_key(row: dict[str, object]) -> tuple:
    """Canonical multiset key with float rounding, deterministic for NULLs."""
    return tuple(
        sort_rank_key(round(value, 6) if isinstance(value, float) else value)
        for value in row.values()
    )


def rows_match(left: list[dict[str, object]], right: list[dict[str, object]]) -> bool:
    """Multiset row equality with float tolerance (order unspecified)."""
    if len(left) != len(right):
        return False
    if left and list(left[0]) != list(right[0]):
        return False
    left_sorted = sorted(left, key=row_sort_key)
    right_sorted = sorted(right, key=row_sort_key)
    for row_a, row_b in zip(left_sorted, right_sorted):
        for column in row_a:
            if not values_equal(row_a[column], row_b[column]):
                return False
    return True
