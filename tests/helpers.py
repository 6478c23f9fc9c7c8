"""Helpers shared by test modules."""

from __future__ import annotations

import numpy as np

from repro.core.encoder import FEATURE_OPERATOR_TYPES, PlanVector, _operator_type


def reference_vector(encoder, built, plan_id, episode=0, interaction=None):
    """The per-plan definition of an estimated vector, written out longhand.

    Episode 0 sums every operator of the plan's own built dataflow; an
    interaction episode sums only the operators the interaction makes
    stale.  This is what ``encode_candidates`` computed — one build per
    plan — before it encoded by fragment, kept as the oracle.
    """
    dataflow = built.dataflow
    estimates = encoder._estimate_cardinalities(built)
    wanted = None if interaction is None else dataflow._stale_operators(set(interaction))
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
