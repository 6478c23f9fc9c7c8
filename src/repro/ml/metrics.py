"""Evaluation metrics for the comparator models."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of predictions equal to the true labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise ModelError("y_true and y_pred must have the same length")
    if len(y_true) == 0:
        return 0.0
    return float(np.mean(y_true == y_pred))
