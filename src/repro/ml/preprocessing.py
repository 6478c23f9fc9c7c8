"""Feature preprocessing: dataset splitting."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def train_test_split(
    features: np.ndarray,
    labels: np.ndarray,
    test_fraction: float = 0.4,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random split into train and test sets.

    The paper uses a 60/40 split of all collected plan pairs.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if len(features) != len(labels):
        raise ModelError("features and labels must have the same length")
    if not 0.0 < test_fraction < 1.0:
        raise ModelError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    indices = rng.permutation(len(features))
    split = int(round(len(features) * (1.0 - test_fraction)))
    split = max(1, min(split, len(features) - 1)) if len(features) > 1 else 1
    train_idx, test_idx = indices[:split], indices[split:]
    return features[train_idx], features[test_idx], labels[train_idx], labels[test_idx]
