"""CART decision tree classifier (Gini impurity, binary splits)."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


@dataclass
class _TreeNode:
    """A node of the fitted tree (leaf when ``feature`` is None)."""

    prediction: int
    probability: float
    feature: int | None = None
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None

    def is_leaf(self) -> bool:
        return self.feature is None


class FlatTrees:
    """Fitted trees laid out as parallel node arrays for batch prediction.

    Samples descend all trees level by level with array gathers — a few
    numpy calls per level whatever the number of samples or trees —
    instead of one Python walk per (sample, tree).  Leaves point at
    themselves, so samples that arrive early simply wait.
    """

    def __init__(self, roots: Sequence[_TreeNode]) -> None:
        feature: list[int] = []
        threshold: list[float] = []
        children: list[tuple[int, int]] = []
        probability: list[float] = []
        self.depth = 0

        def add(node: _TreeNode, level: int) -> int:
            index = len(feature)
            feature.append(0 if node.is_leaf() else node.feature)
            threshold.append(node.threshold)
            probability.append(node.probability)
            children.append((index, index))
            if not node.is_leaf():
                self.depth = max(self.depth, level + 1)
                children[index] = (add(node.left, level + 1), add(node.right, level + 1))
            return index

        self._roots = np.array([add(root, 0) for root in roots], dtype=np.intp)
        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold, dtype=np.float64)
        self._left, self._right = np.array(children, dtype=np.intp).T
        self._probability = np.array(probability, dtype=np.float64)

    def leaf_probabilities(self, features: np.ndarray) -> np.ndarray:
        """Class-1 probability of every sample under every tree: (trees, samples)."""
        samples = np.arange(len(features))
        node = np.repeat(self._roots[:, None], len(features), axis=1)
        for _ in range(self.depth):
            goes_left = features[samples, self._feature[node]] <= self._threshold[node]
            node = np.where(goes_left, self._left[node], self._right[node])
        return self._probability[node]


def _gini(labels: np.ndarray) -> float:
    if len(labels) == 0:
        return 0.0
    positive = float(np.mean(labels))
    return 2.0 * positive * (1.0 - positive)


class DecisionTreeClassifier:
    """Binary classification tree: grows ``root_``.  It predicts through
    :class:`FlatTrees`, as the random forest does with its trees.

    Parameters
    ----------
    max_depth:
        Maximum tree depth.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    max_features:
        Number of candidate features per split (``None`` = all); the
        random forest passes ``sqrt(n_features)``.
    seed:
        Seed for feature sub-sampling.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        if max_depth <= 0:
            raise ModelError("max_depth must be positive")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.root_: _TreeNode | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTreeClassifier":
        """Fit the tree on a binary-labelled dataset."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=int)
        if features.ndim != 2:
            raise ModelError("features must be a 2-D matrix")
        if len(features) != len(labels):
            raise ModelError("features and labels must have the same length")
        if len(features) == 0:
            raise ModelError("cannot fit a tree on an empty dataset")
        self.n_features_ = features.shape[1]
        self._importance = np.zeros(self.n_features_, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self.root_ = self._grow(features, labels, depth=0, rng=rng)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance
        )
        return self

    def _grow(
        self, features: np.ndarray, labels: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _TreeNode:
        prediction = int(round(float(np.mean(labels)))) if len(labels) else 0
        probability = float(np.mean(labels)) if len(labels) else 0.0
        node = _TreeNode(prediction=prediction, probability=probability)
        if (
            depth >= self.max_depth
            or len(labels) < self.min_samples_split
            or len(np.unique(labels)) == 1
        ):
            return node

        best = self._best_split(features, labels, rng)
        if best is None:
            return node
        feature, threshold, gain = best
        mask = features[:, feature] <= threshold
        if mask.all() or (~mask).all():
            return node
        self._importance[feature] += gain * len(labels)
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(features[mask], labels[mask], depth + 1, rng)
        node.right = self._grow(features[~mask], labels[~mask], depth + 1, rng)
        return node

    def _best_split(
        self, features: np.ndarray, labels: np.ndarray, rng: np.random.Generator
    ) -> tuple[int, float, float] | None:
        n_samples, n_features = features.shape
        parent_impurity = _gini(labels)
        # Only consider features that actually vary in this node; sampling
        # constant features would waste the per-split feature budget (plan
        # vectors are sparse — most operator types never appear).
        varying = np.array(
            [f for f in range(n_features) if features[:, f].min() != features[:, f].max()],
            dtype=int,
        )
        if varying.size == 0:
            return None
        candidates = varying
        if self.max_features is not None and self.max_features < varying.size:
            candidates = rng.choice(varying, size=self.max_features, replace=False)

        best_gain = 0.0
        best: tuple[int, float, float] | None = None
        for feature in candidates:
            values = features[:, feature]
            unique = np.unique(values)
            if len(unique) <= 1:
                continue
            # Candidate thresholds: midpoints between consecutive unique values,
            # capped to keep the search cheap on continuous features.
            if len(unique) > 32:
                quantiles = np.linspace(0.02, 0.98, 32)
                thresholds = np.unique(np.quantile(values, quantiles))
            else:
                thresholds = (unique[:-1] + unique[1:]) / 2.0
            for threshold in thresholds:
                mask = values <= threshold
                n_left = int(mask.sum())
                if n_left == 0 or n_left == n_samples:
                    continue
                impurity = (
                    n_left * _gini(labels[mask])
                    + (n_samples - n_left) * _gini(labels[~mask])
                ) / n_samples
                gain = parent_impurity - impurity
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best = (int(feature), float(threshold), float(gain))
        return best
