"""Random forest classifier: bagged CART trees with feature sub-sampling."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ModelError
from repro.ml.decision_tree import DecisionTreeClassifier, FlatTrees


class RandomForestClassifier:
    """An ensemble of :class:`DecisionTreeClassifier` trained on bootstraps.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split:
        Passed through to each tree.
    max_features:
        Candidate features per split; ``"sqrt"`` (default) uses
        ``ceil(sqrt(n_features))``.
    seed:
        Seed controlling bootstraps and per-tree feature sampling.
    """

    def __init__(
        self,
        n_estimators: int = 25,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: int | str | None = "sqrt",
        seed: int = 0,
    ) -> None:
        if n_estimators <= 0:
            raise ModelError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.trees_: list[DecisionTreeClassifier] = []
        self._flat: FlatTrees | None = None
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features is None:
            return None
        if isinstance(self.max_features, str):
            if self.max_features == "sqrt":
                return max(1, int(math.ceil(math.sqrt(n_features))))
            raise ModelError(f"unknown max_features setting {self.max_features!r}")
        return max(1, int(self.max_features))

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "RandomForestClassifier":
        """Fit the forest on a binary-labelled dataset."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=int)
        if features.ndim != 2:
            raise ModelError("features must be a 2-D matrix")
        if len(features) != len(labels):
            raise ModelError("features and labels must have the same length")
        if len(features) == 0:
            raise ModelError("cannot fit a forest on an empty dataset")

        n_samples, n_features = features.shape
        max_features = self._resolve_max_features(n_features)
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        importances = np.zeros(n_features, dtype=np.float64)
        for index in range(self.n_estimators):
            bootstrap = rng.integers(0, n_samples, size=n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=max_features,
                seed=self.seed + index + 1,
            )
            tree.fit(features[bootstrap], labels[bootstrap])
            self.trees_.append(tree)
            if tree.feature_importances_ is not None:
                importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self._flat = FlatTrees([tree.root_ for tree in self.trees_])
        return self

    # ------------------------------------------------------------------ #
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Mean class-1 probability over all trees."""
        if self._flat is None:
            raise ModelError("RandomForestClassifier.predict called before fit")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        votes = np.zeros(len(features), dtype=np.float64)
        # Tree by tree, so the float sum keeps its order.
        for tree_probabilities in self._flat.leaf_probabilities(features):
            votes += tree_probabilities
        return votes / len(self.trees_)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class (0/1) for each sample."""
        return (self.predict_proba(features) >= 0.5).astype(int)

    def predict_pair(self, first: np.ndarray, second: np.ndarray) -> int:
        """1 when the first plan of a pair is predicted faster.

        The forest is trained on difference vectors just like the RankSVM;
        the wrapper exists because (unlike the linear model) a forest does
        not expose a cost function, so the optimizer votes pair by pair.
        """
        difference = np.asarray(first, dtype=np.float64) - np.asarray(second, dtype=np.float64)
        return int(self.predict(difference.reshape(1, -1))[0] == 1)
