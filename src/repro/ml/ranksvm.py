"""Linear RankSVM trained with sub-gradient descent on the hinge loss.

Section 5.3.2 of the paper: a pair of plan vectors ``(v_i, v_j)`` with
label ``y`` (+1 when plan *i* is faster) is fit by minimising the hinge
loss of ``y * w^T (v_i - v_j)``.  After training, ``Cost(v) = w^T v`` acts
as a linear cost model, so the best of *n* plans is found with *n* cost
evaluations instead of ``n(n-1)/2`` pairwise calls.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class RankSVM:
    """Pairwise linear ranking SVM.

    Parameters
    ----------
    learning_rate:
        Initial sub-gradient step size (decays as 1/sqrt(t)).
    regularization:
        L2 penalty strength on the weight vector.
    epochs:
        Number of passes over the training pairs.
    seed:
        Seed for shuffling between epochs.
    """

    def __init__(
        self,
        learning_rate: float = 0.1,
        regularization: float = 1e-4,
        epochs: int = 200,
        seed: int = 0,
    ) -> None:
        if learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        if epochs <= 0:
            raise ModelError("epochs must be positive")
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.epochs = epochs
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.training_loss_: list[float] = []
        #: Sub-gradient steps taken so far in the current :meth:`fit`
        #: (drives the 1/sqrt(t) learning-rate decay).
        self._step = 0

    # ------------------------------------------------------------------ #
    def fit(self, differences: np.ndarray, labels: np.ndarray) -> "RankSVM":
        """Fit on difference vectors ``v_i - v_j`` with labels in {0, 1}.

        Label 1 means the *first* plan of the pair is faster (its cost
        should be lower), matching the paper's convention
        ``y = 1 iff latency(v_i) < latency(v_j)``.
        """
        differences, margins = self._validate_pairs(differences, labels)
        n_samples, n_features = differences.shape
        rng = np.random.default_rng(self.seed)
        self.weights_ = np.zeros(n_features, dtype=np.float64)
        self.training_loss_ = []
        self._step = 0

        for _epoch in range(self.epochs):
            order = rng.permutation(n_samples)
            epoch_loss = self._sgd_pass(differences[order], margins[order])
            self.training_loss_.append(epoch_loss / n_samples)
            if len(self.training_loss_) > 2 and abs(
                self.training_loss_[-1] - self.training_loss_[-2]
            ) < 1e-6:
                break
        return self

    # ------------------------------------------------------------------ #
    def _validate_pairs(
        self, differences: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Check shapes and convert {0,1} labels to {-1,+1} margins.

        Label 1 means the *first* plan of the pair is faster -> we want
        ``w^T diff < 0``, i.e. sign = -1 on the margin.  Flipping the sign
        here keeps ``Cost(v) = w^T v`` oriented so lower cost = faster.
        """
        differences = np.asarray(differences, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if differences.ndim != 2:
            raise ModelError("differences must be a 2-D matrix")
        if len(differences) != len(labels):
            raise ModelError("differences and labels must have the same length")
        if len(differences) == 0:
            raise ModelError("cannot fit RankSVM on an empty dataset")
        margins = np.where(labels >= 0.5, -1.0, 1.0)
        return differences, margins

    def _sgd_pass(self, differences: np.ndarray, margins: np.ndarray) -> float:
        """One sub-gradient pass over ``differences``; returns summed loss."""
        weights = self.weights_
        total_loss = 0.0
        for x, y in zip(differences, margins):
            self._step += 1
            learning_rate = self.learning_rate / np.sqrt(self._step)
            margin = y * float(weights @ x)
            gradient = self.regularization * weights
            if margin < 1.0:
                gradient = gradient - y * x
                total_loss += 1.0 - margin
            weights = weights - learning_rate * gradient
        self.weights_ = weights
        return total_loss

    # ------------------------------------------------------------------ #
    def cost(self, vectors: np.ndarray) -> np.ndarray:
        """Linear cost ``w^T v`` of each plan vector (lower is better)."""
        if self.weights_ is None:
            raise ModelError("RankSVM.cost called before fit")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        # Multiply and sum each row on its own instead of one BLAS product,
        # whose rounding can depend on where a row sits in the matrix: equal
        # plan vectors must cost exactly the same, alone or in any batch,
        # so that ties keep going to the first plan.
        return (vectors * self.weights_).sum(axis=1)

    def predict_pair(self, first: np.ndarray, second: np.ndarray) -> int:
        """1 when ``first`` is predicted faster than ``second``, else 0."""
        cost = self.cost(np.vstack([first, second]))
        return int(cost[0] < cost[1])

    def predict(self, differences: np.ndarray) -> np.ndarray:
        """Predict labels for difference vectors (1 = first plan faster)."""
        if self.weights_ is None:
            raise ModelError("RankSVM.predict called before fit")
        differences = np.atleast_2d(np.asarray(differences, dtype=np.float64))
        scores = differences @ self.weights_
        return (scores < 0).astype(int)

    def feature_weights(self) -> np.ndarray:
        """The learned weight vector (used to derive heuristic rules)."""
        if self.weights_ is None:
            raise ModelError("RankSVM.feature_weights called before fit")
        return self.weights_.copy()
