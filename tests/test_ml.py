"""Tests for the from-scratch ML models."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    RankSVM,
    accuracy_score,
    train_test_split,
)
from repro.ml.decision_tree import FlatTrees


def tree_predict(tree, features):
    """A fitted tree's class predictions, through the forest's kernel."""
    return (FlatTrees([tree.root_]).leaf_probabilities(features)[0] >= 0.5).astype(int)


def make_linear_pairs(n: int = 400, seed: int = 0):
    """Difference vectors whose label depends on a known linear rule.

    Label 1 (first plan faster) when the weighted sum of the difference is
    negative — exactly the structure RankSVM must recover.
    """
    rng = np.random.default_rng(seed)
    true_weights = np.array([2.0, -1.0, 0.5, 0.0])
    differences = rng.normal(size=(n, 4))
    labels = (differences @ true_weights < 0).astype(int)
    return differences, labels


# --------------------------------------------------------------------------- #
# Preprocessing and metrics
# --------------------------------------------------------------------------- #


def test_train_test_split_proportions():
    features = np.arange(100).reshape(50, 2)
    labels = np.arange(50)
    x_train, x_test, y_train, y_test = train_test_split(features, labels, test_fraction=0.4, seed=1)
    assert len(x_train) == 30 and len(x_test) == 20
    assert set(y_train) | set(y_test) == set(labels)
    with pytest.raises(ModelError):
        train_test_split(features, labels[:-1])
    with pytest.raises(ModelError):
        train_test_split(features, labels, test_fraction=1.5)


def test_metrics():
    y_true = np.array([1, 0, 1, 1])
    y_pred = np.array([1, 0, 0, 1])
    assert accuracy_score(y_true, y_pred) == 0.75
    with pytest.raises(ModelError):
        accuracy_score(y_true, y_pred[:-1])


# --------------------------------------------------------------------------- #
# RankSVM
# --------------------------------------------------------------------------- #


def test_ranksvm_learns_linear_rule():
    differences, labels = make_linear_pairs()
    model = RankSVM(epochs=100, seed=0)
    model.fit(differences, labels)
    predictions = model.predict(differences)
    assert accuracy_score(labels, predictions) > 0.9


def test_ranksvm_cost_orders_plans():
    differences, labels = make_linear_pairs()
    model = RankSVM(epochs=100, seed=0).fit(differences, labels)
    fast = np.array([0.0, 5.0, 0.0, 0.0])   # negative contribution of w -> low cost
    slow = np.array([5.0, 0.0, 0.0, 0.0])
    assert model.predict_pair(fast, slow) in (0, 1)
    costs = model.cost(np.vstack([fast, slow]))
    assert costs.shape == (2,)


def test_ranksvm_feature_weights_exposed():
    differences, labels = make_linear_pairs()
    model = RankSVM(epochs=50).fit(differences, labels)
    weights = model.feature_weights()
    assert weights.shape == (4,)
    # The learned weights must correlate with the generating rule.
    true_weights = np.array([2.0, -1.0, 0.5, 0.0])
    correlation = np.corrcoef(weights, true_weights)[0, 1]
    assert abs(correlation) > 0.8


def test_ranksvm_errors():
    model = RankSVM()
    with pytest.raises(ModelError):
        model.predict(np.zeros((1, 3)))
    with pytest.raises(ModelError):
        model.cost(np.zeros(3))
    with pytest.raises(ModelError):
        model.fit(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ModelError):
        model.fit(np.zeros((5, 3)), np.zeros(4))
    with pytest.raises(ModelError):
        RankSVM(learning_rate=-1)


# --------------------------------------------------------------------------- #
# Decision tree and random forest
# --------------------------------------------------------------------------- #


def make_nonlinear(n: int = 400, seed: int = 1):
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1, 1, size=(n, 3))
    labels = ((features[:, 0] > 0) ^ (features[:, 1] > 0)).astype(int)  # XOR rule
    return features, labels


def test_decision_tree_fits_xor():
    features, labels = make_nonlinear()
    tree = DecisionTreeClassifier(max_depth=12, min_samples_split=2, seed=0).fit(features, labels)
    assert accuracy_score(labels, tree_predict(tree, features)) > 0.9
    assert FlatTrees([tree.root_]).depth >= 2
    assert tree.feature_importances_ is not None
    # Feature 2 is irrelevant to the XOR rule.
    assert tree.feature_importances_[2] < 0.2


def test_decision_tree_batch_prediction_equals_walking_each_sample():
    features, labels = make_nonlinear()
    tree = DecisionTreeClassifier(max_depth=6, min_samples_split=4, seed=0).fit(features, labels)

    def walk(row):
        node = tree.root_
        while not node.is_leaf():
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.probability

    probes = np.random.default_rng(5).uniform(-1.2, 1.2, size=(300, 3))
    # Samples sitting exactly on a split threshold go left, like the walk.
    probes[:40, tree.root_.feature] = tree.root_.threshold
    flat = FlatTrees([tree.root_])
    assert flat.leaf_probabilities(probes)[0].tolist() == [walk(row) for row in probes]


def test_decision_tree_pure_labels_returns_leaf():
    features = np.array([[0.0], [1.0], [2.0]])
    labels = np.array([1, 1, 1])
    tree = DecisionTreeClassifier().fit(features, labels)
    assert tree.root_.is_leaf()
    assert list(tree_predict(tree, features)) == [1, 1, 1]


def test_decision_tree_errors():
    with pytest.raises(ModelError):
        DecisionTreeClassifier(max_depth=0)
    with pytest.raises(ModelError):
        DecisionTreeClassifier().fit(np.zeros((0, 2)), np.zeros(0))


def test_random_forest_beats_single_shallow_tree_on_xor():
    features, labels = make_nonlinear()
    tree = DecisionTreeClassifier(max_depth=2, seed=0).fit(features, labels)
    forest = RandomForestClassifier(n_estimators=20, max_depth=6, seed=0).fit(features, labels)
    tree_accuracy = accuracy_score(labels, tree_predict(tree, features))
    forest_accuracy = accuracy_score(labels, forest.predict(features))
    assert forest_accuracy > tree_accuracy
    assert forest_accuracy > 0.9


def test_random_forest_predict_pair_and_importances():
    differences, labels = make_linear_pairs()
    forest = RandomForestClassifier(n_estimators=10, seed=0).fit(differences, labels)
    assert forest.predict_pair(np.zeros(4), np.ones(4)) in (0, 1)
    assert forest.feature_importances_ is not None
    assert forest.feature_importances_.shape == (4,)
    assert forest.feature_importances_.sum() == pytest.approx(1.0)


def test_random_forest_errors():
    with pytest.raises(ModelError):
        RandomForestClassifier(n_estimators=0)
    with pytest.raises(ModelError):
        RandomForestClassifier().predict(np.zeros((1, 2)))
    with pytest.raises(ModelError):
        RandomForestClassifier(max_features="bogus").fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]))


def test_models_are_deterministic_given_seed():
    differences, labels = make_linear_pairs()
    first = RankSVM(epochs=30, seed=5).fit(differences, labels).feature_weights()
    second = RankSVM(epochs=30, seed=5).fit(differences, labels).feature_weights()
    assert np.allclose(first, second)
    forest_a = RandomForestClassifier(n_estimators=5, seed=9).fit(differences, labels)
    forest_b = RandomForestClassifier(n_estimators=5, seed=9).fit(differences, labels)
    assert np.array_equal(forest_a.predict(differences), forest_b.predict(differences))


# --------------------------------------------------------------------------- #
# Preprocessing and metrics edge cases
# --------------------------------------------------------------------------- #


def test_train_test_split_single_sample_keeps_it_in_train():
    features = np.array([[1.0, 2.0]])
    labels = np.array([1])
    x_train, x_test, y_train, y_test = train_test_split(features, labels)
    assert len(x_train) == 1 and len(y_train) == 1
    assert len(x_test) == 0 and len(y_test) == 0


def test_train_test_split_two_samples_never_empties_either_side():
    features = np.arange(4.0).reshape(2, 2)
    labels = np.array([0, 1])
    x_train, x_test, _, _ = train_test_split(features, labels, test_fraction=0.9)
    assert len(x_train) == 1 and len(x_test) == 1


def test_train_test_split_guards():
    features = np.arange(4.0).reshape(2, 2)
    with pytest.raises(ModelError):
        train_test_split(features, np.array([1]))
    with pytest.raises(ModelError):
        train_test_split(features, np.array([0, 1]), test_fraction=0.0)
    with pytest.raises(ModelError):
        train_test_split(features, np.array([0, 1]), test_fraction=1.0)


# --------------------------------------------------------------------------- #
# Metrics edges
# --------------------------------------------------------------------------- #


def test_accuracy_score_edges():
    assert accuracy_score(np.array([]), np.array([])) == 0.0
    ones = np.ones(5)
    assert accuracy_score(ones, ones) == 1.0  # single-class stream
    assert accuracy_score(ones, np.zeros(5)) == 0.0
    with pytest.raises(ModelError):
        accuracy_score(np.array([1]), np.array([1, 0]))
