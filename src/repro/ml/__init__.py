"""From-scratch machine-learning models used by the plan comparators.

The paper uses off-the-shelf RankSVM and Random Forest classifiers; this
package re-implements the two (plus the preprocessing and evaluation
helpers they need) on top of numpy so the repository has no dependency on
scikit-learn:

* :class:`~repro.ml.ranksvm.RankSVM` — linear pairwise ranker trained with
  sub-gradient descent on the hinge loss over feature-vector differences;
  its weight vector doubles as a linear cost model.
* :class:`~repro.ml.decision_tree.DecisionTreeClassifier` and
  :class:`~repro.ml.random_forest.RandomForestClassifier` — CART trees with
  Gini impurity and a bootstrap-aggregated forest.
* :mod:`~repro.ml.preprocessing` — train/test splits.
* :mod:`~repro.ml.metrics` — accuracy.
"""

from repro.ml.preprocessing import train_test_split
from repro.ml.ranksvm import RankSVM
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.random_forest import RandomForestClassifier
from repro.ml.metrics import accuracy_score

__all__ = [
    "train_test_split",
    "RankSVM",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "accuracy_score",
]
