"""Pairwise plan comparators (Section 5.3.2).

Each comparator answers "which of these two plan vectors is faster?" and
selects a best plan from a candidate set:

* :class:`RankSVMComparator` — the naive learned model based on a linear
  RankSVM; its weight vector yields a cost function, so best-plan selection
  is linear in the number of candidates.
* :class:`RandomForestComparator` — the naive learned model based on a
  Random Forest over pair difference vectors; best-plan selection runs a
  round-robin vote over all pairs.
* :class:`HeuristicComparator` — prioritised rules distilled from the
  learned models' feature weights; no training required.
* :class:`RandomComparator` — sanity-check baseline picking randomly.

Best-plan selection, ranking and session consolidation all go through two
batch methods: :meth:`PlanComparator.costs` (one score per plan, when the
model has a cost function) and :meth:`PlanComparator.wins` (the round-robin
tournament).  The base ``wins`` is the literal pairwise loop; the
deterministic comparators override it with :func:`_round_robin`, which
judges each *distinct* pair of vectors once, in vectorised blocks.

``train_comparator`` builds the labelled pair dataset
``(v_i - v_j, y)`` from executed plan vectors and latencies, fits the
requested model and reports its held-out pairwise accuracy.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.encoder import PlanVector, normalize_cardinalities
from repro.errors import ModelError, OptimizationError
from repro.ml import RandomForestClassifier, RankSVM, accuracy_score, train_test_split


# --------------------------------------------------------------------------- #
# Pair dataset construction
# --------------------------------------------------------------------------- #


@dataclass
class PairDataset:
    """Labelled pairwise training data built from executed plans."""

    differences: np.ndarray
    labels: np.ndarray
    #: Per-pair latency gap |t_i - t_j| (used for error analysis, Figure 7).
    latency_gaps: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def build_pair_dataset(
    vectors: Sequence[PlanVector],
    latencies: Sequence[float],
    normalize: bool = True,
) -> PairDataset:
    """Build all ordered pairs ``(i, j), i < j`` with labels.

    Label ``1`` means the first plan of the pair is faster, matching the
    paper's ``y = 1 iff latency(v_i) < latency(v_j)``.
    """
    if len(vectors) != len(latencies):
        raise OptimizationError("vectors and latencies must align")
    if len(vectors) < 2:
        raise OptimizationError("need at least two plans to build pairs")
    encoded = normalize_cardinalities(list(vectors)) if normalize else list(vectors)
    arrays = _feature_matrix(encoded)
    seconds = np.asarray(latencies, dtype=np.float64)
    first, second = np.triu_indices(len(arrays), k=1)
    return PairDataset(
        differences=arrays[first] - arrays[second],
        labels=(seconds[first] < seconds[second]).astype(int),
        latency_gaps=np.abs(seconds[first] - seconds[second]),
    )


def _feature_matrix(vectors: Sequence[PlanVector]) -> np.ndarray:
    """``to_array()`` of every vector, stacked row-wise."""
    return np.array([v.to_array() for v in vectors], dtype=np.float64)


#: Upper bound on the pair judgements one :func:`_round_robin` block holds
#: at once, so the tournament's temporaries stay a few megabytes whatever
#: the number of plans.
_PAIR_BLOCK = 1 << 14


def _round_robin(
    features: np.ndarray,
    first_beats: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Win counts of the round-robin tournament over ``features`` rows.

    Equals the pairwise loop ``for i < j: compare(v_i, v_j)`` exactly, for
    any ``compare`` that is a pure function of the two rows — it need be
    neither antisymmetric nor transitive (the heuristic's alpha band is
    not).  ``first_beats(a, b)`` returns the boolean matrix
    ``compare(a[p], b[q]) == 1``.

    Identical rows are collapsed first: a plan space is a product of
    per-entry choices and most plans share their vector with many others,
    so only pairs of *distinct* vectors are judged.  Plan ``i`` of class
    ``c`` then scores, against each class ``d``, one win per member of
    ``d`` after ``i`` if ``compare(c, d)`` says first-wins, plus one per
    member before ``i`` if ``compare(d, c)`` says second-wins.
    """
    n = len(features)
    distinct, classes, sizes = np.unique(
        features, axis=0, return_inverse=True, return_counts=True
    )
    classes = classes.reshape(n)
    wins = np.zeros(n, dtype=np.float64)
    seen = np.zeros(len(distinct), dtype=np.int64)
    block = max(1, _PAIR_BLOCK // max(len(distinct), 1))
    for start in range(0, n, block):
        rows = classes[start : start + block]
        present, local = np.unique(rows, return_inverse=True)
        as_first = first_beats(distinct[present], distinct)
        # A block holding every class (the usual, single-block case) has
        # just judged all ordered pairs; no need to judge them again.
        as_second = (
            as_first
            if len(present) == len(distinct)
            else first_beats(distinct, distinct[present])
        )
        wins_first, wins_second = as_first[local], ~as_second.T[local]
        own = np.zeros((len(rows), len(distinct)), dtype=np.int64)
        own[np.arange(len(rows)), rows] = 1
        before = seen + np.cumsum(own, axis=0) - own
        after = sizes - before - own
        wins[start : start + block] = (after * wins_first + before * wins_second).sum(axis=1)
        seen += own.sum(axis=0)
    return wins


# --------------------------------------------------------------------------- #
# Comparator interface and implementations
# --------------------------------------------------------------------------- #


class PlanComparator:
    """Interface: pairwise comparison and best-plan selection."""

    #: Short name used in benchmark reports ("RankSVM", "heuristic", ...).
    name = "abstract"

    #: Whether this comparator expects log-normalised cardinality features
    #: (the learned models are trained on them).  Rule-based comparators
    #: reason about real row counts and set this to False, so decision
    #: paths hand them raw vectors.
    wants_normalized = True

    def compare(self, first: PlanVector, second: PlanVector) -> int:
        """1 when ``first`` is predicted faster than ``second``, else 0."""
        raise NotImplementedError

    def cost(self, vector: PlanVector) -> float | None:
        """Scalar cost when the model provides one (lower = better)."""
        return None

    def costs(self, vectors: Sequence[PlanVector]) -> np.ndarray | None:
        """Cost of every vector, or ``None`` when the model only ranks pairs."""
        values = []
        for vector in vectors:
            value = self.cost(vector)
            if value is None:
                return None
            values.append(value)
        return np.array(values, dtype=np.float64)

    def wins(self, vectors: Sequence[PlanVector]) -> np.ndarray:
        """Round-robin vote over every pair: how many opponents each plan beats.

        The paper's wrapper for models that only rank pairs.  This literal
        loop is the definition (and keeps a stateful comparator's call
        sequence); deterministic comparators override it with an
        equivalent batch computation.
        """
        wins = np.zeros(len(vectors), dtype=np.float64)
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                if self.compare(vectors[i], vectors[j]) == 1:
                    wins[i] += 1
                else:
                    wins[j] += 1
        return wins

    def select_best(self, vectors: Sequence[PlanVector]) -> int:
        """Index of the predicted-fastest plan among ``vectors``."""
        if not vectors:
            raise OptimizationError("select_best needs at least one candidate")
        costs = self.costs(vectors)
        if costs is not None:
            return int(np.argmin(costs))
        return int(np.argmax(self.wins(vectors)))

    def rank(self, vectors: Sequence[PlanVector]) -> list[int]:
        """Indices of candidates ordered best-first."""
        costs = self.costs(vectors)
        order = np.argsort(costs) if costs is not None else np.argsort(-self.wins(vectors))
        return order.tolist()


class RankSVMComparator(PlanComparator):
    """Naive learned comparator backed by the linear RankSVM."""

    name = "RankSVM"

    def __init__(self, model: RankSVM | None = None) -> None:
        self.model = model or RankSVM()

    def fit(self, dataset: PairDataset) -> "RankSVMComparator":
        """Train the underlying RankSVM on a pair dataset."""
        self.model.fit(dataset.differences, dataset.labels)
        return self

    def compare(self, first: PlanVector, second: PlanVector) -> int:
        return self.model.predict_pair(first.to_array(), second.to_array())

    def cost(self, vector: PlanVector) -> float:
        return float(self.model.cost(vector.to_array())[0])

    def costs(self, vectors: Sequence[PlanVector]) -> np.ndarray:
        return self.model.cost(_feature_matrix(vectors))

    def feature_weights(self) -> np.ndarray:
        """Learned weights — inspected to derive the heuristic rules."""
        return self.model.feature_weights()


class RandomForestComparator(PlanComparator):
    """Naive learned comparator backed by the Random Forest."""

    name = "Random Forest"

    def __init__(self, model: RandomForestClassifier | None = None) -> None:
        self.model = model or RandomForestClassifier(n_estimators=25, max_depth=8)

    def fit(self, dataset: PairDataset) -> "RandomForestComparator":
        """Train the forest on a pair dataset."""
        self.model.fit(dataset.differences, dataset.labels)
        return self

    def compare(self, first: PlanVector, second: PlanVector) -> int:
        return self.model.predict_pair(first.to_array(), second.to_array())

    def wins(self, vectors: Sequence[PlanVector]) -> np.ndarray:
        return _round_robin(_feature_matrix(vectors), self._first_beats)

    def _first_beats(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        differences = first[:, None, :] - second[None, :, :]
        predicted = self.model.predict(differences.reshape(-1, differences.shape[-1]))
        return predicted.reshape(len(first), len(second)) == 1

    def feature_importances(self) -> np.ndarray:
        """Forest feature importances — also feeds the heuristic design."""
        if self.model.feature_importances_ is None:
            raise ModelError("RandomForestComparator not fitted")
        return self.model.feature_importances_


class HeuristicComparator(PlanComparator):
    """Rule-based comparator with prioritised rules (no training).

    Rules, in priority order (derived from the learned models' weights):

    1. prefer the plan whose summed VDT/result cardinality is smaller by a
       factor ``alpha`` (the dominant feature — it proxies both SQL result
       size and network transfer);
    2. otherwise prefer the plan with more client-side aggregations (cheap
       reductions of already-small inputs);
    3. otherwise prefer the plan with fewer client-side operators;
    4. otherwise prefer the plan with more work offloaded (more VDTs);
    5. otherwise declare the first plan the winner (stable tie-break).
    """

    name = "heuristic"

    #: The rules compare real row-count ratios (rule 1's ``alpha``), so
    #: decision paths must hand this comparator raw cardinalities.
    wants_normalized = False

    def __init__(self, alpha: float = 1.5, cardinality_epsilon: float = 1e-9) -> None:
        if alpha < 1.0:
            raise OptimizationError("alpha must be >= 1")
        self.alpha = alpha
        self.cardinality_epsilon = cardinality_epsilon

    def compare(self, first: PlanVector, second: PlanVector) -> int:
        rules = (
            self._rule_cardinality,
            self._rule_client_aggregates,
            self._rule_fewer_client_operators,
            self._rule_more_offloading,
        )
        for rule in rules:
            decision = rule(first, second)
            if decision is not None:
                return decision
        return 1

    def wins(self, vectors: Sequence[PlanVector]) -> np.ndarray:
        keys = np.array(
            [
                (
                    v.total_cardinality + self.cardinality_epsilon,
                    v.client_aggregate_count(),
                    v.client_operator_count(),
                    v.counts.get("vdt", 0.0),
                )
                for v in vectors
            ],
            dtype=np.float64,
        ).reshape(len(vectors), 4)
        return _round_robin(keys, self._first_beats)

    def _first_beats(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """:meth:`compare` on every (first row, second row) pair of rule keys."""
        (card_a, aggs_a, ops_a, vdts_a), (card_b, aggs_b, ops_b, vdts_b) = (
            first.T[:, :, None],
            second.T[:, None, :],
        )
        # (first wins, second wins) per rule, in priority order.
        rules = (
            (card_a * self.alpha < card_b, card_b * self.alpha < card_a),
            (aggs_a > aggs_b, aggs_b > aggs_a),
            (ops_a < ops_b, ops_b < ops_a),
            (vdts_a > vdts_b, vdts_b > vdts_a),
        )
        beats = np.ones((len(first), len(second)), dtype=bool)
        for first_wins, second_wins in reversed(rules):
            beats = np.where(first_wins, True, np.where(second_wins, False, beats))
        return beats

    # -- individual rules ------------------------------------------------ #
    def _rule_cardinality(self, first: PlanVector, second: PlanVector) -> int | None:
        a = first.total_cardinality + self.cardinality_epsilon
        b = second.total_cardinality + self.cardinality_epsilon
        if a * self.alpha < b:
            return 1
        if b * self.alpha < a:
            return 0
        return None

    def _rule_client_aggregates(self, first: PlanVector, second: PlanVector) -> int | None:
        a = first.client_aggregate_count()
        b = second.client_aggregate_count()
        if a > b:
            return 1
        if b > a:
            return 0
        return None

    def _rule_fewer_client_operators(self, first: PlanVector, second: PlanVector) -> int | None:
        a = first.client_operator_count()
        b = second.client_operator_count()
        if a < b:
            return 1
        if b < a:
            return 0
        return None

    def _rule_more_offloading(self, first: PlanVector, second: PlanVector) -> int | None:
        a = first.counts.get("vdt", 0.0)
        b = second.counts.get("vdt", 0.0)
        if a > b:
            return 1
        if b > a:
            return 0
        return None


class RandomComparator(PlanComparator):
    """Sanity-check baseline: picks a random winner for every pair."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def compare(self, first: PlanVector, second: PlanVector) -> int:
        return int(self._rng.integers(0, 2))

    def select_best(self, vectors: Sequence[PlanVector]) -> int:
        if not vectors:
            raise OptimizationError("select_best needs at least one candidate")
        return int(self._rng.integers(0, len(vectors)))


# --------------------------------------------------------------------------- #
# Training helper
# --------------------------------------------------------------------------- #


@dataclass
class TrainingReport:
    """Outcome of training a comparator on a pair dataset."""

    comparator: PlanComparator
    train_accuracy: float
    test_accuracy: float
    n_pairs: int


def train_comparator(
    kind: str,
    dataset: PairDataset,
    test_fraction: float = 0.4,
    seed: int = 0,
) -> TrainingReport:
    """Train a comparator of the requested ``kind`` and report accuracy.

    ``kind`` is one of ``"ranksvm"``, ``"random_forest"``, ``"heuristic"``
    or ``"random"`` (the last two need no training; accuracy is evaluated
    on the full dataset's pairs for reporting).
    """
    kind = kind.lower().replace(" ", "_").replace("-", "_")
    if kind in ("ranksvm", "svm"):
        comparator: PlanComparator = RankSVMComparator(RankSVM(seed=seed))
    elif kind in ("random_forest", "rf", "forest"):
        comparator = RandomForestComparator(
            RandomForestClassifier(n_estimators=25, max_depth=8, seed=seed)
        )
    elif kind == "heuristic":
        comparator = HeuristicComparator()
    elif kind == "random":
        comparator = RandomComparator(seed=seed)
    else:
        raise OptimizationError(f"unknown comparator kind {kind!r}")

    if isinstance(comparator, (RankSVMComparator, RandomForestComparator)):
        x_train, x_test, y_train, y_test = train_test_split(
            dataset.differences, dataset.labels, test_fraction=test_fraction, seed=seed
        )
        train_subset = PairDataset(
            differences=x_train, labels=y_train, latency_gaps=np.zeros(len(y_train))
        )
        comparator.fit(train_subset)
        train_accuracy = accuracy_score(y_train, comparator.model.predict(x_train))
        test_accuracy = accuracy_score(y_test, comparator.model.predict(x_test))
    else:
        # Rule-based / random models: evaluate directly on the pair labels.
        predictions = _predict_pairs_from_differences(comparator, dataset)
        train_accuracy = test_accuracy = accuracy_score(dataset.labels, predictions)

    return TrainingReport(
        comparator=comparator,
        train_accuracy=train_accuracy,
        test_accuracy=test_accuracy,
        n_pairs=len(dataset),
    )


def _predict_pairs_from_differences(
    comparator: PlanComparator, dataset: PairDataset
) -> np.ndarray:
    """Evaluate a non-learned comparator on difference vectors.

    Difference vectors lose the individual plan vectors, so rebuild two
    synthetic vectors per pair: the difference against the zero vector.
    This preserves the relative feature values the rules inspect.
    """
    from repro.core.encoder import FEATURE_OPERATOR_TYPES

    predictions = []
    n_types = len(FEATURE_OPERATOR_TYPES)
    for diff in dataset.differences:
        first = PlanVector(plan_id=0)
        second = PlanVector(plan_id=1)
        for index, op_type in enumerate(FEATURE_OPERATOR_TYPES):
            delta_count = diff[index]
            delta_card = diff[n_types + index]
            first.counts[op_type] = max(delta_count, 0.0)
            second.counts[op_type] = max(-delta_count, 0.0)
            first.cardinalities[op_type] = max(delta_card, 0.0)
            second.cardinalities[op_type] = max(-delta_card, 0.0)
        predictions.append(comparator.compare(first, second))
    return np.array(predictions)
