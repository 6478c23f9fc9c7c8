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

Every entry point takes raw :class:`PlanVector` s, cardinalities in rows.
Each comparator maps them to its own features exactly once: the learned
models to :func:`learned_features` (cardinalities on the log scale they
are trained on), the heuristic to its four rule keys over raw row counts.
No caller decides how a comparator sees its input.

Best-plan selection, ranking and session consolidation all go through two
batch methods: :meth:`PlanComparator.costs` (one score per plan, when the
model has a cost function) and :meth:`PlanComparator.wins` (the round-robin
tournament).  The base ``wins`` is the literal pairwise loop; the
deterministic comparators override it with :func:`_round_robin`, which
judges each *distinct* pair of vectors once, in vectorised blocks.

:func:`build_pair_dataset` builds the labelled pairs ``(f_i - f_j, y)``
of learned features that :func:`train_comparator` fits a learned model
on; :func:`pairwise_outcomes` is the one walk that judges any comparator
on measured pairs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.encoder import FEATURE_OPERATOR_TYPES, PlanVector
from repro.errors import ModelError, OptimizationError
from repro.ml import RandomForestClassifier, RankSVM, accuracy_score, train_test_split


# --------------------------------------------------------------------------- #
# Learned features and pair datasets
# --------------------------------------------------------------------------- #


#: Cardinality normalisation ceiling: the paper's largest benchmark
#: tables are 10 M rows, so ``log1p(card) / log1p(1e7)`` lands in [0, 1]
#: for every realistic cardinality (larger values clamp to 1).
CARDINALITY_LOG_CAP = 1e7


def normalize_cardinalities(cardinalities: np.ndarray) -> np.ndarray:
    """Compress cardinalities to [0, 1] on an absolute log scale.

    Each cardinality becomes ``log1p(card) / log1p(1e7)``, clamped to 1;
    zero (and below) stays zero.  Unlike the earlier per-candidate-set
    min-max scaling, the mapping is *set-independent*: a vector encodes
    identically whatever candidates it is grouped with, so (a) a small
    plan space cannot squash every non-zero cardinality to 1.0 (with three
    candidates, min-max over {0, small, huge} made "small" and "huge"
    nearly indistinguishable — fatal for a comparator that must notice a
    drifted workload), and (b) training pairs collected across episodes,
    sessions and data sizes stay mutually comparable.  The log tames the
    orders-of-magnitude spread the paper's min-max normalisation was
    addressing.
    """
    values = np.asarray(cardinalities, dtype=np.float64)
    scaled = np.minimum(np.log1p(np.maximum(values, 0.0)) / np.log1p(CARDINALITY_LOG_CAP), 1.0)
    return np.where(values <= 0.0, 0.0, scaled)


def learned_features(vectors: Sequence[PlanVector]) -> np.ndarray:
    """The learned models' feature matrix, one row per vector.

    ``to_array()`` of every vector — operator counts as they are (small
    integers), cardinalities through :func:`normalize_cardinalities`.
    Training pairs and every learned comparator read this one map.
    """
    n_types = len(FEATURE_OPERATOR_TYPES)
    features = np.array([v.to_array() for v in vectors], dtype=np.float64)
    features = features.reshape(len(vectors), 2 * n_types)
    features[:, n_types:] = normalize_cardinalities(features[:, n_types:])
    return features


@dataclass
class PairDataset:
    """Labelled pairwise training data built from executed plans."""

    differences: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def build_pair_dataset(
    vectors: Sequence[PlanVector], latencies: Sequence[float]
) -> PairDataset:
    """Build all ordered pairs ``(i, j), i < j`` of learned features with labels.

    Label ``1`` means the first plan of the pair is faster, matching the
    paper's ``y = 1 iff latency(v_i) < latency(v_j)``.
    """
    if len(vectors) != len(latencies):
        raise OptimizationError("vectors and latencies must align")
    if len(vectors) < 2:
        raise OptimizationError("need at least two plans to build pairs")
    features = learned_features(vectors)
    seconds = np.asarray(latencies, dtype=np.float64)
    first, second = np.triu_indices(len(features), k=1)
    return PairDataset(
        differences=features[first] - features[second],
        labels=(seconds[first] < seconds[second]).astype(int),
    )


def stack_pair_datasets(parts: Sequence[PairDataset]) -> PairDataset:
    """One dataset holding the pairs of ``parts``, in order."""
    return PairDataset(
        differences=np.vstack([part.differences for part in parts]),
        labels=np.concatenate([part.labels for part in parts]),
    )


def pairwise_outcomes(
    comparator: PlanComparator,
    vectors: Sequence[PlanVector],
    latencies: Sequence[float],
) -> Iterator[tuple[int, int, float, float]]:
    """Judge every measured pair ``i < j`` with ``comparator.compare``.

    Yields ``(predicted, truth, latency_i, latency_j)`` per pair, ``i``
    outer and ``j`` inner; ``predicted`` and ``truth`` are 1 when the
    first plan is predicted, respectively measured, to be faster.
    """
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            yield (
                comparator.compare(vectors[i], vectors[j]),
                int(latencies[i] < latencies[j]),
                latencies[i],
                latencies[j],
            )


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
    """Interface: pairwise comparison and best-plan selection over raw vectors."""

    #: Short name used in benchmark reports ("RankSVM", "heuristic", ...).
    name = "abstract"

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


class _LearnedComparator(PlanComparator):
    """A model trained on pair differences of :func:`learned_features` rows."""

    model: RankSVM | RandomForestClassifier

    def fit(self, dataset: PairDataset) -> "_LearnedComparator":
        """Train the underlying model on a pair dataset."""
        self.model.fit(dataset.differences, dataset.labels)
        return self

    def compare(self, first: PlanVector, second: PlanVector) -> int:
        return self.model.predict_pair(*learned_features([first, second]))


class RankSVMComparator(_LearnedComparator):
    """Naive learned comparator backed by the linear RankSVM."""

    name = "RankSVM"

    def __init__(self, model: RankSVM | None = None) -> None:
        self.model = model or RankSVM()

    def cost(self, vector: PlanVector) -> float:
        return float(self.costs([vector])[0])

    def costs(self, vectors: Sequence[PlanVector]) -> np.ndarray:
        return self.model.cost(learned_features(vectors))

    def feature_weights(self) -> np.ndarray:
        """Learned weights — inspected to derive the heuristic rules."""
        return self.model.feature_weights()


class RandomForestComparator(_LearnedComparator):
    """Naive learned comparator backed by the Random Forest."""

    name = "Random Forest"

    def __init__(self, model: RandomForestClassifier | None = None) -> None:
        self.model = model or RandomForestClassifier(n_estimators=25, max_depth=8)

    def wins(self, vectors: Sequence[PlanVector]) -> np.ndarray:
        return _round_robin(learned_features(vectors), self._first_beats)

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
        # The four rule keys are this comparator's features: raw row counts,
        # since rule 1 compares cardinality ratios against ``alpha``.
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
    """Fit a learned comparator of ``kind`` and report its pairwise accuracy.

    ``kind`` is ``"ranksvm"`` or ``"random_forest"``; the model trains on
    a ``1 - test_fraction`` split of ``dataset``'s pairs and is scored on
    the rest.  The heuristic and random comparators need no training:
    build them directly and judge them with :func:`pairwise_outcomes`.
    """
    kind = kind.lower().replace(" ", "_").replace("-", "_")
    if kind in ("ranksvm", "svm"):
        comparator: _LearnedComparator = RankSVMComparator(RankSVM(seed=seed))
    elif kind in ("random_forest", "rf", "forest"):
        comparator = RandomForestComparator(
            RandomForestClassifier(n_estimators=25, max_depth=8, seed=seed)
        )
    else:
        raise OptimizationError(f"unknown learned comparator kind {kind!r}")

    x_train, x_test, y_train, y_test = train_test_split(
        dataset.differences, dataset.labels, test_fraction=test_fraction, seed=seed
    )
    comparator.fit(PairDataset(differences=x_train, labels=y_train))
    return TrainingReport(
        comparator=comparator,
        train_accuracy=accuracy_score(y_train, comparator.model.predict(x_train)),
        test_accuracy=accuracy_score(y_test, comparator.model.predict(x_test)),
        n_pairs=len(dataset),
    )
