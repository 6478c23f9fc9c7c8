"""Consolidating plan decisions across interactions (Section 5.4).

One exploration session produces ``t + 1`` plan vectors per candidate plan
(the initial rendering plus one per interaction, each covering only the
operators that interaction re-evaluates).  The consolidation step combines
those per-episode judgements into a single plan choice for the session:

* cost-based comparators (RankSVM) sum per-episode costs and take the
  minimum;
* rank-only comparators (Random Forest, heuristic, random) count per-
  episode wins and take the maximum;
* episode weights are configurable, e.g. to downweight the initial
  rendering or emphasise the immediate next interactions.

Which of the two scores a session gets is a property of the comparator:
its :meth:`~repro.core.comparators.PlanComparator.costs` is ``None`` or
it is not.  The optimizer decides once per session, so
:func:`consolidate_session` folds every episode in one call.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.comparators import PlanComparator
from repro.core.encoder import PlanVector
from repro.errors import OptimizationError


@dataclass
class SessionDecision:
    """Outcome of consolidating a session's episodes."""

    best_plan_index: int
    per_plan_score: list[float] = field(default_factory=list)
    score_kind: str = "cost"


def consolidate_session(
    comparator: PlanComparator,
    episode_vectors: Sequence[Sequence[PlanVector]],
    episode_weights: Sequence[float] | Mapping[int, float] | None = None,
) -> SessionDecision:
    """Pick one plan for a whole session.

    Scores are the weighted sum of per-episode ``costs()`` when the
    comparator has a cost function, else of per-episode ``wins()``.

    Parameters
    ----------
    comparator:
        The trained (or rule-based) plan comparator.
    episode_vectors:
        ``episode_vectors[e][p]`` is the raw vector of plan ``p`` during
        episode ``e`` (episode 0 = initial rendering).  All episodes must
        cover the same plans in the same order.
    episode_weights:
        Optional per-episode weights (sequence aligned with episodes or a
        mapping from episode index).  Defaults to uniform weights.
    """
    if not episode_vectors:
        raise OptimizationError("consolidation requires at least one episode")
    n_plans = len(episode_vectors[0])
    if n_plans == 0:
        raise OptimizationError("consolidation requires at least one plan")
    for episode in episode_vectors:
        if len(episode) != n_plans:
            raise OptimizationError("all episodes must cover the same candidate plans")
    weights = _resolve_weights(episode_weights, len(episode_vectors))
    score_kind = "cost"
    scores = [comparator.costs(episode) for episode in episode_vectors]
    if scores[0] is None:
        score_kind = "wins"
        scores = [comparator.wins(episode) for episode in episode_vectors]
    total = np.zeros(n_plans, dtype=np.float64)
    for weight, score in zip(weights, scores):
        total += weight * score
    best = np.argmin(total) if score_kind == "cost" else np.argmax(total)
    return SessionDecision(
        best_plan_index=int(best), per_plan_score=list(total), score_kind=score_kind
    )


def _resolve_weights(
    episode_weights: Sequence[float] | Mapping[int, float] | None, n_episodes: int
) -> list[float]:
    if episode_weights is None:
        return [1.0] * n_episodes
    if isinstance(episode_weights, Mapping):
        return [float(episode_weights.get(index, 1.0)) for index in range(n_episodes)]
    weights = [float(w) for w in episode_weights]
    if len(weights) != n_episodes:
        raise OptimizationError(
            f"episode_weights has {len(weights)} entries for {n_episodes} episodes"
        )
    return weights


def downweight_initial_render(n_episodes: int, factor: float = 0.25) -> list[float]:
    """Weights that de-emphasise the cold-start rendering episode.

    The paper notes users tolerate initial-render latency more than
    interaction latency, so designers may downweight episode 0.
    """
    if n_episodes <= 0:
        raise OptimizationError("n_episodes must be positive")
    weights = [1.0] * n_episodes
    weights[0] = factor
    return weights
