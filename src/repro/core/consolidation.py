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

Consolidation is *incremental*: an :class:`IncrementalConsolidator`
accumulates per-plan scores episode by episode and can report the current
best plan after every :meth:`~IncrementalConsolidator.add_episode`.
:func:`consolidate_session`, the one-shot API the optimizer calls, is
built on top of it.
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

    def ranking(self) -> list[int]:
        """Plan indices ordered best-first."""
        scores = np.array(self.per_plan_score, dtype=np.float64)
        return np.argsort(scores if self.score_kind == "cost" else -scores).tolist()


class IncrementalConsolidator:
    """Accumulates per-episode plan judgements into a running decision.

    Episodes arrive one at a time (``add_episode``); after each, the
    current consolidated decision is available from :meth:`decision`.
    Scoring matches :func:`consolidate_session` exactly: summed weighted
    costs when the comparator exposes a cost function, weighted round-
    robin win counts otherwise.  The score kind is decided by the *first*
    episode and pinned — a comparator whose cost function appears later
    cannot retroactively change the accumulated score semantics.
    """

    def __init__(self, comparator: PlanComparator, n_plans: int) -> None:
        if n_plans <= 0:
            raise OptimizationError("consolidation requires at least one plan")
        self.comparator = comparator
        self.n_plans = n_plans
        self.n_episodes = 0
        self._scores = np.zeros(n_plans, dtype=np.float64)
        self._score_kind: str | None = None

    # -------------------------------------------------------------- #
    def add_episode(
        self, vectors: Sequence[PlanVector], weight: float = 1.0
    ) -> SessionDecision:
        """Fold one episode's per-plan vectors in; returns the new decision."""
        if len(vectors) != self.n_plans:
            raise OptimizationError(
                f"episode covers {len(vectors)} plans, consolidator expects {self.n_plans}"
            )
        costs = self.comparator.costs(vectors)
        if self._score_kind is None:
            self._score_kind = "cost" if costs is not None else "wins"
        if self._score_kind == "wins":
            self._scores += weight * self.comparator.wins(vectors)
        elif costs is None:
            raise OptimizationError("comparator stopped providing costs mid-consolidation")
        else:
            self._scores += weight * costs
        self.n_episodes += 1
        return self.decision()

    def decision(self) -> SessionDecision:
        """The consolidated decision over all episodes folded in so far."""
        if self._score_kind is None:
            raise OptimizationError("no episodes consolidated yet")
        if self._score_kind == "cost":
            best = int(np.argmin(self._scores))
        else:
            best = int(np.argmax(self._scores))
        return SessionDecision(
            best_plan_index=best,
            per_plan_score=list(self._scores),
            score_kind=self._score_kind,
        )


def consolidate_session(
    comparator: PlanComparator,
    episode_vectors: Sequence[Sequence[PlanVector]],
    episode_weights: Sequence[float] | Mapping[int, float] | None = None,
) -> SessionDecision:
    """Pick one plan for a whole session (one-shot consolidation).

    Parameters
    ----------
    comparator:
        The trained (or rule-based) plan comparator.
    episode_vectors:
        ``episode_vectors[e][p]`` is the vector of plan ``p`` during episode
        ``e`` (episode 0 = initial rendering).  All episodes must cover the
        same plans in the same order.
    episode_weights:
        Optional per-episode weights (sequence aligned with episodes or a
        mapping from episode index).  Defaults to uniform weights.
    """
    if not episode_vectors:
        raise OptimizationError("consolidation requires at least one episode")
    n_plans = len(episode_vectors[0])
    for episode in episode_vectors:
        if len(episode) != n_plans:
            raise OptimizationError("all episodes must cover the same candidate plans")
    weights = _resolve_weights(episode_weights, len(episode_vectors))
    consolidator = IncrementalConsolidator(comparator, n_plans)
    for episode, weight in zip(episode_vectors, weights):
        consolidator.add_episode(episode, weight)
    return consolidator.decision()


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
