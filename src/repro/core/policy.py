"""Plan policies: static one-shot selection vs feedback-driven adaptation.

The original :class:`~repro.core.optimizer.VegaPlusOptimizer` made one
plan decision per specification before any traffic flowed.  Policies make
plan selection a *runtime* concern:

* :class:`StaticPolicy` — the paper's protocol and the default: choose
  once from EXPLAIN-style estimates, never revisit.
* :class:`AdaptivePolicy` — keeps per-session state: it calibrates a
  seconds-per-cost scale from observed episode latencies, and when the
  observed latency of an episode diverges from the calibrated prediction
  by more than a configurable *regret threshold* (for ``patience``
  consecutive episodes), it re-encodes every candidate plan — with
  current signal values and any
  :class:`~repro.storage.statistics.CardinalityFeedback` corrections the
  serving tier has accumulated — and re-consolidates, switching plans
  mid-session when a different candidate now wins.

A policy instance holds the state of **one** session (one
:class:`~repro.core.system.VegaPlusSystem`); build a fresh policy per
dashboard session.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.consolidation import IncrementalConsolidator
from repro.core.encoder import PlanVector
from repro.core.optimizer import OptimizationResult, VegaPlusOptimizer
from repro.core.plan import ExecutionPlan
from repro.errors import OptimizationError


@dataclass
class ReplanEvent:
    """One mid-session plan revision made by an adaptive policy."""

    episode: int
    from_plan_id: int
    to_plan_id: int
    observed_seconds: float
    predicted_seconds: float

    @property
    def switched(self) -> bool:
        """Whether the revision actually changed the plan."""
        return self.from_plan_id != self.to_plan_id


class PlanPolicy:
    """Interface: initial plan selection plus per-episode observation.

    ``begin`` makes the initial decision for a session; ``observe`` is
    called once per executed episode with the measured plan vector and
    end-to-end latency, and may return a different
    :class:`ExecutionPlan` to switch the running session to.
    """

    #: Short name used in benchmark reports ("static", "adaptive").
    name = "abstract"

    #: Whether :meth:`observe` needs the episode's measured plan vector.
    #: The shipped policies judge latency alone, so the system skips the
    #: per-interaction encode unless a feedback collector (which always
    #: consumes vectors) is attached or a policy sets this to True — in
    #: which case ``vector`` in :meth:`observe` may otherwise be None.
    wants_vectors = False

    def begin(
        self,
        optimizer: VegaPlusOptimizer,
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        episode_weights: Sequence[float] | None = None,
    ) -> OptimizationResult:
        """Select the session's initial plan."""
        raise NotImplementedError

    def observe(
        self,
        vector: PlanVector | None,
        latency_seconds: float,
        signal_updates: Mapping[str, object] | None = None,
    ) -> ExecutionPlan | None:
        """Ingest one executed episode; return a new plan to switch to, if any.

        ``vector`` is the episode's measured plan vector, or ``None``
        when neither a feedback collector nor :attr:`wants_vectors`
        asked for it to be encoded.
        """
        raise NotImplementedError

    def counters(self) -> dict[str, object]:
        """Flat policy counters for reporting."""
        return {"policy": self.name}


class StaticPolicy(PlanPolicy):
    """One-shot plan selection — today's behaviour, kept as the baseline."""

    name = "static"

    def __init__(self) -> None:
        self.episodes_observed = 0

    def begin(
        self,
        optimizer: VegaPlusOptimizer,
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        episode_weights: Sequence[float] | None = None,
    ) -> OptimizationResult:
        return optimizer.choose_plan(anticipated_interactions, episode_weights)

    def observe(
        self,
        vector: PlanVector | None,
        latency_seconds: float,
        signal_updates: Mapping[str, object] | None = None,
    ) -> None:
        self.episodes_observed += 1
        return None

    def counters(self) -> dict[str, object]:
        return {
            "policy": self.name,
            "episodes_observed": self.episodes_observed,
            "replans": 0,
        }


class AdaptivePolicy(PlanPolicy):
    """Mid-session replanning driven by observed-vs-predicted latency.

    Parameters
    ----------
    regret_threshold:
        Relative divergence that counts as a regretful episode: an
        episode is divergent when
        ``observed > (1 + regret_threshold) * predicted``.
    patience:
        Number of *consecutive* divergent episodes before replanning —
        a single slow episode (GC pause, cache miss) never triggers.
    cooldown:
        Minimum episodes between replans, so a switch gets a chance to
        show its effect before being judged.
    calibration_alpha:
        EWMA weight of the newest episode when updating the
        seconds-per-cost calibration scale (only non-divergent episodes
        update it, so drift cannot silently recalibrate itself away).
    replan_window:
        How many recent interactions the replan decision replays: the
        policy assumes the near future looks like the recent past and
        costs every candidate over those interactions re-encoded under
        the session's *current* signal values and cardinality feedback.
    horizon:
        Expected number of future interactions the replayed window
        stands in for — it scales the interaction episodes against the
        one-off re-render a plan switch would cost.
    min_divergence_seconds:
        Absolute floor separating "free" episodes (cache hits, trivial
        updates) from meaningful ones.  Sub-floor episodes neither count
        as divergent *nor seed/update the calibration* — otherwise a run
        of near-zero cache hits would drag predictions toward zero and
        make the next ordinary miss look like drift.  Set it just above
        cache-hit latency and below a normal miss.
    switch_cost_weight:
        How strongly the one-off re-render of switching plans counts
        against a non-incumbent candidate (its episode-0 cost times this
        weight is added to its horizon score).  Defaults to 0: pairwise-
        trained cost models get magnitudes right only *within* an
        episode, so charging a full-render cost against recurring
        interaction margins systematically blocks good switches; the
        patience/cooldown/max_replans guards bound thrashing instead.
        Set it positive when the comparator's cost is genuinely
        latency-proportional.
    max_replans:
        Optional hard cap on replans per session.
    """

    name = "adaptive"

    def __init__(
        self,
        regret_threshold: float = 0.5,
        patience: int = 2,
        cooldown: int = 2,
        calibration_alpha: float = 0.3,
        replan_window: int = 4,
        horizon: int = 10,
        min_divergence_seconds: float = 0.0,
        switch_cost_weight: float = 0.0,
        max_replans: int | None = None,
    ) -> None:
        if regret_threshold <= 0:
            raise OptimizationError("regret_threshold must be positive")
        if patience < 1 or cooldown < 0:
            raise OptimizationError("patience must be >= 1 and cooldown >= 0")
        if not 0.0 < calibration_alpha <= 1.0:
            raise OptimizationError("calibration_alpha must be in (0, 1]")
        if replan_window < 1 or horizon < 1:
            raise OptimizationError("replan_window and horizon must be >= 1")
        self.regret_threshold = regret_threshold
        self.patience = patience
        self.cooldown = cooldown
        self.calibration_alpha = calibration_alpha
        self.replan_window = replan_window
        self.horizon = horizon
        self.min_divergence_seconds = min_divergence_seconds
        self.switch_cost_weight = switch_cost_weight
        self.max_replans = max_replans

        self._optimizer: VegaPlusOptimizer | None = None
        self._plans: list[ExecutionPlan] = []
        self._current_index = 0
        self._estimated_vectors: list[PlanVector] = []
        self._cost_scale: float | None = None
        self._divergent_streak = 0
        self._episodes_since_replan = 0
        self._signal_state: dict[str, object] = {}
        self._recent_interactions: deque[dict[str, object]] = deque(maxlen=replan_window)
        self.episodes_observed = 0
        self.replan_events: list[ReplanEvent] = []
        self.last_observed_seconds = 0.0
        self.last_predicted_seconds = 0.0
        #: Per-query-shape execution-arm routing (IVM vs re-scan vs
        #: offload).  The serving tier plugs this into the engine's IVM
        #: manager so the adaptive policy owns the third plan dimension.
        self.arms = ArmSelector()

    # ------------------------------------------------------------------ #
    def begin(
        self,
        optimizer: VegaPlusOptimizer,
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        episode_weights: Sequence[float] | None = None,
    ) -> OptimizationResult:
        """Choose the initial plan exactly like :class:`StaticPolicy`.

        Starting from the same decision keeps adaptive-vs-static
        comparisons fair: everything the adaptive policy gains, it gains
        from runtime feedback, not from a different prior.
        """
        result = optimizer.choose_plan(anticipated_interactions, episode_weights)
        self._optimizer = optimizer
        self._plans = list(result.candidate_plans)
        self._current_index = next(
            (i for i, plan in enumerate(self._plans) if plan.plan_id == result.plan.plan_id),
            0,
        )
        self._estimated_vectors = list(result.vectors)
        self._cost_scale = None
        self._divergent_streak = 0
        self._episodes_since_replan = 0
        self._signal_state = {}
        self._recent_interactions.clear()
        return result

    def observe(
        self,
        vector: PlanVector | None,
        latency_seconds: float,
        signal_updates: Mapping[str, object] | None = None,
    ) -> ExecutionPlan | None:
        """Check the episode's latency against the calibrated prediction."""
        if self._optimizer is None:
            raise OptimizationError("AdaptivePolicy.observe called before begin()")
        self.episodes_observed += 1
        self._episodes_since_replan += 1
        if signal_updates:
            self._signal_state.update(signal_updates)
            self._recent_interactions.append(dict(signal_updates))
        observed = float(latency_seconds)
        proxy = self._current_cost_proxy()

        if self._cost_scale is None:
            # First meaningful episode seeds the calibration; nothing to
            # compare yet.  Sub-floor episodes (cache hits) don't seed —
            # a near-zero scale would make everything later look drifted.
            if observed >= self.min_divergence_seconds:
                self._cost_scale = observed / proxy
            self.last_observed_seconds = observed
            self.last_predicted_seconds = observed
            return None

        predicted = self._cost_scale * proxy
        self.last_observed_seconds = observed
        self.last_predicted_seconds = predicted
        if observed < self.min_divergence_seconds:
            # Sub-floor episodes (cache hits, trivial updates) say nothing
            # about the plan's real cost: they neither count as divergent
            # nor update the calibration — otherwise a run of hits would
            # drag predictions toward zero and make the next ordinary
            # miss look like drift.
            self._divergent_streak = 0
            return None
        divergent = observed > (1.0 + self.regret_threshold) * predicted
        if not divergent:
            self._divergent_streak = 0
            self._cost_scale = (
                self.calibration_alpha * (observed / proxy)
                + (1.0 - self.calibration_alpha) * self._cost_scale
            )
            return None

        self._divergent_streak += 1
        if self._divergent_streak < self.patience:
            return None
        if self._episodes_since_replan <= self.cooldown:
            return None
        if self.max_replans is not None and len(self.replan_events) >= self.max_replans:
            return None
        return self._replan(observed, predicted)

    # ------------------------------------------------------------------ #
    def _current_cost_proxy(self) -> float:
        """Scalar cost proxy of the current plan's *estimated* vector.

        Uses the comparator's cost function when it has one; otherwise the
        estimated total cardinality (the dominant latency driver — it
        proxies result size and network transfer).  The proxy is only ever
        used through the calibrated seconds-per-cost scale, so its unit is
        irrelevant as long as it is consistent.
        """
        if len(self._plans) <= 1 or not self._estimated_vectors:
            return 1.0
        current = self._estimated_vectors[self._current_index]
        cost = self._optimizer.comparator.cost(current) if self._optimizer else None
        if cost is not None and cost > 0:
            return float(cost)
        return float(current.total_cardinality) + 1.0

    def _replan(self, observed: float, predicted: float) -> ExecutionPlan | None:
        """Re-cost every candidate over the recent past and re-decide.

        Receding-horizon decision: the near future is assumed to look
        like the last ``replan_window`` interactions, so each candidate
        is re-encoded — under the session's *current* signal values and
        any cardinality feedback recorded so far — once per recent
        interaction, and those episodes are folded through an
        :class:`IncrementalConsolidator` scaled up to ``horizon`` future
        interactions.  Switching additionally charges the candidate its
        full re-render (episode 0); the incumbent plan pays nothing to
        stay.  This is where the loop closes: corrected estimates →
        corrected vectors → corrected decision.
        """
        assert self._optimizer is not None
        if len(self._plans) <= 1:
            return None
        recent = list(self._recent_interactions)
        episodes = self._optimizer.encode_candidates(
            self._plans, recent, signal_values=self._signal_state
        )
        consolidator = IncrementalConsolidator(
            self._optimizer.comparator, len(self._plans)
        )
        interaction_weight = self.horizon / max(len(recent), 1)
        if len(episodes) > 1:
            for episode in episodes[1:]:
                consolidator.add_episode(episode, weight=interaction_weight)
        else:  # no interactions recorded yet — fall back to full vectors
            consolidator.add_episode(episodes[0])
        decision = consolidator.decision()

        if decision.score_kind == "cost" and self.switch_cost_weight > 0:
            # Charge the one-off switch cost (a full re-render) to every
            # candidate except the incumbent, then take the minimum.
            scores = np.array(decision.per_plan_score, dtype=np.float64)
            render_costs = self._optimizer.comparator.costs(episodes[0])
            if render_costs is not None:
                switching = np.arange(len(scores)) != self._current_index
                scores[switching] += self.switch_cost_weight * render_costs[switching]
            new_index = int(np.argmin(scores))
        else:
            new_index = decision.best_plan_index

        event = ReplanEvent(
            episode=self.episodes_observed,
            from_plan_id=self._plans[self._current_index].plan_id,
            to_plan_id=self._plans[new_index].plan_id,
            observed_seconds=observed,
            predicted_seconds=predicted,
        )
        self.replan_events.append(event)
        self._divergent_streak = 0
        self._episodes_since_replan = 0
        # Track the freshly estimated per-interaction vectors (the regret
        # check compares observed interaction latencies against them) and
        # re-seed the calibration: the old scale belongs to the old regime.
        self._estimated_vectors = list(episodes[-1])
        self._cost_scale = None
        if new_index == self._current_index:
            return None
        self._current_index = new_index
        return self._plans[new_index]

    # ------------------------------------------------------------------ #
    @property
    def replans(self) -> int:
        """Replans that actually switched the plan."""
        return sum(1 for event in self.replan_events if event.switched)

    def counters(self) -> dict[str, object]:
        return {
            "policy": self.name,
            "episodes_observed": self.episodes_observed,
            "replans": self.replans,
            "replan_attempts": len(self.replan_events),
            "regret_threshold": self.regret_threshold,
            "last_observed_seconds": self.last_observed_seconds,
            "last_predicted_seconds": self.last_predicted_seconds,
            "arms": self.arms.counters(),
        }


# --------------------------------------------------------------------------- #
# Execution-arm selection (IVM vs re-scan vs offload)
# --------------------------------------------------------------------------- #

#: The execution arms a query shape can be routed to: answer from an
#: incrementally maintained view, re-scan locally, or offload to the
#: server-side backend (the source paper's offload-vs-local decision).
EXECUTION_ARMS = ("ivm", "rescan", "offload")


class ArmSelector:
    """Learned per-query-shape routing between execution arms.

    The IVM subsystem gives the runtime a genuinely new plan dimension:
    for every *query shape* (view key), answering from the maintained
    view competes with a full re-scan (and, at the serving tier, with
    offloading).  The selector keeps an EWMA of observed latency per
    ``(shape, arm)`` and greedily routes each shape to its fastest arm,
    after pulling every offered arm once; every ``probe_interval``-th
    decision re-probes the least-pulled arm so a drifting workload
    (table growth, brush pattern change) can flip the choice back.

    Deterministic by construction (no randomness) and thread-safe: the
    serving tier consults one selector from many sessions.  Instances
    plug directly into :attr:`repro.sql.ivm.IVMManager.arm_selector`.
    """

    def __init__(self, alpha: float = 0.3, probe_interval: int = 50) -> None:
        if not 0.0 < alpha <= 1.0:
            raise OptimizationError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.probe_interval = probe_interval
        self._ewma: dict[tuple[str, str], float] = {}
        self._pulls: dict[tuple[str, str], int] = {}
        self._decisions: dict[str, int] = {}
        self._lock = threading.RLock()

    def choose(self, shape: str, arms: Sequence[str]) -> str:
        """Pick the arm to run ``shape`` on this time."""
        with self._lock:
            count = self._decisions.get(shape, 0) + 1
            self._decisions[shape] = count
            for arm in arms:
                if self._pulls.get((shape, arm), 0) == 0:
                    return arm
            if self.probe_interval and count % self.probe_interval == 0:
                return min(arms, key=lambda arm: self._pulls[(shape, arm)])
            return min(arms, key=lambda arm: self._ewma[(shape, arm)])

    def record(self, shape: str, arm: str, seconds: float) -> None:
        """Fold one observed latency into the ``(shape, arm)`` estimate."""
        with self._lock:
            key = (shape, arm)
            self._pulls[key] = self._pulls.get(key, 0) + 1
            previous = self._ewma.get(key)
            if previous is None:
                self._ewma[key] = float(seconds)
            else:
                self._ewma[key] = (
                    1.0 - self.alpha
                ) * previous + self.alpha * float(seconds)

    def preferred(self, shape: str) -> str | None:
        """The currently fastest observed arm for ``shape`` (or ``None``)."""
        with self._lock:
            known = [
                (ewma, arm)
                for (s, arm), ewma in self._ewma.items()
                if s == shape
            ]
            return min(known)[1] if known else None

    def counters(self) -> dict[str, object]:
        """Observability snapshot for ``VegaPlusSystem.stats()``."""
        with self._lock:
            pulls_by_arm: dict[str, int] = {}
            for (_, arm), pulls in self._pulls.items():
                pulls_by_arm[arm] = pulls_by_arm.get(arm, 0) + pulls
            return {
                "shapes": len(self._decisions),
                "decisions": sum(self._decisions.values()),
                "pulls": pulls_by_arm,
            }
