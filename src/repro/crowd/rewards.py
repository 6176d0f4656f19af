"""Participant rewards from estimated quality.

Section 7.2: "Correctly estimating the quality of participants leads
to a better assessment of the sensor disagreement, but it is also
important for rewarding a participant.  Indeed, a participant's
quality may be a factor in the computation of the reward he receives
for his contribution."  This module implements that reward scheme:
per-answer base pay plus a quality bonus driven by the online EM's
error-rate estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .online_em import OnlineEM


@dataclass(frozen=True)
class RewardPolicy:
    """Linear pay-per-answer with a quality multiplier.

    ``reward(i) = answers_i · base · (1 + bonus · quality_i)`` where
    ``quality_i = max(0, 1 - p̂_i / quality_cutoff)`` — participants
    estimated at or beyond ``quality_cutoff`` error rate earn no bonus
    (a uniformly-guessing participant provides no information).
    """

    base_per_answer: float = 0.05
    quality_bonus: float = 1.0
    quality_cutoff: float = 0.75

    def __post_init__(self) -> None:
        if self.base_per_answer < 0:
            raise ValueError("base pay must be non-negative")
        if self.quality_bonus < 0:
            raise ValueError("quality bonus must be non-negative")
        if not 0.0 < self.quality_cutoff <= 1.0:
            raise ValueError("quality cutoff must be within (0, 1]")

    def quality(self, error_probability: float) -> float:
        """Quality score in [0, 1] from an error-rate estimate."""
        return max(0.0, 1.0 - error_probability / self.quality_cutoff)

    def reward(self, answers: int, error_probability: float) -> float:
        """Reward for one participant."""
        if answers < 0:
            raise ValueError("answer count must be non-negative")
        multiplier = 1.0 + self.quality_bonus * self.quality(
            error_probability
        )
        return answers * self.base_per_answer * multiplier


@dataclass
class RewardLedger:
    """Accumulates per-participant answer counts and settles rewards."""

    policy: RewardPolicy = field(default_factory=RewardPolicy)
    answer_counts: dict[str, int] = field(default_factory=dict)

    def record_answers(self, participant_ids) -> None:
        """Credit one answered query to each participant."""
        for pid in participant_ids:
            self.answer_counts[pid] = self.answer_counts.get(pid, 0) + 1

    def settle(self, estimator: OnlineEM) -> dict[str, float]:
        """Compute every participant's reward from current estimates."""
        return {
            pid: self.policy.reward(count, estimator.estimate(pid))
            for pid, count in self.answer_counts.items()
        }
