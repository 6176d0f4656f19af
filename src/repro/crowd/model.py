"""The crowdsourced answer model of Section 5.1.

A source-disagreement event is an unobserved categorical variable
``X_t`` with true value ``x_t ∈ Val(X_t)``.  Each participant ``i`` has
a constant but unknown probability ``p_i`` of answering with a wrong
label; when wrong, the participant picks one of the remaining labels
uniformly at random (the paper's equations (6)–(7))::

    P(Y_i,t = x_t | X_t = x_t) = 1 - p_i
    P(Y_i,t = x   | X_t = x_t) = p_i / (|Val(X_t)| - 1)   for x ≠ x_t

Events are independent of one another, and answers are independent
across participants and events.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

#: The label set used throughout the traffic deployment: the paper's
#: Fig. 5 experiment uses 4 possible answers; the first one is the
#: congestion label that the ``crowd`` CE cares about.
TRAFFIC_LABELS: tuple[str, ...] = (
    "congestion",
    "free_flow",
    "accident",
    "roadworks",
)
#: The label whose posterior decides the ``crowd(..., positive)`` event.
CONGESTION_LABEL = TRAFFIC_LABELS[0]


def uniform_prior(labels: Sequence[str]) -> dict[str, float]:
    """The uniform prior distribution over ``labels``."""
    if not labels:
        raise ValueError("label set must be non-empty")
    p = 1.0 / len(labels)
    return {label: p for label in labels}


def validate_distribution(
    prior: Mapping[str, float], labels: Sequence[str]
) -> dict[str, float]:
    """Check that ``prior`` is a distribution over exactly ``labels``."""
    if set(prior) != set(labels):
        raise ValueError(
            f"prior labels {sorted(prior)} do not match event labels "
            f"{sorted(labels)}"
        )
    total = sum(prior.values())
    if any(v < 0 for v in prior.values()) or abs(total - 1.0) > 1e-9:
        raise ValueError("prior must be a probability distribution")
    return dict(prior)


@dataclass(frozen=True)
class DisagreementTask:
    """One source-disagreement event ``X_t`` to be crowdsourced.

    Parameters
    ----------
    task_id:
        Index ``t`` of the variable.
    labels:
        ``Val(X_t)`` — all possible answers presented to participants.
    prior:
        ``P(X_t)``; provided by the CE processing component (e.g. from
        the fraction of buses reporting congestion) or uniform.
    lon, lat:
        Location of the disagreement (used for participant selection).
    time:
        Occurrence time of the disagreement.
    true_label:
        Ground truth; known only to simulations, never to estimators.
    """

    task_id: int
    labels: tuple[str, ...] = TRAFFIC_LABELS
    prior: Mapping[str, float] = None  # type: ignore[assignment]
    lon: float = 0.0
    lat: float = 0.0
    time: int = 0
    true_label: Optional[str] = None

    def __post_init__(self) -> None:
        if len(set(self.labels)) < 2:
            raise ValueError("an event needs at least two distinct labels")
        prior = (
            uniform_prior(self.labels)
            if self.prior is None
            else validate_distribution(self.prior, self.labels)
        )
        object.__setattr__(self, "prior", prior)
        if self.true_label is not None and self.true_label not in self.labels:
            raise ValueError(
                f"true label {self.true_label!r} not in {self.labels}"
            )


@dataclass
class Participant:
    """A crowd participant with error probability ``p`` (eqs. 6–7).

    ``lon``/``lat`` are the participant's current position (for the
    location-based selection policy) and ``connection`` the network the
    device is on (for the latency model).
    """

    participant_id: str
    error_probability: float
    lon: float = 0.0
    lat: float = 0.0
    connection: str = "3g"
    #: Mean seconds the participant takes to answer a map task (the
    #: human think time the paper excludes from Figure 6).
    think_time_s: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_probability <= 1.0:
            raise ValueError("error probability must be within [0, 1]")

    def answer(self, task: DisagreementTask, rng: random.Random) -> str:
        """Draw an answer ``y_i,t`` for ``task`` per eqs. (6)–(7).

        The task must carry a ``true_label`` (this is the simulated
        participant; real deployments get answers from people).
        """
        if task.true_label is None:
            raise ValueError("cannot simulate an answer without ground truth")
        if rng.random() >= self.error_probability:
            return task.true_label
        wrong = [lb for lb in task.labels if lb != task.true_label]
        return rng.choice(wrong)


@dataclass
class AnswerSet:
    """The observed answers ``{Y_i,t}_{i ∈ u_t}`` for one task."""

    task: DisagreementTask
    answers: dict[str, str] = field(default_factory=dict)

    def add(self, participant_id: str, label: str) -> None:
        """Record one participant's answer."""
        if label not in self.task.labels:
            raise ValueError(
                f"answer {label!r} not among the task's labels"
            )
        self.answers[participant_id] = label

    def __bool__(self) -> bool:
        return bool(self.answers)


def simulate_answers(
    task: DisagreementTask,
    participants: Sequence[Participant],
    rng: random.Random,
) -> AnswerSet:
    """Simulate every participant answering ``task``."""
    answer_set = AnswerSet(task)
    for participant in participants:
        answer_set.add(
            participant.participant_id, participant.answer(task, rng)
        )
    return answer_set
