"""Online Expectation-Maximization — the paper's Algorithm 1.

The batch EM of :mod:`repro.crowd.em` rescans the full data set, which
"is not acceptable for our large, streaming problem" (Section 5.2).
The online variant (after Cappé & Moulines) processes one source
disagreement at a time, updates each answering participant's error-rate
estimate with a stochastic-approximation step, and then forgets both
the event and the answers.

Per-participant step sizes: because not every participant answers every
event, the update for participant ``i`` uses ``γ_{t_i}`` where ``t_i``
counts how many times that participant has been queried so far.

Step-size sequence
------------------
The paper prints ``γ_t = t/(t+1)``, but also requires
``Σ γ_t = ∞`` and ``Σ γ_t² < ∞`` — conditions ``t/(t+1)`` violates
(it converges to 1, so the estimate would forever chase the last
answer and never converge, contradicting the reported Figure 5).  We
default to the standard Robbins-Monro choice ``γ_t = 1/(t+1)``, which
satisfies both conditions and reproduces Figure 5; the sequence is
injectable so the literal printed variant can be compared (see the A2
ablation bench and DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .em import posterior_over_labels
from .model import AnswerSet, CONGESTION_LABEL

GammaSchedule = Callable[[int], float]


def harmonic_gamma(t: int) -> float:
    """``γ_t = 1/(t+1)`` — the convergent default (running average)."""
    return 1.0 / (t + 1)


def paper_printed_gamma(t: int) -> float:
    """``γ_t = t/(t+1)`` — as literally printed in the paper.

    Kept for the ablation study: this sequence approaches 1, so the
    estimate tracks the most recent posterior instead of converging.
    """
    return t / (t + 1.0)


@dataclass
class CrowdEstimate:
    """The outcome of processing one disagreement event.

    Attributes
    ----------
    posterior:
        ``α̂(x) = P(X_t = x | A_t, Θ)`` over the task's labels.
    decided_label:
        ``argmax_x α̂(x)``.
    value:
        The paper's line 9: ``positive`` when the congestion label wins,
        ``negative`` otherwise.
    peaked:
        Whether the posterior is "very peaked" (max prob > 0.99), the
        statistic reported in Section 7.2 (94% of events).
    """

    posterior: dict[str, float]
    decided_label: str
    value: str
    peaked: bool


@dataclass
class OnlineEM:
    """Streaming reliability estimation (Algorithm 1).

    Parameters
    ----------
    initial_error:
        Initial estimate ``p_i`` for a newly seen participant.  The
        paper initialises to 0.25 to bias towards trustful participants
        (an unbiased 0.75 start would never update under uniform
        priors).
    gamma:
        The stochastic-approximation step-size schedule ``γ_t``.
    peak_threshold:
        Posterior mass that counts as a "very peaked" distribution.
    congestion_label:
        The label whose victory produces a ``positive`` crowd value.
    """

    initial_error: float = 0.25
    gamma: GammaSchedule = harmonic_gamma
    peak_threshold: float = 0.99
    congestion_label: str = CONGESTION_LABEL
    #: Current error-rate estimates ``p_i``.
    error_probabilities: dict[str, float] = field(default_factory=dict)
    #: Query counts ``t_i`` per participant.
    query_counts: dict[str, int] = field(default_factory=dict)
    #: Running count of processed events with a peaked posterior.
    peaked_events: int = 0
    #: Total processed events.
    total_events: int = 0

    def estimate(self, participant_id: str) -> float:
        """Current ``p_i`` estimate (initial value if never queried)."""
        return self.error_probabilities.get(participant_id, self.initial_error)

    # -- durability ----------------------------------------------------
    # The estimator is also pickled wholesale inside pipeline
    # checkpoints (``repro.recovery``); these JSON-able dicts are the
    # *explicit* contract for what must survive a restart: the ``p_i``
    # estimates, the per-participant step counts ``t_i`` that drive the
    # γ schedule, and the peaked-posterior statistics.  The schedule
    # itself is configuration, not state.
    def process(self, answer_set: AnswerSet) -> CrowdEstimate:
        """Process one disagreement event (one loop body of Algorithm 1).

        Lines 3–8: compute the posterior ``α̂`` given the current
        parameters.  Line 9–10: derive the crowd value.  Lines 11–14:
        stochastic-approximation update of every answering participant's
        error estimate; the event and answers can then be forgotten.
        """
        posterior = posterior_over_labels(
            answer_set,
            self.error_probabilities,
            default_error=self.initial_error,
        )

        # Parameter update: the posterior probability that participant
        # i's answer was wrong is 1 - α̂(y_i,t).
        for participant_id, answer in answer_set.answers.items():
            t_i = self.query_counts.get(participant_id, 1)
            step = self.gamma(t_i)
            current = self.estimate(participant_id)
            wrong = 1.0 - posterior[answer]
            self.error_probabilities[participant_id] = (
                (1.0 - step) * current + step * wrong
            )
            self.query_counts[participant_id] = t_i + 1

        decided = max(posterior, key=posterior.get)  # type: ignore[arg-type]
        peaked = posterior[decided] > self.peak_threshold
        self.total_events += 1
        if peaked:
            self.peaked_events += 1
        return CrowdEstimate(
            posterior=posterior,
            decided_label=decided,
            value="positive" if decided == self.congestion_label else "negative",
            peaked=peaked,
        )

    @property
    def peaked_fraction(self) -> float:
        """Fraction of processed events with a peaked posterior
        (Section 7.2 reports ~94%)."""
        if self.total_events == 0:
            return 0.0
        return self.peaked_events / self.total_events

    def reliability_ranking(self) -> list[str]:
        """Participants ordered most reliable first (smallest ``p_i``).

        Used both for worker selection and for reward computation (the
        paper notes a participant's quality "may be a factor in the
        computation of the reward").
        """
        return sorted(self.error_probabilities, key=self.estimate)
