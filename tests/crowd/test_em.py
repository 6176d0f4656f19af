"""Tests for batch EM and the online EM (Algorithm 1)."""

import random

import pytest

from repro.crowd import (
    TRAFFIC_LABELS,
    AnswerSet,
    BatchEM,
    DisagreementTask,
    OnlineEM,
    Participant,
    answer_likelihood,
    harmonic_gamma,
    paper_printed_gamma,
    posterior_over_labels,
    simulate_answers,
)

TRUE_PS = {
    f"P{i+1}": p
    for i, p in enumerate(
        [0.05, 0.15, 0.2, 0.25, 0.25, 0.38, 0.4, 0.5, 0.75, 0.9]
    )
}


def _simulate(n_events, seed=0, participants=None):
    rng = random.Random(seed)
    participants = participants or [
        Participant(pid, p) for pid, p in TRUE_PS.items()
    ]
    answer_sets = []
    for t in range(1, n_events + 1):
        task = DisagreementTask(t, true_label=rng.choice(TRAFFIC_LABELS))
        answer_sets.append(simulate_answers(task, participants, rng))
    return answer_sets


class TestLikelihood:
    def test_truthful_probability(self):
        assert answer_likelihood("a", "a", 0.2, 4) == pytest.approx(0.8)

    def test_wrong_probability_split_uniformly(self):
        assert answer_likelihood("b", "a", 0.3, 4) == pytest.approx(0.1)

    def test_posterior_prefers_consensus(self):
        task = DisagreementTask(1)
        answers = AnswerSet(task)
        for i in range(4):
            answers.add(f"p{i}", "congestion")
        posterior = posterior_over_labels(answers, {}, default_error=0.2)
        assert posterior["congestion"] > 0.99

    def test_posterior_weighs_reliability(self):
        task = DisagreementTask(1)
        answers = AnswerSet(task)
        answers.add("good", "congestion")
        answers.add("bad", "free_flow")
        posterior = posterior_over_labels(
            answers, {"good": 0.05, "bad": 0.45}
        )
        assert posterior["congestion"] > posterior["free_flow"]

    def test_posterior_respects_prior(self):
        task = DisagreementTask(
            1,
            prior={
                "congestion": 0.97,
                "free_flow": 0.01,
                "accident": 0.01,
                "roadworks": 0.01,
            },
        )
        answers = AnswerSet(task)
        answers.add("p", "free_flow")
        posterior = posterior_over_labels(answers, {"p": 0.4})
        # A single noisy dissent cannot overturn a strong prior.
        assert posterior["congestion"] > posterior["free_flow"]

    def test_posterior_is_distribution(self):
        answer_sets = _simulate(5)
        for answers in answer_sets:
            posterior = posterior_over_labels(answers, {})
            assert sum(posterior.values()) == pytest.approx(1.0)
            assert all(v >= 0 for v in posterior.values())


class TestBatchEM:
    def test_requires_data(self):
        with pytest.raises(ValueError):
            BatchEM().fit([])

    def test_recovers_error_rates(self):
        result = BatchEM().fit(_simulate(400, seed=3))
        for pid, true_p in TRUE_PS.items():
            assert result.error_probabilities[pid] == pytest.approx(
                true_p, abs=0.08
            ), pid

    def test_converges(self):
        result = BatchEM().fit(_simulate(100, seed=1))
        assert result.converged
        assert result.iterations < 200

    def test_posteriors_match_events(self):
        sets = _simulate(50, seed=2)
        result = BatchEM().fit(sets)
        assert len(result.posteriors) == 50

    def test_log_likelihood_improves_over_initial(self):
        sets = _simulate(80, seed=4)
        em = BatchEM()
        initial = {pid: 0.25 for pid in TRUE_PS}
        ll_initial = em._log_likelihood(sets, initial)
        result = em.fit(sets)
        assert result.log_likelihood >= ll_initial

    def test_estimates_clamped(self):
        # A participant who always answers with the consensus could be
        # driven to exactly 0; the clamp keeps likelihoods finite.
        sets = _simulate(50, seed=5)
        result = BatchEM().fit(sets)
        for p in result.error_probabilities.values():
            assert 0.0 < p < 1.0


class TestOnlineEM:
    def test_recovers_error_rates(self):
        em = OnlineEM()
        for answers in _simulate(1000, seed=42):
            em.process(answers)
        for pid, true_p in TRUE_PS.items():
            assert em.estimate(pid) == pytest.approx(true_p, abs=0.08), pid

    def test_ranking_roughly_correct_after_100_calls(self):
        # The paper: "After processing approximately 100 calls, the
        # ordering of the participant by quality is more or less
        # correct, except for participants whose error probabilities
        # are close."
        em = OnlineEM()
        for answers in _simulate(100, seed=42):
            em.process(answers)
        ranking = em.reliability_ranking()
        # Check coarse ordering: best three before worst three.
        best = {"P1", "P2", "P3"}
        worst = {"P8", "P9", "P10"}
        assert max(ranking.index(p) for p in best) < min(
            ranking.index(p) for p in worst
        )

    def test_peaked_fraction_matches_paper(self):
        # Section 7.2: ~94% of posteriors have max prob > 0.99.
        em = OnlineEM()
        for answers in _simulate(1000, seed=42):
            em.process(answers)
        assert 0.85 <= em.peaked_fraction <= 0.99

    def test_unknown_participant_uses_initial_estimate(self):
        em = OnlineEM(initial_error=0.25)
        assert em.estimate("nobody") == 0.25

    def test_value_positive_on_congestion(self):
        em = OnlineEM()
        task = DisagreementTask(1)
        answers = AnswerSet(task)
        for i in range(4):
            answers.add(f"p{i}", "congestion")
        estimate = em.process(answers)
        assert estimate.value == "positive"
        assert estimate.decided_label == "congestion"

    def test_value_negative_otherwise(self):
        em = OnlineEM()
        task = DisagreementTask(1)
        answers = AnswerSet(task)
        for i in range(4):
            answers.add(f"p{i}", "roadworks")
        estimate = em.process(answers)
        assert estimate.value == "negative"

    def test_per_participant_step_counts(self):
        # Participants answering different numbers of events get
        # different t_i counters.
        em = OnlineEM()
        task = DisagreementTask(1)
        a1 = AnswerSet(task)
        a1.add("often", "congestion")
        a1.add("rare", "congestion")
        em.process(a1)
        task2 = DisagreementTask(2)
        a2 = AnswerSet(task2)
        a2.add("often", "congestion")
        em.process(a2)
        assert em.query_counts["often"] == 3
        assert em.query_counts["rare"] == 2

    def test_event_independence_state_is_small(self):
        # Online EM forgets events: state is only (p_i, t_i) pairs.
        em = OnlineEM()
        for answers in _simulate(50, seed=9):
            em.process(answers)
        assert set(em.error_probabilities) == set(TRUE_PS)
        assert set(em.query_counts) == set(TRUE_PS)


class TestGammaSchedules:
    def test_harmonic_satisfies_robbins_monro_shape(self):
        # Decreasing, sums diverge slowly, squares converge.
        values = [harmonic_gamma(t) for t in range(1, 100)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert sum(v * v for v in values) < 2.0

    def test_paper_printed_gamma_tends_to_one(self):
        assert paper_printed_gamma(1000) > 0.999

    def test_printed_gamma_does_not_converge(self):
        # Ablation: the literally-printed schedule keeps chasing the
        # last posterior, so its estimates fluctuate far more.
        def final_estimates(gamma):
            em = OnlineEM(gamma=gamma)
            for answers in _simulate(600, seed=11):
                em.process(answers)
            return em

        stable = final_estimates(harmonic_gamma)
        unstable = final_estimates(paper_printed_gamma)
        err_stable = sum(
            abs(stable.estimate(pid) - p) for pid, p in TRUE_PS.items()
        )
        err_unstable = sum(
            abs(unstable.estimate(pid) - p) for pid, p in TRUE_PS.items()
        )
        assert err_stable < err_unstable


class TestPosteriorProperties:
    """Probabilistic invariants of the answer-fusion model."""

    def test_uninformative_participant_changes_nothing(self):
        # With 4 labels, a participant with p = 3/4 assigns likelihood
        # 1/4 to every label — adding their answer must not move the
        # posterior (eq. 7 makes them pure noise).
        task = DisagreementTask(1)
        base = AnswerSet(task)
        base.add("good", "congestion")
        with_noise = AnswerSet(task)
        with_noise.add("good", "congestion")
        with_noise.add("noise", "accident")
        theta = {"good": 0.1, "noise": 0.75}
        a = posterior_over_labels(base, theta)
        b = posterior_over_labels(with_noise, theta)
        for label in task.labels:
            assert a[label] == pytest.approx(b[label])

    def test_posterior_invariant_to_answer_order(self):
        task = DisagreementTask(1)
        forward = AnswerSet(task)
        backward = AnswerSet(task)
        answers = [("a", "congestion"), ("b", "accident"), ("c", "congestion")]
        for pid, label in answers:
            forward.add(pid, label)
        for pid, label in reversed(answers):
            backward.add(pid, label)
        theta = {"a": 0.1, "b": 0.3, "c": 0.2}
        assert posterior_over_labels(forward, theta) == pytest.approx(
            posterior_over_labels(backward, theta)
        )

    def test_adversarial_answer_is_negative_evidence(self):
        # An answer from a participant with p > (n-1)/n is evidence
        # AGAINST the answered label.
        task = DisagreementTask(1)
        answers = AnswerSet(task)
        answers.add("liar", "congestion")
        posterior = posterior_over_labels(answers, {"liar": 0.95})
        assert posterior["congestion"] < 0.25  # below the uniform prior

    def test_more_confirmations_more_confidence(self):
        task = DisagreementTask(1)
        theta = {f"p{i}": 0.2 for i in range(5)}
        previous = 0.0
        for n in range(1, 6):
            answers = AnswerSet(task)
            for i in range(n):
                answers.add(f"p{i}", "congestion")
            posterior = posterior_over_labels(answers, theta)
            assert posterior["congestion"] > previous
            previous = posterior["congestion"]
