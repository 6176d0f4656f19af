"""Tests for the crowd participant/answer model (eqs. 6-7)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd import (
    TRAFFIC_LABELS,
    AnswerSet,
    DisagreementTask,
    Participant,
    simulate_answers,
    uniform_prior,
    validate_distribution,
)


class TestPriors:
    def test_uniform_prior(self):
        prior = uniform_prior(("a", "b", "c", "d"))
        assert prior == {k: 0.25 for k in "abcd"}

    def test_uniform_prior_empty(self):
        with pytest.raises(ValueError):
            uniform_prior(())

    def test_validate_accepts_distribution(self):
        d = {"a": 0.7, "b": 0.3}
        assert validate_distribution(d, ("a", "b")) == d

    def test_validate_rejects_wrong_labels(self):
        with pytest.raises(ValueError, match="labels"):
            validate_distribution({"a": 1.0}, ("a", "b"))

    def test_validate_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="probability"):
            validate_distribution({"a": 0.7, "b": 0.7}, ("a", "b"))
        with pytest.raises(ValueError, match="probability"):
            validate_distribution({"a": -0.5, "b": 1.5}, ("a", "b"))


class TestDisagreementTask:
    def test_defaults(self):
        task = DisagreementTask(1)
        assert task.labels == TRAFFIC_LABELS
        assert task.prior == uniform_prior(TRAFFIC_LABELS)

    def test_custom_prior_validated(self):
        with pytest.raises(ValueError):
            DisagreementTask(1, labels=("a", "b"), prior={"a": 2.0, "b": -1.0})

    def test_needs_two_labels(self):
        with pytest.raises(ValueError, match="two"):
            DisagreementTask(1, labels=("only",))

    def test_true_label_must_be_known(self):
        with pytest.raises(ValueError, match="true label"):
            DisagreementTask(1, true_label="nonsense")


class TestParticipant:
    def test_error_probability_bounds(self):
        with pytest.raises(ValueError):
            Participant("p", -0.1)
        with pytest.raises(ValueError):
            Participant("p", 1.1)

    def test_perfect_participant_always_truthful(self):
        p = Participant("p", 0.0)
        task = DisagreementTask(1, true_label="congestion")
        rng = random.Random(0)
        assert all(p.answer(task, rng) == "congestion" for _ in range(50))

    def test_adversarial_participant_never_truthful(self):
        p = Participant("p", 1.0)
        task = DisagreementTask(1, true_label="congestion")
        rng = random.Random(0)
        assert all(p.answer(task, rng) != "congestion" for _ in range(50))

    def test_answer_requires_ground_truth(self):
        p = Participant("p", 0.1)
        with pytest.raises(ValueError, match="ground truth"):
            p.answer(DisagreementTask(1), random.Random(0))

    def test_error_rate_statistics(self):
        # Empirical error frequency approaches p_i (eq. 6).
        p = Participant("p", 0.4)
        task = DisagreementTask(1, true_label="congestion")
        rng = random.Random(7)
        wrong = sum(
            p.answer(task, rng) != "congestion" for _ in range(4000)
        )
        assert wrong / 4000 == pytest.approx(0.4, abs=0.03)

    def test_wrong_answers_uniform_over_alternatives(self):
        # Eq. (7): wrong answers spread uniformly over the other labels.
        p = Participant("p", 1.0)
        task = DisagreementTask(1, true_label="congestion")
        rng = random.Random(7)
        counts = Counter(p.answer(task, rng) for _ in range(6000))
        for label in TRAFFIC_LABELS[1:]:
            assert counts[label] / 6000 == pytest.approx(1 / 3, abs=0.04)


class TestAnswerSet:
    def test_add_and_len(self):
        task = DisagreementTask(1)
        answers = AnswerSet(task)
        assert not answers
        answers.add("p1", "congestion")
        assert len(answers.answers) == 1
        assert answers.answers["p1"] == "congestion"

    def test_rejects_unknown_label(self):
        answers = AnswerSet(DisagreementTask(1))
        with pytest.raises(ValueError, match="labels"):
            answers.add("p1", "weather")

    def test_simulate_answers_covers_everyone(self):
        task = DisagreementTask(1, true_label="congestion")
        participants = [Participant(f"p{i}", 0.2) for i in range(5)]
        answers = simulate_answers(task, participants, random.Random(0))
        assert set(answers.answers) == {f"p{i}" for i in range(5)}


@given(st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_answers_always_valid_labels(error_probability, seed):
    p = Participant("p", error_probability)
    task = DisagreementTask(1, true_label="free_flow")
    rng = random.Random(seed)
    for _ in range(20):
        assert p.answer(task, rng) in TRAFFIC_LABELS
