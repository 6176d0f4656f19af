"""Tests for runtime supervision: policies, dead letters, breakers."""

import time

import pytest

from repro.obs import Registry
from repro.streams import (
    CircuitBreaker,
    DeadLetterQueue,
    ErrorPolicy,
    Process,
    ProcessorTimeout,
    Source,
    StreamRuntime,
    Supervisor,
    Tap,
    Topology,
    Transform,
)

from .helpers import Collect, make_item


def _items(values, period=10):
    return [
        make_item({"v": v}, time=i * period) for i, v in enumerate(values)
    ]


def _poison(item):
    if item["v"] < 0:
        raise ValueError(f"poisoned item {item['v']}")
    return item


def _topology(values, *, policy=None, extra=()):
    topo = Topology()
    topo.add_source(Source("s", _items(values)))
    sink = Collect()
    topo.add_process(
        Process(
            "p", input="s",
            processors=[Transform(_poison), *extra, sink],
            policy=policy,
        )
    )
    return topo, sink


class TestErrorPolicy:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ErrorPolicy(mode="explode")

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            ErrorPolicy(mode="retry", max_retries=-1)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError, match="timeout_s"):
            ErrorPolicy(timeout_s=0)

    def test_backoff_doubles_then_caps(self):
        policy = ErrorPolicy(
            mode="retry", backoff_base_s=0.1, backoff_cap_s=0.35
        )
        assert [policy.backoff_s(k) for k in (1, 2, 3, 4)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.35),
            pytest.approx(0.35),
        ]


class TestCircuitBreakerUnit:
    def test_opens_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(threshold=3, reset_after_s=100)
        breaker.record_failure(0)
        breaker.record_failure(1)
        breaker.record_success(2)  # resets the streak
        breaker.record_failure(3)
        breaker.record_failure(4)
        assert not breaker.is_open
        breaker.record_failure(5)
        assert breaker.is_open
        assert breaker.open_intervals == [(5, None)]

    def test_open_rejects_until_cooldown(self):
        breaker = CircuitBreaker(threshold=1, reset_after_s=100)
        breaker.record_failure(10)
        assert not breaker.allow(50)
        assert breaker.allow(110)  # half-open trial
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_trial_success_closes_and_ends_interval(self):
        breaker = CircuitBreaker(threshold=1, reset_after_s=100)
        breaker.record_failure(10)
        assert breaker.allow(110)
        breaker.record_success(110)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.open_intervals == [(10, 110)]

    def test_trial_failure_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(threshold=1, reset_after_s=100)
        breaker.record_failure(10)
        assert breaker.allow(110)
        breaker.record_failure(110)
        assert breaker.is_open
        assert not breaker.allow(150)  # clock restarted at 110
        assert breaker.allow(210)


class TestPolicyPrecedence:
    def test_process_policy_beats_named_beats_default(self):
        supervisor = Supervisor(
            default_policy=ErrorPolicy(mode="fail"),
            policies={"named": ErrorPolicy(mode="skip")},
        )
        attached = ErrorPolicy(mode="retry")
        with_own = Process(
            "named", input="s", processors=[Collect()], policy=attached
        )
        by_name = Process("named", input="s", processors=[Collect()])
        unknown = Process("other", input="s", processors=[Collect()])
        assert supervisor.policy_for(with_own) is attached
        assert supervisor.policy_for(by_name).mode == "skip"
        assert supervisor.policy_for(unknown).mode == "fail"


class TestSupervisedRuntime:
    def test_default_policy_fails_like_unsupervised(self):
        topo, _ = _topology([1, -2, 3])
        with pytest.raises(ValueError, match="poisoned"):
            StreamRuntime(topo, supervisor=Supervisor()).run()

    def test_skip_dead_letters_and_continues(self):
        metrics = Registry()
        topo, sink = _topology(
            [1, -2, 3], policy=ErrorPolicy(mode="skip")
        )
        supervisor = Supervisor(metrics=metrics)
        StreamRuntime(topo, supervisor=supervisor).run()
        assert [i["v"] for i in sink.items] == [1, 3]
        assert len(supervisor.dead_letters) == 1
        letter = supervisor.dead_letters.snapshot()[0]
        assert letter.process == "p"
        assert letter.input == "s"
        assert "poisoned item -2" in letter.error
        assert letter.attempts == 1
        counters = metrics.counters()
        assert counters["streams.supervision.errors"] == 1
        assert counters["streams.supervision.dead_letters"] == 1

    def test_retry_exhausts_then_dead_letters(self):
        metrics = Registry()
        topo, sink = _topology(
            [-1, 2], policy=ErrorPolicy(mode="retry", max_retries=2)
        )
        supervisor = Supervisor(metrics=metrics)
        StreamRuntime(topo, supervisor=supervisor).run()
        assert [i["v"] for i in sink.items] == [2]
        letter = supervisor.dead_letters.snapshot()[0]
        assert letter.attempts == 3  # initial try + 2 retries
        counters = metrics.counters()
        assert counters["streams.supervision.retries"] == 2
        assert counters["streams.supervision.errors"] == 3
        backoff = metrics.timings()["streams.supervision.backoff_s"]
        assert backoff.count == 2

    def test_retry_recovers_a_flaky_processor(self):
        failures = {"left": 2}

        def flaky(item):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient")
            return item

        topo = Topology()
        topo.add_source(Source("s", _items([7])))
        sink = Collect()
        topo.add_process(
            Process(
                "p", input="s", processors=[Transform(flaky), sink],
                policy=ErrorPolicy(mode="retry", max_retries=3),
            )
        )
        supervisor = Supervisor()
        StreamRuntime(topo, supervisor=supervisor).run()
        assert [i["v"] for i in sink.items] == [7]
        assert len(supervisor.dead_letters) == 0

    def test_soft_timeout_goes_through_the_policy(self):
        # The timeout is cooperative (detected after the chain ran),
        # so the proof is that nothing is *forwarded*: the slow
        # process's output queue stays empty and downstream sees
        # nothing.
        metrics = Registry()
        topo = Topology()
        topo.add_source(Source("s", _items([1])))
        sink = Collect()
        topo.add_process(
            Process(
                "slow", input="s",
                processors=[Tap(lambda item: time.sleep(0.01))],
                output="out",
                policy=ErrorPolicy(mode="skip", timeout_s=0.0005),
            )
        )
        topo.add_process(Process("down", input="out", processors=[sink]))
        supervisor = Supervisor(metrics=metrics)
        StreamRuntime(topo, supervisor=supervisor).run()
        assert sink.items == []
        assert len(topo.queues["out"]) == 0
        letter = supervisor.dead_letters.snapshot()[0]
        assert "ProcessorTimeout" in letter.error
        assert metrics.counters()["streams.supervision.timeouts"] == 1

class TestBreakerInRuntime:
    def _run(self, times_and_values, *, threshold=3, reset_s=100):
        topo = Topology()
        topo.add_source(
            Source(
                "s",
                [
                    make_item({"v": v}, time=t)
                    for t, v in times_and_values
                ],
            )
        )
        sink = Collect()
        topo.add_process(
            Process(
                "p", input="s",
                processors=[Transform(_poison), sink],
                policy=ErrorPolicy(mode="skip"),
            )
        )
        metrics = Registry()
        supervisor = Supervisor(
            metrics=metrics,
            breaker_threshold=threshold,
            breaker_reset_s=reset_s,
        )
        StreamRuntime(topo, supervisor=supervisor).run()
        return sink, supervisor, metrics

    def test_open_breaker_short_circuits_to_dlq(self):
        sink, supervisor, metrics = self._run(
            [(0, -1), (1, -2), (2, -3), (10, 4), (20, 5)]
        )
        # Three poisoned items open the breaker; the healthy items at
        # t=10/20 are inside the cooldown and never reach the chain.
        assert sink.items == []
        letters = supervisor.dead_letters.snapshot()
        assert [l.process for l in letters] == [
            "p", "p", "p", "breaker:s", "breaker:s"
        ]
        assert letters[-1].error == "circuit open"
        counters = metrics.counters()
        assert counters["streams.breaker.s.opened"] == 1
        assert counters["streams.breaker.s.short_circuited"] == 2

    def test_half_open_trial_closes_after_cooldown(self):
        sink, supervisor, metrics = self._run(
            [(0, -1), (1, -2), (2, -3), (150, 4), (160, 5)]
        )
        # t=150 is past the 100s cooldown: the trial item flows,
        # succeeds and closes the breaker again.
        assert [i["v"] for i in sink.items] == [4, 5]
        breaker = supervisor.breakers["s"]
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.open_intervals == [(2, 150)]
        assert metrics.gauges()["streams.breaker.s.state"] == 0.0

    def test_final_state_gauge_reports_open(self):
        _, _, metrics = self._run([(0, -1), (1, -2), (2, -3), (10, -4)])
        assert metrics.gauges()["streams.breaker.s.state"] == 1.0


class TestCircuitBreakerHalfOpenEdges:
    """Satellite: half-open edge cases around the cooldown boundary."""

    def test_failure_exactly_at_reset_boundary(self):
        breaker = CircuitBreaker(threshold=1, reset_after_s=100)
        breaker.record_failure(10)
        # 109 is still inside the cooldown; 110 == opened_at +
        # reset_after_s is the first instant the trial flows.
        assert not breaker.allow(109)
        assert breaker.allow(110)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure(110)
        assert breaker.state == CircuitBreaker.OPEN
        # The cooldown clock restarted at the boundary failure.
        assert not breaker.allow(209)
        assert breaker.allow(210)

    def test_success_then_failure_in_half_open(self):
        breaker = CircuitBreaker(threshold=2, reset_after_s=100)
        breaker.record_failure(0)
        breaker.record_failure(1)
        assert breaker.is_open
        assert breaker.allow(101)
        breaker.record_success(101)  # trial succeeds: breaker closes
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.open_intervals == [(1, 101)]
        # A single follow-up failure is below threshold again — the
        # half-open trip must not have left a stale failure streak.
        breaker.record_failure(102)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(103)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.open_intervals == [(1, 101), (103, None)]

    def test_repeated_allow_in_half_open_keeps_flowing(self):
        breaker = CircuitBreaker(threshold=1, reset_after_s=50)
        breaker.record_failure(0)
        assert breaker.allow(50)
        # Until the trial's outcome is reported, further arrivals flow.
        assert breaker.allow(51)
        assert breaker.state == CircuitBreaker.HALF_OPEN


class TestBoundedDeadLetterQueue:
    """Satellite: the DLQ evicts oldest at capacity and counts drops."""

    def _letter(self, n):
        from repro.streams import DeadLetter

        return DeadLetter(
            process="p", input="s", item={"v": n}, error="boom",
            attempts=1, arrival=n,
        )

    def test_eviction_keeps_newest(self):
        dlq = DeadLetterQueue(max_size=3)
        for n in range(5):
            dlq.append(self._letter(n))
        assert len(dlq) == 3
        assert dlq.dropped == 2
        assert [letter.arrival for letter in dlq] == [2, 3, 4]

    def test_max_size_validation(self):
        with pytest.raises(ValueError):
            DeadLetterQueue(max_size=0)

    def test_supervisor_counts_dropped_letters(self):
        registry = Registry()
        supervisor = Supervisor(
            dead_letters=DeadLetterQueue(max_size=2), metrics=registry
        )
        for n in range(5):
            supervisor.dead_letter(
                process="p", input_name="s", item=make_item({"v": n}, time=n),
                error="boom", attempts=1, arrival=n,
            )
        counters = registry.counters()
        assert counters["streams.supervision.dead_letters"] == 5
        assert counters["streams.supervision.dlq.dropped"] == 3
        assert len(supervisor.dead_letters) == 2

    def test_unbounded_by_default_for_typical_runs(self):
        # The default capacity is far above anything a test run files.
        dlq = DeadLetterQueue()
        for n in range(100):
            dlq.append(self._letter(n))
        assert len(dlq) == 100
        assert dlq.dropped == 0
