"""The crowdsourcing query execution engine (paper, Section 5.3).

Responsibilities reproduced from the paper:

* a *device registry*: each participant registers with the engine from
  a mobile device, connecting (1) to a push-notification service (the
  paper uses Google Cloud Messaging) and (2) to the crowdsourcing
  server as a *map worker*;
* *query dissemination* following the MapReduce decomposition: the
  engine retrieves the registered online participants, selects the
  worker list ``L_q`` by policy, sends each worker a push notification,
  and collects their answers (the *map* phase); *reduce* workers then
  aggregate the intermediate answers;
* *deadline admission*: for real-time queries every selected worker
  must satisfy ``comm_iq + comp_iq < deadline_q`` with both terms
  estimated from historical executions;
* *latency accounting* per step and connection type (Figure 6).

Everything is simulated deterministically: device connections, the
push service and human workers are local objects driven by seeded
RNGs, so a run is exactly reproducible.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..faults.spec import CrowdFaults
from ..obs import Registry
from .latency import LatencyModel
from .model import AnswerSet, DisagreementTask, Participant
from .selection import AllParticipants, SelectionPolicy


@dataclass(frozen=True)
class CrowdQuery:
    """``query_q = {Question_q, [answer_1, ..., answer_n]}``."""

    task: DisagreementTask
    question: str = "Is there a traffic congestion at your location?"
    deadline_ms: Optional[float] = None
    reply_window_ms: float = 120_000.0


@dataclass
class MapTaskExecution:
    """Latency breakdown of one worker's map task (all in ms)."""

    participant_id: str
    connection: str
    trigger_ms: float
    push_ms: float
    think_ms: float
    communication_ms: float
    answer: Optional[str] = None
    #: Injected fault that hit this task (``"no_response"`` /
    #: ``"timeout"``), or ``None`` for a clean execution.
    fault: Optional[str] = None

    @property
    def engine_ms(self) -> float:
        """Engine-side latency (Figure 6 excludes the think time)."""
        return self.trigger_ms + self.push_ms + self.communication_ms

    @property
    def total_ms(self) -> float:
        """Wall-clock including the human response."""
        return self.engine_ms + self.think_ms

    @property
    def answered(self) -> bool:
        return self.answer is not None


@dataclass
class QueryExecutionResult:
    """The outcome of disseminating one query."""

    query: CrowdQuery
    selected: list[str]
    executions: list[MapTaskExecution]
    answer_set: AnswerSet
    reduce_worker: Optional[str] = None
    #: Aggregated intermediate results: label -> vote count (the output
    #: of the reduce phase).
    vote_counts: dict[str, int] = field(default_factory=dict)

class QueryExecutionEngine:
    """Deterministic simulation of the mobile crowdsourcing engine.

    Parameters
    ----------
    latency_model:
        Source of per-step latencies (calibrated to Figure 6).
    policy:
        Worker selection policy; defaults to querying every online
        registered participant.
    seed:
        Seed for the answer-simulation RNG.
    metrics:
        Optional :class:`repro.obs.Registry`; when given, the engine
        counts queries/answers and records per-task engine latency
        under ``crowd.engine.*`` (see ``docs/observability.md``).
    faults:
        Optional :class:`repro.faults.CrowdFaults`; when given, map
        tasks suffer deterministic worker non-response and
        reply-window-timeout faults, counted under
        ``crowd.engine.faults.*`` (see ``docs/robustness.md``).
    """

    def __init__(
        self,
        latency_model: Optional[LatencyModel] = None,
        policy: Optional[SelectionPolicy] = None,
        seed: int = 0,
        metrics: Optional[Registry] = None,
        faults: Optional[CrowdFaults] = None,
    ):
        self.latency_model = latency_model or LatencyModel(seed=seed)
        self.policy = policy or AllParticipants()
        self.metrics = metrics
        self.faults = faults if faults is not None and faults.active else None
        # Fault draws come from their own stream so that enabling a
        # profile never perturbs the answer simulation RNG directly.
        self._fault_rng = random.Random(seed + 7919)
        self._rng = random.Random(seed)
        self._devices: dict[str, Participant] = {}
        self._online: dict[str, bool] = {}
        #: Historical engine-side latencies per participant (ms), the
        #: basis of the deadline estimate.
        self._history: dict[str, list[float]] = defaultdict(list)
        self.queries_executed = 0

    # -- device registry -------------------------------------------------
    def register(self, participant: Participant) -> None:
        """Register a participant's device (GCM + map-worker handshake)."""
        self._devices[participant.participant_id] = participant
        self._online[participant.participant_id] = True

    def set_online(self, participant_id: str, online: bool) -> None:
        """Toggle a device's connectivity."""
        if participant_id not in self._devices:
            raise KeyError(f"unknown participant: {participant_id!r}")
        self._online[participant_id] = online

    def online_participants(self) -> list[Participant]:
        """The currently reachable registered participants."""
        return [
            p
            for pid, p in self._devices.items()
            if self._online.get(pid, False)
        ]

    # -- latency estimation ----------------------------------------------
    def estimated_latency_ms(self, participant: Participant) -> float:
        """Expected engine-side latency for one worker.

        Mean of the worker's historical executions when available,
        otherwise the latency model's expectation for the worker's
        current connection — "estimated from the communication time of
        the tasks executed previously in the participant's current
        location" (Section 5.3).
        """
        history = self._history.get(participant.participant_id)
        if history:
            return sum(history) / len(history)
        return self.latency_model.expected_engine_ms(participant.connection)

    # -- query execution ---------------------------------------------------
    def execute(self, query: CrowdQuery) -> QueryExecutionResult:
        """Disseminate one query and collect/aggregate the answers.

        Steps (Section 5.3): (1) retrieve the registered online
        participants, (2) select ``L_q`` by policy (plus the deadline
        admission test when the query has one), (3) push the map task to
        each worker and gather answers until the reply window closes,
        then run the reduce phase on the intermediate results.
        """
        candidates = self.online_participants()
        selected = self.policy.select(query.task, candidates)
        if query.deadline_ms is not None:
            selected = [
                p
                for p in selected
                if self.estimated_latency_ms(p) < query.deadline_ms
            ]

        executions: list[MapTaskExecution] = []
        answer_set = AnswerSet(query.task)
        for participant in selected:
            execution = self._run_map_task(participant, query)
            executions.append(execution)
            if execution.answered:
                answer_set.add(participant.participant_id, execution.answer)
            self._history[participant.participant_id].append(
                execution.engine_ms
            )

        # Reduce phase: one of the answering workers aggregates the
        # intermediate results into per-label vote counts.
        vote_counts: dict[str, int] = {}
        reduce_worker: Optional[str] = None
        answered = [e for e in executions if e.answered]
        if answered:
            reduce_worker = self._rng.choice(answered).participant_id
            for execution in answered:
                vote_counts[execution.answer] = (
                    vote_counts.get(execution.answer, 0) + 1
                )

        self.queries_executed += 1
        if self.metrics is not None:
            self.metrics.counter("crowd.engine.queries").inc()
            self.metrics.counter("crowd.engine.selected").inc(len(selected))
            self.metrics.counter("crowd.engine.answers").inc(
                sum(1 for e in executions if e.answered)
            )
            latency = self.metrics.timing("crowd.engine.engine_ms")
            for execution in executions:
                latency.observe(execution.engine_ms)
        return QueryExecutionResult(
            query=query,
            selected=[p.participant_id for p in selected],
            executions=executions,
            answer_set=answer_set,
            reduce_worker=reduce_worker,
            vote_counts=vote_counts,
        )

    def _run_map_task(
        self, participant: Participant, query: CrowdQuery
    ) -> MapTaskExecution:
        """Simulate one worker's map task with its latency breakdown."""
        model = self.latency_model
        trigger = model.trigger_ms()
        push = model.push_ms(participant.connection)
        think = model.think_ms(participant.think_time_s)
        comm = model.communication_ms(participant.connection)
        execution = MapTaskExecution(
            participant_id=participant.participant_id,
            connection=participant.connection,
            trigger_ms=trigger,
            push_ms=push,
            think_ms=think,
            communication_ms=comm,
        )
        if self.faults is not None:
            # One draw per configured fault class per task, in a fixed
            # order, so the fault pattern depends only on the seed and
            # the task sequence — never on the faults' outcomes.
            faults = self.faults
            if (
                faults.no_response_rate > 0.0
                and self._fault_rng.random() < faults.no_response_rate
            ):
                execution.fault = "no_response"
            if (
                faults.timeout_rate > 0.0
                and self._fault_rng.random() < faults.timeout_rate
                and execution.fault is None
            ):
                execution.fault = "timeout"
                execution.think_ms += faults.extra_think_ms
            if execution.fault is not None and self.metrics is not None:
                self.metrics.counter(
                    f"crowd.engine.faults.{execution.fault}"
                ).inc()
        # The worker answers only if the task round trip fits in the
        # reply window (after which the server stops waiting).  A
        # non-responding worker never answers; a timed-out worker's
        # inflated think time pushes it past the window.
        if (
            execution.fault != "no_response"
            and execution.total_ms <= query.reply_window_ms
        ):
            execution.answer = participant.answer(query.task, self._rng)
        return execution
