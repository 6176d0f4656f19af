"""The crowdsourcing leg of the loop (paper, Figure 1 and Section 5).

:class:`CrowdLoop` is the crowdsourcing component with the system's
policy around it — who the participants are, when a disagreement is
worth bothering them with, which prior the query carries, what a
resolution does to the flow field and the reward ledger.  Its unit of
work is one fresh ``sourceDisagreement`` (:meth:`CrowdLoop.resolve`)
and it has one caller, the crowd stage of
:class:`~repro.system.pipeline.UrbanTrafficSystem`, which the
recognition loop and the Section 3 Streams graph both run.  What
becomes of the returned ``crowd`` SDE is the caller's routing.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from ..core.events import Event
from ..core.traffic import feeds_of_definition
from ..crowd import (
    CrowdsourcingComponent,
    LocationPolicy,
    OnlineEM,
    Participant,
    QueryExecutionEngine,
    RewardLedger,
    bus_report_prior,
)
from ..traffic_model import CONGESTED_FLOW, FREE_FLOW

#: The simulated participants' error probabilities are drawn uniformly
#: from this range, and a query reaches those within this many metres
#: of the disagreeing intersection.
PARTICIPANT_ERROR_RANGE = (0.05, 0.5)
PARTICIPANT_RADIUS_M = 800.0
#: Window (seconds) of bus reports feeding the Section 5.1 priors.
PRIOR_WINDOW_S = 600


class CrowdLoop:
    """Resolves source disagreements through the (simulated) crowd.

    Built from what it reads: the scenario (intersection locations,
    the ground truth the simulated participants answer from), the
    :class:`~repro.system.pipeline.SystemConfig`, the console, the flow
    estimator, the metrics registry and a profile's crowd faults.
    """

    def __init__(
        self, scenario, config, console, flow_estimator, metrics,
        faults=None,
    ):
        self.scenario = scenario
        self.config = config
        self.console = console
        self.flow_estimator = flow_estimator
        self.metrics = metrics
        self.crowd: Optional[CrowdsourcingComponent] = None
        self.reward_ledger: Optional[RewardLedger] = None
        if config.crowd_enabled:
            self.crowd = self._scatter_participants(faults)
            self.reward_ledger = RewardLedger()
        #: Disagreements answered, left unanswered, and skipped by the
        #: outage / cooldown filters.
        self.resolved = 0
        self.unresolved = 0
        self.suppressed = 0
        #: Bus congestion reports per intersection, feeding the Section
        #: 5.1 priors: ``(occurrence times, congestion bits)`` arrays in
        #: time order; filled by :meth:`index_bus_reports`.
        self._bus_reports: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: Last crowd query time per intersection (cooldown filter).
        self._last_query_at: dict[str, int] = {}

    def _scatter_participants(self, faults) -> CrowdsourcingComponent:
        """Scatter simulated participants around SCATS intersections."""
        cfg = self.config
        rng = random.Random(cfg.seed + 100)
        engine = QueryExecutionEngine(
            policy=LocationPolicy(radius_m=PARTICIPANT_RADIUS_M),
            seed=cfg.seed + 101,
            metrics=self.metrics,
            faults=faults,
        )
        topology = self.scenario.topology
        intersections = topology.ids()
        lo, hi = PARTICIPANT_ERROR_RANGE
        for i in range(cfg.n_participants):
            lon, lat = topology.location(rng.choice(intersections))
            engine.register(
                Participant(
                    participant_id=f"C{i:03d}",
                    error_probability=rng.uniform(lo, hi),
                    lon=lon + rng.uniform(-0.002, 0.002),
                    lat=lat + rng.uniform(-0.002, 0.002),
                    connection=rng.choice(("2g", "3g", "wifi")),
                )
            )
        return CrowdsourcingComponent(engine, aggregator=OnlineEM())

    # ------------------------------------------------------------------
    def index_bus_reports(self, gps) -> None:
        """Build the prior index from a stream's ``gps`` block (or
        ``None``): the close/4 join of every report, as arrays — one
        (report, intersection) pair per hit, grouped by intersection
        with a stable sort, which keeps each group's reports in stream
        (time) order."""
        if gps is None:
            return
        topology = self.scenario.topology
        offsets, close_to = topology.close_join(
            gps.value_fields["lon"], gps.value_fields["lat"]
        )
        order = np.argsort(close_to, kind="stable")
        report = np.repeat(np.arange(len(gps)), np.diff(offsets))[order]
        times = gps.times[report]
        bits = np.array(gps.value_fields["congestion"].tolist())[report]
        cuts = np.searchsorted(
            close_to[order], np.arange(len(topology) + 1)
        ).tolist()
        self._bus_reports = {
            int_id: (times[lo:hi], bits[lo:hi])
            for int_id, lo, hi in zip(topology.ids(), cuts, cuts[1:])
            if lo < hi
        }

    def prior(self, int_id: str, q: int):
        """Section 5.1 prior from nearby bus reports, or None."""
        reports = self._bus_reports.get(int_id)
        if reports is None:
            return None
        times, bits = reports
        lo, hi = np.searchsorted(
            times, (q - PRIOR_WINDOW_S, q), side="right"
        ).tolist()
        if lo == hi:
            return None
        return bus_report_prior(int(bits[lo:hi].sum()), hi - lo)

    def _skip(self, metric: str = "crowd.suppressed") -> None:
        """Count a disagreement the policy did not ask the crowd about."""
        self.suppressed += 1
        self.metrics.counter(metric).inc()

    def _unanswered(self) -> None:
        """Count a disagreement nobody answered."""
        self.unresolved += 1
        self.metrics.counter("crowd.unresolved").inc()

    def resolve(
        self,
        region: Optional[str],
        q: int,
        int_id: str,
        start: int,
        degraded: frozenset[str] = frozenset(),
    ) -> Optional[Event]:
        """Crowdsource one fresh ``sourceDisagreement`` episode — at
        intersection ``int_id`` from ``start``, surfaced for ``region``
        by the query at ``q`` — and return the ``crowd`` SDE to feed
        back, or ``None``.

        "To minimise the impact on the participants, the crowdsourcing
        component is invoked ... when a significant disagreement in the
        data sources is detected" (Section 5): an intersection is not
        queried again within the cooldown.
        While either feed is degraded a "disagreement" is an artifact
        of the outage, so the crowd is not bothered at all.
        """
        cfg = self.config
        if degraded and any(
            feed in degraded
            for feed in feeds_of_definition("sourceDisagreement")
        ):
            return self._skip("system.degraded.crowd_suppressed")
        lon, lat = self.scenario.topology.location(int_id)
        self.console.notify(
            start, "source disagreement", str(int_id),
            "buses and SCATS sensors disagree on congestion", region,
        )
        self.metrics.counter("crowd.disagreements").inc()
        if self.crowd is None:
            return self._unanswered()
        last = self._last_query_at.get(int_id)
        if last is not None and q - last < cfg.crowd_cooldown_s:
            return self._skip()
        self._last_query_at[int_id] = q
        node = self.scenario.node_of[int_id]
        outcome = self.crowd.handle_disagreement(
            intersection=int_id,
            lon=lon,
            lat=lat,
            time=q,
            prior=self.prior(int_id, q),
            true_label=self.scenario.ground_truth.congestion_label(node, q),
        )
        event = outcome.crowd_event
        if event is None:
            return self._unanswered()
        self.resolved += 1
        self.metrics.counter("crowd.resolved").inc()
        if self.reward_ledger is not None:
            self.reward_ledger.record_answers(
                outcome.execution.answer_set.answers
            )
        # Crowd pseudo-observation for the flow field: a confirmed
        # congestion pins the junction to the congested branch.
        self.flow_estimator.observe(
            node,
            CONGESTED_FLOW if event["value"] == "positive" else FREE_FLOW,
            event.time,
        )
        self.console.notify(
            event.time, "crowd resolution", str(int_id),
            f"crowd says {event['value']} "
            f"(confidence {event['confidence']:.2f})",
            region,
        )
        return event

    def settle_rewards(self) -> dict:
        """Participant rewards for the answers recorded so far."""
        if self.reward_ledger is None:
            return {}
        return self.reward_ledger.settle(self.crowd.aggregator)
