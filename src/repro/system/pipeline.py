"""The integrated urban-traffic-management system (paper, Figure 1).

Wires all four components into the closed loop the paper describes:

1. the Dublin SDE streams (bus + SCATS, four city regions) feed
2. per-region RTEC engines performing (static or self-adaptive)
   complex event recognition; recognised ``sourceDisagreement`` CEs go
   to
3. the crowdsourcing component, which queries participants near the
   disagreement, fuses their answers with online EM, and feeds the
   resulting ``crowd`` SDEs *back* into RTEC (closing the adaptation
   loop of rule-sets (4)/(5)) while also labelling the CE for
4. the city operators (alert console) and the traffic-modelling
   component, which fills the sensor-coverage gaps with GP regression.
"""

from __future__ import annotations

import difflib
import time
from dataclasses import dataclass, field, fields
from typing import Literal, Mapping, Optional

import numpy as np

from ..core.columns import EventColumns, SDEColumns
from ..core.events import Event
from ..core.reference import ReferenceRTEC
from ..core.rtec import RTEC, FreshResults, RecognitionLog, RecognitionSnapshot
from ..faults import FaultProfile, get_profile, inject_scenario
from ..obs import Registry
from ..core.traffic import (
    build_traffic_definitions,
    default_traffic_params,
    feeds_of_definition,
)
from ..crowd import CrowdsourcingComponent
from ..dublin import REGIONS, DublinScenario, greenshields_flow
from ..traffic_model import (
    RollingFlowEstimator,
    TrafficFlowModel,
    render_flow_map,
    write_city_svg,
)
from .console import OperatorConsole
from .crowdloop import CrowdLoop
from .degradation import DegradationManager, describe_timeline


#: GP hyperparameters of the traffic-model snapshot (eq. 16 kernel
#: weights and observation noise), shared by the rolling estimator and
#: the ground-truth fallback of :meth:`UrbanTrafficSystem
#: .estimate_citywide`.  The noise is the pipeline's own, twice
#: :class:`~repro.traffic_model.RollingFlowEstimator`'s default.
GP_HYPERPARAMETERS = {"alpha": 5.0, "beta": 0.05, "noise": 40.0}

#: Restarts allowed per shard within one run before its breaker
#: latches open and the region degrades, and the base of the capped
#: exponential restart backoff (seconds, actually slept: worker
#: restarts are wall-clock affairs).
SHARD_MAX_RESTARTS = 3
SHARD_RESTART_BACKOFF_S = 0.05


@dataclass(frozen=True)
class SystemConfig:
    """Configuration of the integrated system."""

    #: RTEC working memory and step (seconds).  Window > step tolerates
    #: delayed SDEs (paper, Figure 2).
    window: int = 600
    step: int = 300
    #: Two fields, one choice.  Both ``True`` (the default): the
    #: engine, :class:`repro.core.rtec.RTEC`.  Both ``False``:
    #: :class:`repro.core.reference.ReferenceRTEC` — in-process only,
    #: no recovery coordinator.  A mixed pair is an error.  They are
    #: two because the frozen ``benchmarks/e2e/workloads.py::oracle``
    #: names both; they go, with the reference engine, in the
    #: benchmark revision of ROADMAP item 2.
    incremental: bool = True
    compiled_rules: bool = True
    #: Static vs self-adaptive recognition, and the noisy-rule variant.
    adaptive: bool = True
    noisy_variant: Literal["crowd", "pessimistic"] = "crowd"
    #: Structured intersection definition (sensor -> approach ->
    #: intersection) and crowd-based SCATS reliability evaluation
    #: (requires ``adaptive``).
    structured_intersections: bool = False
    scats_reliability: bool = False
    #: Recognition is distributed across the four city regions
    #: (Section 7.1), one engine each — or packed onto fewer: each
    #: inner tuple is one engine's set of regions, and together they
    #: must partition ``REGIONS`` exactly.  ``(("central", "north"),
    #: ("west", "south"))`` runs two engines — and two workers under
    #: ``sharded`` — instead of four.  The region *assignment* of every
    #: SDE is unchanged, so recognition output is a pure function of
    #: the grouping, not of how many processes execute it (the
    #: scenario parity matrix pins this).  ``None`` keeps one engine
    #: per region.
    region_groups: Optional[tuple[tuple[str, ...], ...]] = None
    #: Sharded runtime (:mod:`repro.shard`): each region's engine runs
    #: in its own supervised OS process with per-shard checkpoints,
    #: fed over the message bus — the parallel deployment of Section
    #: 7.1.  Output is byte-identical to the single-process run;
    #: mutually exclusive with a pipeline-level recovery coordinator
    #: (each shard owns its recovery).  Heartbeat cadence, liveness
    #: timeout and start method are constants of
    #: :mod:`repro.shard.runtime`.
    sharded: bool = False
    #: Root directory for the per-shard recovery directories
    #: (``shard-<region>/``); ``None`` uses a temporary directory that
    #: is removed at the end of the run.
    shard_dir: Optional[str] = None
    #: Crowdsourcing: number of simulated participants, scattered near
    #: SCATS intersections (:mod:`repro.system.crowdloop`).
    crowd_enabled: bool = True
    n_participants: int = 60
    #: "To minimise the impact on the participants" (Section 5) the
    #: same intersection is not re-queried within this cooldown.
    crowd_cooldown_s: int = 600
    #: Named fault profile (see :mod:`repro.faults.profiles`) injected
    #: into the generated SDE streams and the crowd engine; ``None``
    #: (or ``"none"``) runs fault-free.  The profile's RNG seed is
    #: offset by :attr:`seed`, so chaos runs are exactly reproducible.
    fault_profile: Optional[str] = None
    #: Recognition steps between pipeline checkpoints when a
    #: :class:`repro.recovery.CheckpointCoordinator` is attached to the
    #: run (``run(..., recovery=...)`` or ``repro run --checkpoint-dir``).
    #: Ignored — zero overhead — when no coordinator is attached.
    checkpoint_interval: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window <= 0 or self.step <= 0:
            raise ValueError("window and step must be positive")
        if self.step > self.window:
            raise ValueError(
                "step must not exceed the window: SDEs occurring between "
                "windows would never be considered"
            )
        if self.noisy_variant not in ("crowd", "pessimistic"):
            raise ValueError(
                f"noisy_variant must be 'crowd' or 'pessimistic', "
                f"got {self.noisy_variant!r}"
            )
        if self.n_participants < 0:
            raise ValueError("n_participants must not be negative")
        if self.crowd_cooldown_s < 0:
            raise ValueError("crowd_cooldown_s must be >= 0")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        if self.incremental != self.compiled_rules:
            raise ValueError(
                "incremental and compiled_rules select one engine "
                "together: both True (the engine) or both False (the "
                "reference engine)"
            )
        if self.sharded and not self.incremental:
            raise ValueError(
                "the reference engine runs in-process only: sharded "
                "requires incremental=True, compiled_rules=True"
            )
        if self.region_groups is not None:
            groups = tuple(
                tuple(group) for group in self.region_groups
            )
            object.__setattr__(self, "region_groups", groups)
            flat = [region for group in groups for region in group]
            if not groups or any(not group for group in groups):
                raise ValueError("region_groups must not contain an "
                                 "empty group")
            if sorted(flat) != sorted(REGIONS):
                raise ValueError(
                    f"region_groups must partition the city regions "
                    f"{sorted(REGIONS)} exactly, got {sorted(flat)}"
                )
        if self.fault_profile is not None:
            # Fail fast on unknown profile names (with the same
            # closest-match hint get_profile gives everywhere else).
            get_profile(self.fault_profile)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "SystemConfig":
        """Build a validated config from a plain mapping.

        The single entry point for CLI arguments, benchmark overrides
        and example scripts: unknown keys are rejected (with a
        closest-match hint) instead of silently ignored, list values
        for tuple-typed fields are coerced, and the resulting config
        goes through the same ``__post_init__`` validation as direct
        construction.
        """
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(mapping) - set(known))
        if unknown:
            hints = []
            for key in unknown:
                close = difflib.get_close_matches(key, known, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                hints.append(f"{key!r}{hint}")
            raise ValueError(
                f"unknown SystemConfig key(s): {', '.join(hints)}; "
                f"valid keys: {', '.join(sorted(known))}"
            )
        kwargs = {}
        for key, value in mapping.items():
            if isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)


@dataclass
class SystemReport:
    """Everything one system run produced."""

    logs: dict[str, RecognitionLog]
    console: OperatorConsole
    crowd_resolutions: int = 0
    crowd_unresolved: int = 0
    #: Disagreements skipped by the cooldown / outage filters.
    crowd_suppressed: int = 0
    flow_estimates: dict = field(default_factory=dict)
    #: Participant rewards settled at the end of the run.
    rewards: dict = field(default_factory=dict)
    #: Runtime metrics export (``repro.obs.Registry.to_dict()``):
    #: per-region throughput, per-definition RTEC timings, crowd query
    #: counters, flow-estimator gauges.  See ``docs/observability.md``.
    metrics: dict = field(default_factory=dict)
    #: Degraded-mode intervals per feed: ``{"scats": [(start, end)]}``
    #: with ``end=None`` for an outage still open at the end of the
    #: run.  Empty when every feed stayed alive.
    degraded: dict = field(default_factory=dict)
    #: Chronological shard supervisor events (worker restarts and
    #: budget-exhausted failures) from a sharded run; empty otherwise.
    #: Each entry carries ``event`` (``"restart"``/``"failed"``),
    #: ``region``, ``step`` and ``q``.
    shard_events: list = field(default_factory=list)

    def degraded_timeline(self) -> list[str]:
        """Human-readable outage timeline (one line per interval)."""
        return describe_timeline(self.degraded)

    @property
    def mean_recognition_time(self) -> float:
        """Mean per-query CPU time across regions (Figure 4's metric)."""
        logs = [log for log in self.logs.values() if log.snapshots]
        if not logs:
            return 0.0
        return sum(log.mean_elapsed for log in logs) / len(logs)

    def total_occurrences(self, name: str) -> int:
        """Distinct occurrences of CE ``name`` across all regions."""
        total = 0
        for log in self.logs.values():
            seen = set()
            for snapshot in log.snapshots:
                for occ in snapshot.all_occurrences(name):
                    seen.add((occ.key, occ.time))
            total += len(seen)
        return total


@dataclass
class RunState:
    """Where one run is in its recognition loop.

    Checkpointed alongside the system by :mod:`repro.recovery`; a
    restored ``RunState`` is everything :meth:`UrbanTrafficSystem
    .resume_from` needs to continue the loop — the input stream itself
    is *not* re-generated on resume, because the engines' working
    memories already buffer every pending (not-yet-arrived) SDE and
    re-running generation/injection/indexing would double-count fault
    metrics and flow observations.
    """

    #: Run bounds as passed to :meth:`UrbanTrafficSystem.run`.
    start: int
    end: int
    #: The next query time the loop will evaluate.
    next_q: int
    #: 1-based count of completed recognition steps.
    step_index: int
    #: Per feed, how many SDEs arrive in each recognition step (the
    #: degradation breaker's liveness signal), precomputed for the
    #: whole run: element ``i`` belongs to step ``i + 1``.
    feed_arrivals: dict[str, np.ndarray]
    #: The report under construction (logs, console, crowd counters).
    report: SystemReport


def step_arrivals(feed_arrivals: Mapping, step: int) -> dict[str, int]:
    """Per feed, the SDEs arriving in the (1-based) ``step`` of a run:
    one liveness observation (:meth:`UrbanTrafficSystem._feed_arrivals`)."""
    return {feed: int(n[step - 1]) for feed, n in feed_arrivals.items()}


class UrbanTrafficSystem:
    """Orchestrates a full scenario run with the feedback loop closed."""

    def __init__(
        self,
        scenario: DublinScenario,
        config: Optional[SystemConfig] = None,
    ):
        self.scenario = scenario
        self.config = config or SystemConfig()
        cfg = self.config
        #: Runtime metrics shared by every component of this system;
        #: exported into :attr:`SystemReport.metrics` after each run.
        self.metrics = Registry()
        #: Resolved fault profile, or ``None`` when the configured
        #: profile injects nothing; re-seeded from the system seed so
        #: the whole chaos run hangs off one number.
        self.fault_profile: Optional[FaultProfile] = None
        if cfg.fault_profile is not None:
            profile = get_profile(cfg.fault_profile)
            if profile.active:
                self.fault_profile = profile.with_seed(
                    profile.seed + cfg.seed
                )
        #: Feed-liveness breaker driving graceful degradation.
        self.degradation = DegradationManager(metrics=self.metrics)

        params = default_traffic_params()
        #: Region -> engine-key mapping when the four regions are
        #: packed onto fewer engines; ``None`` means one engine per
        #: region.
        self._region_to_group: Optional[dict[str, str]] = None
        if cfg.region_groups is not None:
            regions = ["+".join(group) for group in cfg.region_groups]
            self._region_to_group = {
                region: "+".join(group)
                for group in cfg.region_groups
                for region in group
            }
        else:
            regions = list(REGIONS)
        engine_class = RTEC if cfg.incremental else ReferenceRTEC
        self.engines: dict[str, RTEC] = {}
        for region in regions:
            definitions = build_traffic_definitions(
                scenario.topology,
                adaptive=cfg.adaptive,
                noisy_variant=cfg.noisy_variant,
                structured_intersections=cfg.structured_intersections,
                scats_reliability=cfg.scats_reliability,
            )
            self.engines[region] = engine_class(
                definitions, window=cfg.window, step=cfg.step, params=params
            )

        self.console = OperatorConsole()
        #: Rolling city-wide flow field fed by measured SCATS readings
        #: and crowd pseudo-observations ("this step is repeated
        #: continuously", Section 7.3).
        self.flow_estimator = RollingFlowEstimator(
            scenario.network.graph,
            **GP_HYPERPARAMETERS,
            metrics=self.metrics,
        )
        #: The crowdsourcing leg: participants, query policy, priors,
        #: rewards.  One fresh disagreement at a time, from
        #: :meth:`_crowdsource`.
        self.crowd_loop = CrowdLoop(
            scenario, cfg, self.console, self.flow_estimator, self.metrics,
            faults=getattr(self.fault_profile, "crowd", None),
        )
        #: Scripted per-region :class:`~repro.faults.crash.CrashInjector`
        #: plans for the sharded runtime, consumed one per worker spawn
        #: (the first arms the initial worker, the next its first
        #: restart, ...).  Set by chaos tests before :meth:`run`.
        self.shard_crash_plans: dict[str, list] = {}
        self._shard_runtime = None

    @property
    def crowd(self) -> Optional[CrowdsourcingComponent]:
        """The crowdsourcing component (``None`` with the crowd off)."""
        return self.crowd_loop.crowd

    # ------------------------------------------------------------------
    def _feed_arrivals(
        self, data, start: int, end: int
    ) -> dict[str, np.ndarray]:
        """SDE *arrivals* per feed and recognition step — the liveness
        signal the degradation breaker watches: element ``i`` counts the
        records arriving in ``(q - step, q]`` for the ``i + 1``-th query
        time ``q``.  Arrival, not occurrence: a delayed record keeps
        its feed alive only once it shows up."""
        columns = data.columns
        feeds = {
            "scats": [columns.event_block("traffic")],
            "bus": [columns.event_block("move"), columns.fact_block("gps")],
        }
        query_times = np.arange(start, end + 1, self.config.step)
        return {
            feed: np.diff(
                np.searchsorted(
                    np.sort(
                        np.concatenate(
                            [np.empty(0, dtype=np.int64)]
                            + [b.arrivals for b in blocks if b is not None]
                        )
                    ),
                    query_times,
                    side="right",
                )
            )
            for feed, blocks in feeds.items()
        }

    def _stream(self, system, start: int, end: int):
        """``system``'s input stream for ``[start, end)``: generated,
        fault-injected, and split into one batch per engine of *this*
        system.  Returns ``(city-wide data, {engine key: batch})``."""
        data = system.scenario.generate(start, end)
        if system.fault_profile is not None:
            data = inject_scenario(
                data, system.fault_profile, metrics=system.metrics
            )
        return data, system.scenario.split_by_region(
            data, groups=self._region_to_group
        )

    def _generate(self, start: int, end: int):
        """:meth:`_stream` of this system, timed once per run as
        ``ingest.generate_seconds`` (:meth:`rebuild_pending`'s
        regeneration runs on the pristine twin and is not timed)."""
        with self.metrics.timing("ingest.generate_seconds").time():
            return self._stream(self, start, end)

    def _ingest(self, start: int, end: int) -> dict[str, np.ndarray]:
        """Generate the run's stream and feed every engine its share.

        Columnar end to end: the simulators, the injectors and the
        split hand arrays on, and each engine buffers its batch as
        arrays — the first record object is built when a query admits
        a row into its window.  The stream itself is local to this
        call, so nothing of it but the engines' pending buffers
        outlives the hand-off.  Returns the per-feed, per-step arrival
        counts.
        """
        data, split = self._generate(start, end)
        self._observe_flows(data.columns.event_block("traffic"))
        self.crowd_loop.index_bus_reports(data.columns.fact_block("gps"))
        for region, batch in split.items():
            self._feed_region(region, batch)
            # Everything up to here is deterministically regenerable
            # from the baseline checkpoint; later feeds (crowd
            # feedback) are not.  The boundary lets interval
            # checkpoints drop the pending stream instead of
            # re-serialising the whole future at every write.
            self.engines[region].mark_stream_fed()
        return self._feed_arrivals(data, start, end)

    def run(
        self, start: int, end: int, *, recovery=None
    ) -> SystemReport:
        """Run the full loop over ``[start, end)`` and report.

        Every step computes all of its per-region snapshots first — in
        this process, or on the shard workers with ``config.sharded`` —
        and then *applies* them strictly in region order.  Because a
        crowd SDE produced while handling one region's results carries
        an occurrence time after the current query time, it can never
        enter another region's window at the same step — so where the
        engines run does not change what is recognised (the parity
        tests in ``tests/shard/test_sharded_parity.py`` assert this end
        to end).

        ``recovery`` accepts a
        :class:`repro.recovery.CheckpointCoordinator`: the loop then
        journals each step write-ahead and checkpoints the whole
        pipeline every ``config.checkpoint_interval`` steps.  The
        coordinator only observes — a run with checkpointing enabled
        produces exactly the output of one without.
        """
        if recovery is not None and self.config.sharded:
            raise ValueError(
                "sharded runs use per-shard recovery (each worker owns "
                "its checkpoint directory); a pipeline-level "
                "CheckpointCoordinator cannot be attached as well"
            )
        if recovery is not None and not self.config.incremental:
            raise ValueError(
                "the reference engine has no streamless checkpoint form: "
                "recovery requires incremental=True, compiled_rules=True"
            )
        if recovery is not None:
            # The baseline checkpoint is written *before* the stream is
            # generated and fed: the snapshot then holds no pending
            # SDEs, and a baseline restore re-runs this method so the
            # deterministic generation (and its metrics) happens
            # exactly once, from the checkpointed RNG state.
            recovery.on_run_start(self, (start, end))
        feed_arrivals = self._ingest(start, end)

        if self.config.sharded:
            # Ship the fully fed engines out to one worker process per
            # region; from here on the workers own engine evolution and
            # the parent only merges snapshots (and records the same
            # metrics from them as the in-process path would).
            from ..shard import ShardedRuntime

            cfg = self.config
            self._shard_runtime = ShardedRuntime(
                list(self.engines),
                metrics=self.metrics,
                checkpoint_interval=cfg.checkpoint_interval,
                directory=cfg.shard_dir,
                max_restarts=SHARD_MAX_RESTARTS,
                backoff_base_s=SHARD_RESTART_BACKOFF_S,
                degradation=self.degradation,
                crash_plans=self.shard_crash_plans,
            )
            self._shard_runtime.start(self.engines)

        logs = {region: RecognitionLog() for region in self.engines}
        state = RunState(
            start=start,
            end=end,
            next_q=start + self.config.step,
            step_index=0,
            feed_arrivals=feed_arrivals,
            report=SystemReport(logs=logs, console=self.console),
        )
        return self._run_loop(state, recovery)

    def resume_from(self, state: RunState, recovery) -> SystemReport:
        """Continue a checkpointed run restored by
        :meth:`repro.recovery.CheckpointCoordinator.restore_latest`.

        Must be called on the *restored* system object (the one
        unpickled from the checkpoint together with ``state``), with
        the pending stream already present — either carried by the
        checkpoint itself or refilled by :meth:`rebuild_pending` for a
        streamless checkpoint.  No input is re-generated or re-fed
        here.
        """
        return self._run_loop(state, recovery)

    def rebuild_pending(self, pristine, state: RunState) -> None:
        """Refill the engines' pending buffers after restoring a
        *streamless* checkpoint.

        ``pristine`` is the pre-generation twin of this system,
        unpickled from the baseline checkpoint: regenerating the input
        stream on it reproduces byte-for-byte the sequence the crashed
        run fed, because generation is a pure function of the
        checkpointed RNG states.  The stream is regenerated, split and
        filtered exactly as :meth:`run` fed it; everything already
        admitted by the last completed query is dropped, and the
        engines merge the remainder under the pending entries the
        snapshot retained (crowd feedback SDEs).  All side channels of
        generation — fault counters, flow-estimator observations, the
        prior index — already live in the restored state, so the
        regeneration here deliberately touches only ``pristine``'s
        metrics (discarded with it).
        """
        _, split = self._stream(pristine, state.start, state.end)
        admitted_through = state.next_q - self.config.step
        for region, batch in split.items():
            self.engines[region].refill_columns(batch, admitted_through)

    def _run_loop(self, state: RunState, recovery) -> SystemReport:
        """The recognition loop and end-of-run finalisation."""
        report = state.report
        logs = report.logs
        crowd = self.crowd_loop
        loop_started = time.perf_counter()
        try:
            q = state.next_q
            while q <= state.end:
                step = state.step_index + 1
                arrivals = step_arrivals(state.feed_arrivals, step)
                if recovery is not None:
                    recovery.begin_step(step, q, arrivals)
                state.step_index = step
                degraded = self.degradation.observe(q, arrivals)
                if self._shard_runtime is not None:
                    snapshots = self._shard_runtime.query_step(step, q)
                    # A shard whose restart budget was exhausted inside
                    # query_step entered the degraded set mid-step.
                    degraded = self.degradation.degraded_feeds
                else:
                    snapshots = {
                        region: engine.query(q)
                        for region, engine in self.engines.items()
                    }
                crowd_before = crowd.resolved
                # Crowd feedback produced while handling the step's
                # results, delivered in one end-of-step batch.
                feed: list[Event] = []
                for region, snapshot in snapshots.items():
                    fresh = self._recognised(region, snapshot, logs[region])
                    self._surface_alerts(region, fresh, degraded)
                    feed.extend(
                        self._crowdsource(region, q, fresh, degraded)
                    )
                self._deliver_crowd_feed(step, feed)
                q += self.config.step
                state.next_q = q
                if recovery is not None:
                    recovery.commit_step(step, crowd.resolved - crowd_before)
                    recovery.after_step(self, state)
        except BaseException:
            # Abort path: kill what will not drain, release channels.
            if self._shard_runtime is not None:
                self._shard_runtime.shutdown()
                self._shard_runtime = None
            raise
        finally:
            self.metrics.timing("ingest.loop_seconds").observe(
                time.perf_counter() - loop_started
            )

        # Drain the shard workers *outside* the timed loop (spawn and
        # shutdown are deployment cost, not steady-state recognition
        # cost — the sharded-overhead bench gates the loop time) but
        # *before* the metrics export, so the per-worker registries
        # merge into the report under ``shard.<region>.*``.
        if self._shard_runtime is not None:
            report.shard_events = self._shard_runtime.shutdown()
            self._shard_runtime = None

        report.degraded = self.degradation.finish()
        report.flow_estimates = self.estimate_citywide(state.end)
        report.crowd_resolutions = crowd.resolved
        report.crowd_unresolved = crowd.unresolved
        report.crowd_suppressed = crowd.suppressed
        report.rewards = crowd.settle_rewards()
        self._finalise_metrics(state.end)
        report.metrics = self.metrics.to_dict()
        if recovery is not None:
            recovery.on_run_complete(self, state)
        return report

    def _finalise_metrics(self, end: int) -> None:
        """Derived gauges computed once per run."""
        for region in self.engines:
            prefix = f"process.cep-{region}"
            items = self.metrics.counter(f"{prefix}.items").value
            seconds = self.metrics.timing(f"{prefix}.seconds").total
            if seconds > 0.0:
                self.metrics.gauge(f"{prefix}.items_per_s").set(
                    items / seconds
                )
        ingested = self.metrics.counter("ingest.events").value
        loop_seconds = self.metrics.timing("ingest.loop_seconds").total
        if ingested and loop_seconds > 0.0:
            # End-to-end ingest throughput: every SDE the scheduler
            # handed the engines over the wall-clock time of the
            # recognition loop(s).  The throughput gate benchmarks this
            # against the Dublin arrival rate (~0.5 SDE/s fleet-wide).
            self.metrics.gauge("ingest.events_per_s").set(
                ingested / loop_seconds
            )
        self.metrics.gauge("flow.coverage").set(
            self.flow_estimator.coverage(end)
        )

    # ------------------------------------------------------------------
    # The stages of a step: :meth:`_run_loop` and the processes of the
    # Section 3 graph (:mod:`repro.system.topology`) call these.
    def _feed_region(self, region: str, batch: SDEColumns) -> None:
        """Hand one region's engine a block of the stream, counted."""
        self.metrics.counter("ingest.events").inc(batch.n)
        self.metrics.counter("rtec.ingest.rows_fed").inc(batch.n)
        self.engines[region].feed_columns(batch)

    def _observe_flows(self, traffic: Optional[EventColumns]) -> None:
        """Feed the flow estimator the readings of a ``traffic`` block
        (or ``None``)."""
        if traffic is None:
            return
        node_of = self.scenario.node_of
        for int_id, flow, time in zip(
            traffic.fields["intersection"].tolist(),
            traffic.fields["flow"].tolist(),
            traffic.times.tolist(),
        ):
            node = node_of.get(int_id)
            if node is not None:
                self.flow_estimator.observe(node, flow, time)

    def _recognised(
        self, region: str, snapshot: RecognitionSnapshot, log: RecognitionLog
    ) -> FreshResults:
        """Record one region's query — throughput, per-definition RTEC
        timings and the recognition log — and return what is fresh in
        it.

        ``.items`` counts each SDE exactly once — the snapshot's
        *newly arrived* events — so overlapping windows (window > step)
        no longer inflate the throughput numbers by re-counting the
        shared overlap at every query.
        """
        prefix = f"process.cep-{region}"
        self.metrics.counter(f"{prefix}.queries").inc()
        self.metrics.counter(f"{prefix}.items").inc(snapshot.n_new_events)
        self.metrics.timing(f"{prefix}.seconds").observe(snapshot.elapsed)
        snapshot.record_counters(self.metrics)
        for name, elapsed in snapshot.per_definition.items():
            self.metrics.timing(
                f"rtec.definition.{name}.seconds"
            ).observe(elapsed)
        return log.add(snapshot)

    def _suppressed(self, name: str, degraded: frozenset[str]) -> bool:
        """Whether a CE's alert is untrustworthy under the current
        outages (it reads a degraded feed) — if so, count and drop."""
        if degraded and any(
            feed in degraded for feed in feeds_of_definition(name)
        ):
            self.metrics.counter("system.degraded.alerts_suppressed").inc()
            return True
        return False

    def _surface_alerts(
        self, region: str, fresh, degraded: frozenset[str] = frozenset()
    ) -> None:
        """Turn fresh CE episodes/occurrences into operator alerts.

        Alerts derived from a degraded feed are suppressed: with SCATS
        silent the sensor-side CEs are stale inertia, not news — only
        the surviving feed's alerts keep flowing (graceful degradation).
        """
        for name, key, start, _ in fresh.episodes:
            if self._suppressed(name, degraded):
                continue
            if name == "scatsIntCongestion":
                self.console.notify(
                    start, "scats congestion", str(key[0]),
                    "intersection sensors report congestion", region,
                )
            elif name == "busCongestion":
                self.console.notify(
                    start, "bus congestion", str(key[0]),
                    "buses report congestion", region,
                )
            elif name == "noisyScats":
                self.console.notify(
                    start, "scats unreliable", str(key[0]),
                    "crowd evidence contradicts the intersection sensors",
                    region,
                )
            elif name == "densityTrend" and key[-1] == "rising":
                # Proactive signal (Section 4.3's trend CEs): density
                # building up before the congestion threshold trips.
                self.console.notify(
                    start, "density rising", str(key[0]),
                    f"sensor {key[2]} approach {key[1]} trending up",
                    region,
                )
        for occ in fresh.occurrences:
            if occ.type == "congestionInTheMake" and not self._suppressed(
                occ.type, degraded
            ):
                self.console.notify(
                    occ.time, "congestion in-the-make",
                    f"({occ['lon']:.4f},{occ['lat']:.4f})",
                    f"delay increases from {occ['support']} buses", region,
                )

    def _crowdsource(
        self, region: str, q: int, fresh: FreshResults, degraded: frozenset
    ) -> list[Event]:
        """Crowdsource one region's fresh ``sourceDisagreement``
        episodes of the query at ``q``; the ``crowd`` SDEs to feed back."""
        feed = []
        for _, key, start, _ in fresh.episodes_of("sourceDisagreement"):
            event = self.crowd_loop.resolve(
                region, q, key[0], start, degraded
            )
            if event is not None:
                feed.append(event)
        return feed

    def _deliver_crowd_feed(self, step: int, feed: list[Event]) -> None:
        """Hand the step's crowd SDEs to every engine: over the shard
        bus, or straight into the local engines.

        One delivery at the end of the step recognises exactly what
        feeding each SDE the moment it was produced would: a crowd SDE
        occurs after the current query time, all of the step's
        snapshots were computed before any was handled, and the buffer
        keeps the order the SDEs were produced in — so every engine
        numbers them as it always did.
        """
        if not feed:
            return
        self.metrics.counter("rtec.ingest.rows_fed").inc(
            len(feed) * len(self.engines)
        )
        if self._shard_runtime is not None:
            self._shard_runtime.publish_feed(step, feed)
        else:
            for engine in self.engines.values():
                engine.feed(feed)

    # ------------------------------------------------------------------
    def estimate_citywide(self, t: int) -> dict:
        """Traffic-model snapshot: flow estimates for every junction.

        The GP is fitted on the rolling estimator's fresh *measured*
        SCATS flows plus the crowd pseudo-observations accumulated so
        far; the GP fills in the unsensed junctions — the sparsity
        answer of Section 6.  Before the first reading arrives the
        true flows at the SCATS junctions are used instead.
        """
        scenario = self.scenario
        estimates = self.flow_estimator.estimate(t)
        if estimates is not None:
            return estimates
        observations = {
            node: greenshields_flow(
                scenario.ground_truth.density(node, t)
            )
            for node in scenario.node_of.values()
        }
        model = TrafficFlowModel(
            scenario.network.graph, **GP_HYPERPARAMETERS
        )
        model.fit(observations)
        return model.estimate()

    def render_city_map(self, t: int) -> str:
        """The operator's ASCII city map of estimated flows at ``t``."""
        estimates = self.estimate_citywide(t)
        return render_flow_map(self.scenario.network.positions(), estimates)

    def export_city_svg(self, t: int, path) -> None:
        """Write the operator map as an SVG image (Figure 9 analog).

        Junction dots are shaded by *congestion* (low flow = red), the
        street network is drawn underneath and SCATS junctions carry a
        ring marker (Figures 7-8).
        """
        estimates = self.estimate_citywide(t)
        peak = max(estimates.values(), default=0.0)
        congestion = {n: peak - v for n, v in estimates.items()}
        write_city_svg(
            path,
            self.scenario.network.positions(),
            self.scenario.network.graph.edges,
            values=congestion,
            sensors=self.scenario.node_of.values(),
            title=f"estimated congestion at t={t}s (red = congested)",
        )
