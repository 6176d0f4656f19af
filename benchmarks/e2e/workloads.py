"""The benchmark's four workloads.

Each workload turns ``--seed`` into configs and hands only those to the
system: ``prepare`` builds the scenario and ``UrbanTrafficSystem`` (the
work ``setup_s`` times), ``oracle`` builds the reference twin the
committed digests were recorded from.  Spans are simulated seconds of
day; every replay is ``system.run(start, end, recovery=...)`` on the
simulated clock.

The city is a fixed data set, as the paper's January-2013 Dublin was:
``ScenarioConfig(seed=0)`` and the storm document's own seed.
``--seed`` seeds the system — where the crowd participants stand, what
they answer, which SDEs the fault profile delays, drops or corrupts —
on every workload but ``dublin_wm110``, which replays one input.
Measured on seeds 0-3, re-rolling the city moved the median step by a
fifth and the largest steps by a factor of two between seeds, which
would leave no room under any bound for telling two commits apart.

The spans are shorter than the issue's first sizing (24/24/24/100
steps): the builder's contract runs the command 92 times inside 3420 s,
about 37 s per invocation including interpreter start, warm-up, set-up
and calibration, on a box that is at times half as fast as at others.
The three Dublin workloads were cut to 12 steps and
``storm_chaos_durable`` to 60, which is six periodic checkpoints and
six samples beyond a 90th percentile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from repro.dublin.scenario import DublinScenario, ScenarioConfig
from repro.recovery import CheckpointCoordinator
from repro.scenarios import GROUPS2, ScenarioSpec, compile_scenario
from repro.system.pipeline import SystemConfig, UrbanTrafficSystem

HERE = Path(__file__).resolve().parent

#: ``ScenarioConfig.seed`` of the three Dublin workloads.
CITY_SEED = 0


@dataclass(frozen=True)
class Prepared:
    """One replay's inputs: a fresh system and its recovery sidecar."""

    system: UrbanTrafficSystem
    recovery: Optional[CheckpointCoordinator]


@dataclass(frozen=True)
class Workload:
    #: As in ``BENCHMARK.json``, which also says why it is here.
    name: str
    #: Simulated span of a full replay and of a ``--smoke`` replay.
    start: int
    end: int
    smoke_end: int
    #: ``() -> DublinScenario`` — the scenario half of set-up.
    scenario: Callable[[], DublinScenario]
    #: ``(seed, scratch_dir) -> SystemConfig`` for the path under test.
    config: Callable[[int, Path], SystemConfig]
    #: Attach a pipeline-level ``CheckpointCoordinator``.
    durable: bool = False
    #: Whether ``--seed`` reaches the workload at all.
    seeded: bool = True
    #: Memory touched and released before the clock starts: about what
    #: the replay (and its shard workers) will allocate.  On this
    #: guest a page's first touch costs 20-100 us on the host, up to a
    #: third of a replay's wall, unless the page was in use moments ago
    #: (README, Findings).
    prefault_mb: int = 320

    def span(self, smoke: bool) -> tuple[int, int]:
        return self.start, (self.smoke_end if smoke else self.end)

    def prepare(self, seed: int, scratch: Path) -> Prepared:
        """Build scenario + system: exactly what ``setup_s`` measures."""
        system = UrbanTrafficSystem(
            self.scenario(), self.config(seed, scratch)
        )
        recovery = None
        if self.durable:
            recovery = CheckpointCoordinator(scratch / "checkpoints")
        return Prepared(system, recovery)

    def oracle(self, seed: int, scratch: Path) -> Prepared:
        """The reference twin: from-scratch evaluator, interpreted
        rules, in-process, no recovery, same region grouping."""
        config = replace(
            self.config(seed, scratch),
            incremental=False,
            compiled_rules=False,
            sharded=False,
            shard_dir=None,
        )
        return Prepared(
            UrbanTrafficSystem(self.scenario(), config), None
        )


def _storm_spec() -> ScenarioSpec:
    return ScenarioSpec.from_mapping(
        json.loads((HERE / "storm_chaos_durable.json").read_text())
    )


def _storm_config(seed: int, scratch: Path) -> SystemConfig:
    spec = _storm_spec()
    return SystemConfig(seed=spec.seed + seed, **spec.system_overrides)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="dublin_rush",
        start=25200,
        end=28800,
        smoke_end=25800,
        scenario=lambda: DublinScenario(ScenarioConfig(seed=CITY_SEED)),
        config=lambda seed, scratch: SystemConfig(seed=seed),
    ),
    Workload(
        name="dublin_wm110",
        start=25200,
        end=32400,
        smoke_end=26400,
        scenario=lambda: DublinScenario(
            ScenarioConfig(seed=CITY_SEED, n_buses=450)
        ),
        # Unseeded: with a 500 MB heap a full collection costs as much
        # as a step, and a different crowd moves the collections in or
        # out of the engine's own CPU timer, which alone moved
        # step_cpu_ms_mean by a quarter between seeds (README, Findings).
        config=lambda seed, scratch: SystemConfig(
            seed=0, window=6600, step=600
        ),
        seeded=False,
        prefault_mb=448,
    ),
    Workload(
        name="dublin_rush_sharded2",
        start=25200,
        end=28800,
        smoke_end=25800,
        scenario=lambda: DublinScenario(ScenarioConfig(seed=CITY_SEED)),
        config=lambda seed, scratch: SystemConfig(
            seed=seed,
            sharded=True,
            region_groups=GROUPS2,
            shard_dir=str(scratch / "shards"),
        ),
        prefault_mb=1024,
    ),
    Workload(
        name="storm_chaos_durable",
        # Mirrors ``start``/``duration`` of storm_chaos_durable.json
        # (the storm window is relative to the document's start).
        start=27000,
        end=30600,
        smoke_end=27600,
        scenario=lambda: compile_scenario(_storm_spec()),
        config=_storm_config,
        durable=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
