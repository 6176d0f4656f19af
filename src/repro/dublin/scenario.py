"""Scenario assembly: a complete, replayable synthetic Dublin.

Bundles the street network, SCATS topology, ground truth and the two
sensor simulators into one configurable object, and materialises the
merged SDE stream the paper's system consumes.  The default
configuration matches the January-2013 dataset's scale: 942 buses
emitting every 20–30 s and 966 SCATS intersections reporting every six
minutes, partitioned into four city regions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ..core.columns import RecordSequence, SDEColumns
from ..core.events import Event, FluentFact
from ..core.traffic import ScatsTopology
from .buses import BusFleetSimulator, BusLine, make_lines
from .ground_truth import TrafficGroundTruth
from .network import (
    REGIONS,
    StreetNetwork,
    generate_street_network,
    place_scats_topology,
)
from .scats import ScatsSensorSimulator


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of a synthetic Dublin scenario.

    The defaults reproduce the paper's deployment scale; tests and
    benchmarks shrink them for speed.
    """

    seed: int = 0
    #: Street-network grid size.
    rows: int = 28
    cols: int = 40
    #: SCATS deployment size (966 sensors in the paper; here the count
    #: is intersections, each with 2-4 detectors).
    n_intersections: int = 350
    sensors_range: tuple[int, int] = (2, 4)
    #: Bus fleet.
    n_buses: int = 942
    n_lines: int = 40
    unreliable_fraction: float = 0.0
    unreliable_mode: str = "stuck_congested"
    #: Ground truth.
    n_incidents: int = 6
    incident_window: tuple[int, int] = (0, 24 * 3600)
    #: Sensor faults.
    scats_fault_rate: float = 0.0


@dataclass
class ScenarioData:
    """The SDE stream of one scenario run, as columns.

    ``columns`` holds one time-sorted block per event type and fact
    name.  :attr:`events` and :attr:`facts` are read-only, time-ordered
    sequences over them whose records are built on access, for
    consumers that want objects (the CLI, dataset export, tests); the
    pipeline reads the arrays and builds none.
    """

    columns: SDEColumns
    start: int
    end: int

    @classmethod
    def from_sdes(
        cls,
        events: Iterable[Event],
        facts: Iterable[FluentFact],
        start: int,
        end: int,
    ) -> "ScenarioData":
        """Wrap a time-ordered object stream (a loaded dataset).
        Records come back in time order, those of one time-point
        grouped by type."""
        return cls(SDEColumns.from_sdes(events, facts), start, end)

    @cached_property
    def events(self) -> RecordSequence:
        """Every SDE in time order (ties: block order, then row)."""
        return RecordSequence(self.columns.events)

    @cached_property
    def facts(self) -> RecordSequence:
        """Every input-fluent fact in time order."""
        return RecordSequence(self.columns.facts)

    @property
    def n_sdes(self) -> int:
        """Total SDE count (move + traffic events)."""
        return self.columns.n_events

    def sde_rate(self) -> float:
        """Mean SDEs per second over the run."""
        span = max(self.end - self.start, 1)
        return self.n_sdes / span


def _time_sorted(block):
    """``block`` with its rows in stable occurrence-time order."""
    if np.all(block.times[1:] >= block.times[:-1]):
        return block
    return block.take(np.argsort(block.times, kind="stable"))


class DublinScenario:
    """A fully-wired synthetic Dublin deployment.

    Builds (deterministically from the config seed): the street
    network, the SCATS topology and its placement, the ground-truth
    traffic dynamics, and the two SDE simulators.  Use
    :meth:`generate` to materialise a stream for a time span and
    :meth:`split_by_region` to reproduce the paper's four-way
    distribution of event recognition.
    """

    def __init__(
        self,
        config: Optional[ScenarioConfig] = None,
        *,
        network: Optional[StreetNetwork] = None,
        ground_truth: Optional[TrafficGroundTruth] = None,
    ):
        """Build the deployment, optionally around injected substrate.

        ``network`` and ``ground_truth`` are the generator seam the
        scenario DSL (:mod:`repro.scenarios`) compiles through: a
        caller may hand in a street network from another topology
        family (radial, multi-centre) and/or a ground truth carrying
        incident storms, demand surges or weather windows, and gets
        back an object that runs unchanged through every pipeline —
        the SCATS placement, bus lines and simulators are wired
        exactly as for the default procedural Dublin.
        """
        self.config = config or ScenarioConfig()
        cfg = self.config
        self.network: StreetNetwork = network or generate_street_network(
            rows=cfg.rows, cols=cfg.cols, seed=cfg.seed
        )
        self.topology: ScatsTopology
        self.node_of: dict
        self.topology, self.node_of = place_scats_topology(
            self.network,
            n_intersections=cfg.n_intersections,
            sensors_range=cfg.sensors_range,
            seed=cfg.seed + 1,
        )
        self.ground_truth = ground_truth or TrafficGroundTruth(
            self.network,
            seed=cfg.seed + 2,
            n_random_incidents=cfg.n_incidents,
            incident_window=cfg.incident_window,
        )
        self.lines: list[BusLine] = make_lines(
            self.network, cfg.n_lines, seed=cfg.seed + 3
        )
        self.buses = BusFleetSimulator(
            self.network,
            self.ground_truth,
            self.lines,
            n_buses=cfg.n_buses,
            unreliable_fraction=cfg.unreliable_fraction,
            unreliable_mode=cfg.unreliable_mode,
            seed=cfg.seed + 4,
        )
        self.scats = ScatsSensorSimulator(
            self.topology,
            self.node_of,
            self.ground_truth,
            fault_rate=cfg.scats_fault_rate,
            seed=cfg.seed + 5,
        )

    # ------------------------------------------------------------------
    def generate(self, start: int, end: int) -> ScenarioData:
        """The merged SDE stream for ``[start, end)``: one city-wide
        batch of ``move`` and ``traffic`` events and ``gps`` facts,
        each block in stable time order."""
        move, gps = self.buses.columns(start, end)
        traffic = self.scats.columns(start, end)
        return ScenarioData(
            SDEColumns(
                [_time_sorted(move), _time_sorted(traffic)],
                [_time_sorted(gps)],
            ),
            start,
            end,
        )

    def split_by_region(
        self, data: ScenarioData, *, groups: Optional[Mapping] = None
    ) -> dict[str, SDEColumns]:
        """Partition a stream into the four city regions.

        Reproduces the paper's distribution strategy: "each processor
        computed CEs concerning the SCATS sensors of one of the four
        areas of Dublin as well as CE concerning the buses that go
        through that area" (Section 7.1).

        ``traffic`` rows are assigned by their intersection's location;
        ``move`` rows by the position of the ``gps`` fact sharing their
        ``(bus, time)`` — the last such fact when several do — and to
        ``central`` when none does; any other event type goes to
        ``central``.  A ``gps`` fact travels with every ``move`` row it
        is paired with (twice with a duplicated ``move``, nowhere
        without one).  The join is a sort and a binary search over
        integer ``(bus, time)`` keys; no record is built.

        ``groups`` optionally maps each region name onto a coarser
        partition key (``{"central": "east", "north": "east", ...}``):
        the returned dict is then keyed by group, with each group's
        streams merged in the original global time order.  The region
        assignment itself is unchanged — grouping only changes which
        engine a region's SDEs are delivered to, which is how the
        pipeline packs four regions onto fewer shards.

        Returns one :class:`~repro.core.columns.SDEColumns` per engine
        key, its blocks in the order the engine numbers them.
        """
        if groups is None:
            keys: list = list(REGIONS)
            key_of = {region: region for region in REGIONS}
        else:
            keys = list(dict.fromkeys(groups[r] for r in REGIONS))
            key_of = {region: groups[region] for region in REGIONS}
        #: region code -> engine (position in ``keys``).
        engine_of = np.array(
            [keys.index(key_of[region]) for region in REGIONS]
        )
        gps = data.columns.fact_block("gps")
        split: dict[str, tuple[list, list]] = {key: ([], []) for key in keys}
        for block in data.columns.events:
            region = np.full(len(block), REGIONS.index("central"))
            paired = None
            if block.type == "traffic":
                table: dict = {}
                codes = _codes(block.fields["intersection"], table)
                lon, lat = np.array(
                    [self.topology.location(int_id) for int_id in table]
                ).reshape(-1, 2).T
                region = self.network.region_codes(lon, lat)[codes]
            elif block.type == "move" and gps is not None and len(block):
                paired = _last_matching_row(
                    block.fields["bus"], block.times,
                    gps.key_columns[0], gps.times,
                )
                found = paired[paired >= 0]
                region[paired >= 0] = self.network.region_codes(
                    gps.value_fields["lon"][found],
                    gps.value_fields["lat"][found],
                )
            engine = engine_of[region]
            for k, key in enumerate(keys):
                rows = np.flatnonzero(engine == k)
                split[key][0].append(block.take(rows))
                if paired is not None:
                    hits = paired[rows]
                    split[key][1].append(gps.take(hits[hits >= 0]))
        return {
            key: SDEColumns(events, facts).in_stream_order()
            for key, (events, facts) in split.items()
        }


def _codes(values: np.ndarray, table: dict) -> np.ndarray:
    """Integer codes of ``values`` under ``table`` (value -> code),
    which grows by the values it has not seen."""
    values = values.tolist()
    for value in values:
        if value not in table:
            table[value] = len(table)
    return np.fromiter(
        map(table.__getitem__, values), dtype=np.int64, count=len(values)
    )


def _last_matching_row(
    left_ids: np.ndarray,
    left_times: np.ndarray,
    right_ids: np.ndarray,
    right_times: np.ndarray,
) -> np.ndarray:
    """Per left row, the index of the *last* right row with the same
    ``(id, time)``, or ``-1``: the array form of looking each left row
    up in a ``{(id, time): row}`` dict filled by scanning the right
    rows in order."""
    if not len(right_ids):
        return np.full(len(left_ids), -1)
    table: dict = {}
    right_codes = _codes(right_ids, table)
    left_codes = _codes(left_ids, table)
    t0 = min(int(left_times.min()), int(right_times.min()))
    span = max(int(left_times.max()), int(right_times.max())) - t0 + 1
    left_keys = left_codes * span + (left_times - t0)
    right_keys = right_codes * span + (right_times - t0)
    # A stable sort keeps equal keys in row order, so side="right"
    # lands just past the last row of a key.
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    at = np.maximum(
        np.searchsorted(sorted_keys, left_keys, side="right") - 1, 0
    )
    return np.where(sorted_keys[at] == left_keys, order[at], -1)
