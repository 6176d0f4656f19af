"""The paper's exact Streams wiring, built programmatically.

Section 3 describes the deployed data-flow graph:

* *input handling processes*: "all SDEs emitted by buses form one
  stream, while the SDE emitted by vehicle detectors of a SCATS system
  are referenced by four streams, one per region of Dublin city";
* *event processing processes*: CE definitions wrapped by processors
  embedding RTEC;
* *crowdsourcing processes*: participant selection/query generation and
  response processing as dedicated processors;
* *traffic modelling processes*: the congestion-estimation procedure
  wrapped as a Streams *service*.

:func:`build_paper_topology` reproduces that graph over a synthetic
scenario: one bus source, four per-region SCATS sources, one RTEC
process per region (each consuming the merged region traffic), the
crowdsourcing process fed from the CE queues, and the feedback process
closing the loop — with the rolling flow estimator registered as the
``traffic-model`` service.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.rtec import RTEC
from ..core.traffic import build_traffic_definitions, default_traffic_params
from ..crowd import (
    CrowdsourcingComponent,
    OnlineEM,
    Participant,
    QueryExecutionEngine,
)
from ..dublin import REGIONS, DublinScenario
from ..dublin.dataset import event_to_item, fact_to_item
from ..streams import Processor, Topology
from ..streams.items import TIME_KEY
from ..traffic_model import RollingFlowEstimator
from .processors import (
    CrowdsourcingProcessor,
    FluentFeedbackProcessor,
    RtecProcessor,
)


@dataclass
class PaperTopology:
    """The constructed graph plus handles to its live components."""

    topology: Topology
    rtec_processors: dict[str, RtecProcessor]
    engines: dict[str, RTEC]
    crowd: CrowdsourcingComponent
    flow_estimator: RollingFlowEstimator

    def flush(self, until: int) -> None:
        """Run the outstanding RTEC query times of every region."""
        for processor in self.rtec_processors.values():
            processor.flush(until)


def build_paper_topology(
    scenario: DublinScenario,
    data,
    *,
    window: int = 600,
    step: int = 300,
    noisy_variant: str = "crowd",
    n_participants: int = 40,
    seed: int = 0,
    incremental: bool = True,
) -> PaperTopology:
    """Assemble the Section 3 data-flow graph for a generated stream.

    Sources: ``buses`` (one stream, ``move`` SDEs + ``gps`` facts
    interleaved) and ``scats-<region>`` (four streams of ``traffic``
    SDEs).  Processes: ``cep-<region>`` (RTEC per region, consuming the
    bus stream and its region's SCATS stream via a merge queue),
    ``crowdsourcing`` and ``adaptation-feedback``.  Service:
    ``traffic-model`` (a rolling GP estimator fed by a tap on the SCATS
    streams).
    """
    split = scenario.split_by_region(data)
    topology = Topology()

    # --- input handling ---------------------------------------------------
    bus_items = []
    for event in data.events:
        if event.type == "move":
            bus_items.append(event_to_item(event))
    for fact in data.facts:
        bus_items.append(fact_to_item(fact))
    topology.source("buses", bus_items)

    for region in REGIONS:
        items = [
            event_to_item(e)
            for e in split[region].iter_events()
            if e.type == "traffic"
        ]
        topology.source(f"scats-{region}", items)

    # Region of every bus emission, from its gps position.
    region_index = {
        (fact.key[0], fact.time): scenario.network.region_of(
            fact.value["lon"], fact.value["lat"]
        )
        for fact in data.facts
        if fact.name == "gps"
    }

    # --- traffic-model service ---------------------------------------------
    flow_estimator = RollingFlowEstimator(scenario.network.graph)
    topology.service("traffic-model", flow_estimator)

    # --- event processing processes -----------------------------------------
    params = default_traffic_params()
    engines: dict[str, RTEC] = {}
    rtec_processors: dict[str, RtecProcessor] = {}
    node_of = scenario.node_of

    class _FeedTrafficModel(Processor):
        """Tap: forward SCATS readings into the traffic-model service."""

        def process(self, item):
            node = node_of.get(item.get("intersection"))
            if node is not None:
                flow_estimator.observe(node, item["flow"], item[TIME_KEY])
            return item

    for region in REGIONS:
        engine = RTEC(
            build_traffic_definitions(
                scenario.topology, adaptive=True, noisy_variant=noisy_variant
            ),
            window=window,
            step=step,
            params=params,
            incremental=incremental,
        )
        engines[region] = engine
        rtec_processors[region] = RtecProcessor(engine)
        # Region merge: buses + this region's SCATS into one queue.
        topology.process(
            f"scats-intake-{region}",
            input=f"scats-{region}",
            processors=[_FeedTrafficModel()],
            output=f"region-{region}",
        ).process(
            f"bus-intake-{region}",
            input="buses",
            processors=[_RegionFilter(region, region_index)],
            output=f"region-{region}",
        ).process(
            f"cep-{region}",
            input=f"region-{region}",
            processors=[rtec_processors[region]],
            output="complex-events",
        )

    # --- crowdsourcing processes ---------------------------------------------
    crowd_engine = QueryExecutionEngine(seed=seed)
    rng = random.Random(seed)
    intersections = scenario.topology.ids()
    for i in range(n_participants):
        int_id = rng.choice(intersections)
        lon, lat = scenario.topology.location(int_id)
        crowd_engine.register(
            Participant(
                f"C{i:03d}",
                rng.uniform(0.05, 0.4),
                lon=lon,
                lat=lat,
                connection=rng.choice(("2g", "3g", "wifi")),
            )
        )
    crowd = CrowdsourcingComponent(crowd_engine, aggregator=OnlineEM())

    def _truth(int_id, t):
        return scenario.ground_truth.congestion_label(
            scenario.node_of[int_id], t
        )

    topology.process(
        "crowdsourcing",
        input="complex-events",
        processors=[
            CrowdsourcingProcessor(
                crowd,
                locate=scenario.topology.location,
                truth_lookup=_truth,
            )
        ],
        output="crowd-answers",
    )
    for region in REGIONS:
        topology.process(
            f"feedback-{region}",
            input="crowd-answers",
            processors=[FluentFeedbackProcessor(engines[region])],
        )

    return PaperTopology(
        topology=topology,
        rtec_processors=rtec_processors,
        engines=engines,
        crowd=crowd,
        flow_estimator=flow_estimator,
    )


class _RegionFilter(Processor):
    """Processor passing only the bus items of one region.

    The region of a bus emission is decided by its gps position; a
    precomputed ``(bus, time) -> region`` index (built from the gps
    facts when the topology is assembled) resolves both the ``move``
    item and its paired ``fluent:gps`` item.
    """

    def __init__(self, region: str, region_index: dict):
        self._region = region
        self._index = region_index

    def process(self, item):
        type_tag = item.get("@type", "")
        if type_tag == "move":
            key = (item["bus"], item[TIME_KEY])
        elif type_tag == "fluent:gps":
            key = (item["@key"][0], item[TIME_KEY])
        else:
            return None
        if self._index.get(key) == self._region:
            return item
        return None
