"""The paper's exact Streams wiring.

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

:data:`PAPER_GRAPH_XML` is that graph in the middleware's XML dialect,
and :func:`paper_registry` resolves its classes to one
:class:`~repro.system.pipeline.UrbanTrafficSystem`: the streams carry
the system's own input split, one column block per feed and
recognition step, and the processes call the system's own step stages.
So :func:`build_paper_topology` is a second *wiring* of the direct
loop, not a second system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.columns import SDEColumns
from ..core.rtec import RTEC
from ..crowd import CrowdsourcingComponent
from ..dublin import REGIONS
from ..streams import Tap, Topology, Transform, parse_topology
from ..streams.items import TIME_KEY
from ..traffic_model import RollingFlowEstimator
from .pipeline import UrbanTrafficSystem, step_arrivals
from .processors import (
    CrowdsourcingProcessor,
    FluentFeedbackProcessor,
    RtecProcessor,
)

_REGION_XML = """
  <stream id="scats-{r}" class="system.Scats" region="{r}"/>
  <process id="scats-intake-{r}" input="scats-{r}" output="region-{r}">
    <processor class="system.ObserveFlows"/>
  </process>
  <process id="bus-intake-{r}" input="buses" output="region-{r}">
    <processor class="system.RegionBlock" region="{r}"/>
  </process>
  <process id="cep-{r}" input="region-{r}" output="complex-events">
    <processor class="system.Rtec" region="{r}"/>
  </process>"""

#: The Section 3 graph.  Per recognition step, ``feed-arrivals``
#: carries each feed's arrival count (the liveness signal), ``buses``
#: every region's bus rows and ``scats-<region>`` the region's
#: ``traffic`` rows, the region decided once by the system's split.
#: ``alerts`` and ``crowdsourcing`` take the regions' results in region
#: order, as the loop does.
PAPER_GRAPH_XML = f"""<container>
  <service id="traffic-model" class="system.TrafficModel"/>
  <stream id="feed-arrivals" class="system.FeedArrivals"/>
  <process id="liveness" input="feed-arrivals">
    <processor class="system.Liveness"/>
  </process>
  <stream id="buses" class="system.Buses"/>
{''.join(_REGION_XML.format(r=region) for region in REGIONS)}
  <process id="alerts" input="complex-events">
    <processor class="system.Alerts"/>
  </process>
  <process id="crowdsourcing" input="complex-events" output="crowd-answers">
    <processor class="system.Crowdsourcing"/>
  </process>
  <process id="feedback" input="crowd-answers">
    <processor class="system.Feedback"/>
  </process>
</container>
"""


@dataclass
class PaperTopology:
    """The graph plus handles to the system's components it runs."""

    topology: Topology
    rtec_processors: dict[str, RtecProcessor]
    engines: dict[str, RTEC]
    crowd: CrowdsourcingComponent
    flow_estimator: RollingFlowEstimator


def _by_step(batch: SDEColumns, query_times: np.ndarray) -> list[SDEColumns]:
    """``batch`` cut into one block per recognition step, by arrival:
    what arrives by the first query time, then what arrives in each
    later step.  What arrives after the last query goes with the last
    step, where the engine keeps it pending as the loop's whole-run
    feed does."""
    last = len(query_times) - 1
    parts = []
    for block in batch.blocks:
        step = np.minimum(
            np.searchsorted(query_times, block.arrivals, side="left"), last
        )
        order = np.argsort(step, kind="stable")
        cuts = np.searchsorted(step[order], np.arange(last + 2)).tolist()
        parts.append(
            [block.take(order[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        )
    n_events = len(batch.events)
    return [
        SDEColumns(
            [blocks[i] for blocks in parts[:n_events]],
            [blocks[i] for blocks in parts[n_events:]],
        )
        for i in range(len(query_times))
    ]


def paper_registry(system: UrbanTrafficSystem, start: int, end: int) -> dict:
    """The classes of :data:`PAPER_GRAPH_XML`, resolved to ``system``
    running over ``[start, end)``.

    Generates the system's stream and indexes the crowd priors as the
    direct loop's ingest does; the streams then carry it a step at a
    time.
    """
    data, split = system._generate(start, end)
    system.crowd_loop.index_bus_reports(data.columns.fact_block("gps"))
    step = system.config.step
    query_times = np.arange(start + step, end + 1, step)
    feed_arrivals = system._feed_arrivals(data, start, end)
    steps = list(enumerate(query_times.tolist(), 1))
    buses, scats = {}, {}
    for region, batch in split.items():
        traffic = [b for b in batch.events if b.type == "traffic"]
        others = [b for b in batch.events if b.type != "traffic"]
        buses[region] = _by_step(SDEColumns(others, batch.facts), query_times)
        scats[region] = _by_step(SDEColumns(traffic), query_times)
    arrivals = [
        {TIME_KEY: q, "arrivals": step_arrivals(feed_arrivals, i)}
        for i, q in steps
    ]
    bus_items = [
        {TIME_KEY: q, "step": i, "feed": "bus",
         "blocks": {r: blocks[i - 1] for r, blocks in buses.items()}}
        for i, q in steps
    ]

    def scats_items(region):
        return [
            {TIME_KEY: q, "step": i, "feed": "scats",
             "block": scats[region][i - 1]}
            for i, q in steps
        ]

    return {
        "system.TrafficModel": lambda: system.flow_estimator,
        "system.FeedArrivals": lambda: arrivals,
        "system.Buses": lambda: bus_items,
        "system.Scats": scats_items,
        "system.Liveness": lambda: Tap(
            lambda item: system.degradation.observe(
                item[TIME_KEY], item["arrivals"]
            )
        ),
        "system.ObserveFlows": lambda: Tap(
            lambda item: system._observe_flows(
                item["block"].event_block("traffic")
            )
        ),
        "system.RegionBlock": lambda region: Transform(
            lambda item: {**item, "block": item["blocks"][region]}
        ),
        "system.Rtec": lambda region: RtecProcessor(system, region),
        "system.Alerts": lambda: Tap(
            lambda item: system._surface_alerts(
                item["region"], item["fresh"],
                system.degradation.degraded_feeds,
            )
        ),
        "system.Crowdsourcing": lambda: CrowdsourcingProcessor(system),
        "system.Feedback": lambda: FluentFeedbackProcessor(system),
    }


def build_paper_topology(
    system: UrbanTrafficSystem, start: int, end: int
) -> PaperTopology:
    """Wire ``system`` as the Section 3 data-flow graph over
    ``[start, end)``: :data:`PAPER_GRAPH_XML` through
    :func:`paper_registry`.

    Running the graph recognises, alerts, crowdsources and degrades
    exactly as ``system.run(start, end)`` would; what that run does
    after its last step (the outage timeline, the flow snapshot, the
    metrics' derived gauges) is the caller's.
    """
    if list(system.engines) != list(REGIONS) or system.config.sharded:
        raise ValueError(
            "the paper's graph has four regional streams: it wires a "
            "system with one in-process engine per region (no "
            "region_groups or sharded)"
        )
    topology = parse_topology(
        PAPER_GRAPH_XML, paper_registry(system, start, end)
    )
    return PaperTopology(
        topology=topology,
        rtec_processors={
            region: topology.processes[f"cep-{region}"].processors[0]
            for region in REGIONS
        },
        engines=system.engines,
        crowd=system.crowd,
        flow_estimator=system.flow_estimator,
    )
