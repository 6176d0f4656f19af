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

:func:`build_paper_topology` is that graph as a second *wiring* of one
:class:`~repro.system.pipeline.UrbanTrafficSystem`: the system's own
per-region engines, crowd loop and flow estimator behind the paper's
sources, intake filters, per-region CEP processes, crowdsourcing
process and feedback processes.  What the graph adds to the direct
loop is transport: every SDE crosses it as one data item.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rtec import RTEC
from ..crowd import CrowdsourcingComponent
from ..dublin import REGIONS
from ..dublin.dataset import event_to_item, fact_to_item
from ..streams import Filter, SetAttributes, Tap, Topology
from ..streams.items import TIME_KEY
from ..traffic_model import RollingFlowEstimator
from .pipeline import UrbanTrafficSystem
from .processors import (
    CrowdsourcingProcessor,
    FluentFeedbackProcessor,
    RtecProcessor,
)


@dataclass
class PaperTopology:
    """The graph plus handles to the system's components it runs."""

    topology: Topology
    rtec_processors: dict[str, RtecProcessor]
    engines: dict[str, RTEC]
    crowd: CrowdsourcingComponent
    flow_estimator: RollingFlowEstimator


def build_paper_topology(system: UrbanTrafficSystem, data) -> PaperTopology:
    """Wire ``system`` as the Section 3 data-flow graph over ``data``.

    Sources: ``buses`` (one stream, ``move`` SDEs + ``gps`` facts
    interleaved), ``scats-<region>`` (four streams of ``traffic``
    SDEs) and ``end-of-stream`` (one tick past the data's end, so the
    last query time runs inside the graph like every other).
    Processes: ``cep-<region>`` (the system's engine of that region,
    consuming the bus stream and its region's SCATS stream via a merge
    queue; its CEs are stamped with the region on their way to the
    ``complex-events`` queue), ``crowdsourcing`` (the system's crowd
    loop) and ``feedback-<region>``.  Service: ``traffic-model`` (the
    system's flow estimator, fed by a tap on the SCATS streams).
    """
    if list(system.engines) != list(REGIONS) or system.config.sharded:
        raise ValueError(
            "the paper's graph has four regional streams: it wires a "
            "system with one in-process engine per region (no "
            "region_groups or sharded)"
        )
    scenario = system.scenario
    flow_estimator = system.flow_estimator
    topology = Topology()

    # --- input handling ---------------------------------------------------
    bus_items = [event_to_item(e) for e in data.events if e.type == "move"]
    bus_items.extend(fact_to_item(f) for f in data.facts)
    topology.source("buses", bus_items)
    for region, batch in scenario.split_by_region(data).items():
        topology.source(
            f"scats-{region}",
            [
                event_to_item(e)
                for e in batch.iter_events()
                if e.type == "traffic"
            ],
        )
    topology.source("end-of-stream", [{TIME_KEY: data.end + 1}])

    # Region code of every bus emission, from its gps position: it
    # decides for the ``move`` item and its paired ``fluent:gps`` item.
    region_index: dict = {}
    gps = data.columns.fact_block("gps")
    if gps is not None:
        region_index = dict(
            zip(
                zip(gps.key_columns[0].tolist(), gps.times.tolist()),
                scenario.network.region_codes(
                    gps.value_fields["lon"], gps.value_fields["lat"]
                ).tolist(),
            )
        )
    system.crowd_loop.index_bus_reports(gps)

    def in_region(code):
        def keep(item):
            type_tag = item.get("@type")
            if type_tag == "move":
                key = (item["bus"], item[TIME_KEY])
            elif type_tag == "fluent:gps":
                key = (item["@key"][0], item[TIME_KEY])
            else:
                return False
            return region_index.get(key) == code

        return keep

    # --- traffic-model service ---------------------------------------------
    topology.service("traffic-model", flow_estimator)
    node_of = scenario.node_of

    def feed_traffic_model(item):
        """Tap: forward a SCATS reading into the traffic-model service."""
        node = node_of.get(item.get("intersection"))
        if node is not None:
            flow_estimator.observe(node, item["flow"], item[TIME_KEY])

    # --- event processing processes -----------------------------------------
    # The rows the graph hands the engines, counted where they enter a
    # CEP or feedback process: the direct loop counts the same rows at
    # its ``feed_columns`` and crowd-feed calls.
    metrics = system.metrics

    def count_stream_row(item):
        metrics.counter("ingest.events").inc()
        metrics.counter("rtec.ingest.rows_fed").inc()

    def count_crowd_row(item):
        metrics.counter("rtec.ingest.rows_fed").inc()

    rtec_processors = {
        region: RtecProcessor(engine, start=data.start)
        for region, engine in system.engines.items()
    }
    for code, region in enumerate(REGIONS):
        # Region merge: buses + this region's SCATS into one queue.
        topology.process(
            f"scats-intake-{region}",
            input=f"scats-{region}",
            processors=[Tap(feed_traffic_model)],
            output=f"region-{region}",
        ).process(
            f"bus-intake-{region}",
            input="buses",
            processors=[Filter(in_region(code))],
            output=f"region-{region}",
        ).process(
            f"cep-{region}",
            input=f"region-{region}",
            processors=[Tap(count_stream_row), rtec_processors[region]],
            output=f"ce-{region}",
        ).process(
            f"ce-stamp-{region}",
            input=f"ce-{region}",
            processors=[SetAttributes(region=region)],
            output="complex-events",
        )

    # --- crowdsourcing processes ---------------------------------------------
    topology.process(
        "crowdsourcing",
        input="complex-events",
        processors=[CrowdsourcingProcessor(system.crowd_loop)],
        output="crowd-answers",
    )
    for region, engine in system.engines.items():
        topology.process(
            f"feedback-{region}",
            input="crowd-answers",
            processors=[Tap(count_crowd_row), FluentFeedbackProcessor(engine)],
        )

    return PaperTopology(
        topology=topology,
        rtec_processors=rtec_processors,
        engines=system.engines,
        crowd=system.crowd,
        flow_estimator=flow_estimator,
    )

