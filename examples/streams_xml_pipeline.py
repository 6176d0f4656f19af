#!/usr/bin/env python3
"""Declarative wiring: the whole loop as a Streams XML data-flow graph.

The paper's middleware "provides a XML-based language for the
description of data flow graphs" (Section 3).  This example describes
the Dublin pipeline — SDE stream → RTEC processor → CE queue →
crowdsourcing processor → crowd-answer queue → feedback processor —
entirely in XML, runs it on the deterministic runtime and inspects the
queues.

Usage::

    python examples/streams_xml_pipeline.py
"""

from repro.core import RTEC
from repro.core.traffic import build_traffic_definitions, default_traffic_params
from repro.dublin import DublinScenario, ScenarioConfig, stream_items
from repro.obs import Registry
from repro.streams import Counter, StreamRuntime, parse_topology
from repro.system import (
    CrowdLoop,
    CrowdsourcingProcessor,
    FluentFeedbackProcessor,
    OperatorConsole,
    RtecProcessor,
    SystemConfig,
)
from repro.traffic_model import RollingFlowEstimator

PIPELINE_XML = """
<container>
  <stream id="dublin-sdes" class="app.DublinStream"/>

  <process id="event-processing" input="dublin-sdes" output="complex-events">
    <processor class="app.RtecProcessor" window="600" step="300"/>
  </process>

  <process id="crowdsourcing" input="complex-events" output="crowd-answers">
    <processor class="app.CrowdsourcingProcessor"/>
  </process>

  <process id="adaptation-feedback" input="crowd-answers" output="resolved">
    <processor class="app.FeedbackProcessor"/>
  </process>
</container>
"""


def main() -> None:
    scenario = DublinScenario(
        ScenarioConfig(
            seed=5,
            rows=12,
            cols=12,
            n_intersections=40,
            n_buses=60,
            n_lines=8,
            unreliable_fraction=0.2,
            n_incidents=5,
            incident_window=(0, 1800),
        )
    )
    data = scenario.generate(0, 1800)
    print(f"generated {data.n_sdes} SDEs ({data.counts_by_type()})")

    # The XML attributes arrive as keyword arguments, coerced to int.
    built = {}

    def rtec_processor_factory(window, step):
        engine = RTEC(
            build_traffic_definitions(
                scenario.topology, adaptive=True, noisy_variant="crowd"
            ),
            window=window,
            step=step,
            params=default_traffic_params(),
        )
        built["rtec"] = RtecProcessor(engine)
        return built["rtec"]

    # The crowdsourcing leg the full system runs (participants, query
    # policy, priors), built from what it reads.
    metrics = Registry()
    crowd_loop = CrowdLoop(
        scenario,
        SystemConfig(n_participants=40, seed=5),
        OperatorConsole(),
        RollingFlowEstimator(scenario.network.graph),
        metrics,
    )

    registry = {
        "app.DublinStream": lambda **_: stream_items(data),
        "app.RtecProcessor": rtec_processor_factory,
        "app.CrowdsourcingProcessor": lambda **_: CrowdsourcingProcessor(
            crowd_loop
        ),
        "app.FeedbackProcessor": lambda **_: FluentFeedbackProcessor(
            built["rtec"].engine
        ),
    }

    topology = parse_topology(PIPELINE_XML, registry)
    # The parsed graph can be extended with the fluent builder — no
    # add_* boilerplate; here an operator tap counts the crowd answers
    # flowing through the queue the XML declared:
    answer_counter = Counter(group_by="value")
    topology.process(
        "operator-tap", input="crowd-answers", processors=[answer_counter]
    )

    stats = StreamRuntime(topology, metrics=metrics).run()
    built["rtec"].flush(1800)

    print(f"runtime processed {stats.items_ingested} items")
    print("\nqueue contents:")
    for name, queue in topology.queues.items():
        print(f"  {name:<16} {len(queue):>6} items")

    ce_types = {}
    for item in topology.queues["complex-events"]:
        ce_types[item["@type"]] = ce_types.get(item["@type"], 0) + 1
    print("\nrecognised CE types:")
    for ce_type, count in sorted(ce_types.items()):
        print(f"  {ce_type:<24} {count:>6}")

    answers = topology.queues["crowd-answers"].snapshot()
    print(f"\ncrowd answers produced: {len(answers)} "
          f"(tap saw {answer_counter.per_group})")
    for item in answers[:5]:
        print(
            f"  t={item['@time']:>6} {item['intersection']} -> "
            f"{item['value']} (confidence {item['confidence']:.2f})"
        )

    print("\nper-process throughput (items/s):")
    for name, value in metrics.gauges().items():
        if name.endswith(".items_per_s"):
            print(f"  {name:<44} {value:>12.0f}")


if __name__ == "__main__":
    main()
