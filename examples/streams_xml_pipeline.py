#!/usr/bin/env python3
"""Declarative wiring: the whole loop as a Streams XML data-flow graph.

The paper's middleware "provides a XML-based language for the
description of data flow graphs" (Section 3).  This example takes the
Section 3 graph in that dialect (``PAPER_GRAPH_XML``: one bus stream,
four SCATS streams, one RTEC process per region, the operator alerts,
crowdsourcing and feedback processes), resolves its classes to one
constructed system's stages through the XML registry, extends it with
an operator tap, runs it on the deterministic runtime and inspects the
queues.

Usage::

    python examples/streams_xml_pipeline.py
"""

from repro.dublin import DublinScenario, ScenarioConfig
from repro.obs import Registry
from repro.streams import Counter, Process, StreamRuntime, parse_topology
from repro.system import SystemConfig, UrbanTrafficSystem
from repro.system.topology import PAPER_GRAPH_XML, paper_registry

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
    system = UrbanTrafficSystem(
        scenario, SystemConfig(n_participants=40, seed=5)
    )

    topology = parse_topology(
        PAPER_GRAPH_XML, paper_registry(system, 0, 1800)
    )
    # The parsed graph can be extended node by node; here an operator
    # tap counts the crowd answers flowing through the queue the XML
    # declared:
    answer_counter = Counter()
    topology.add_process(
        Process(
            "operator-tap", input="crowd-answers",
            processors=[answer_counter],
        )
    )

    metrics = Registry()
    stats = StreamRuntime(topology, metrics=metrics).run()

    print(f"runtime processed {stats.items_ingested} source items "
          f"(one per recognition step and stream)")
    print("\nqueue contents:")
    for name, queue in topology.queues.items():
        print(f"  {name:<16} {len(queue):>6} items")

    ce_types = {}
    for item in topology.queues["complex-events"]:
        for name, *_ in item["fresh"].episodes:
            ce_types[name] = ce_types.get(name, 0) + 1
    print("\nrecognised CE episodes:")
    for ce_type, count in sorted(ce_types.items()):
        print(f"  {ce_type:<24} {count:>6}")

    answers = [
        event
        for item in topology.queues["crowd-answers"].snapshot()
        for event in item["feed"]
    ]
    print(f"\ncrowd answers produced: {len(answers)} "
          f"in {answer_counter.total} items")
    for event in answers[:5]:
        print(
            f"  t={event.time:>6} {event['intersection']} -> "
            f"{event['value']} (confidence {event['confidence']:.2f})"
        )
    print(f"\noperator alerts: {len(system.console.alerts)}")

    print("\nper-process throughput (items/s):")
    for name, value in metrics.gauges().items():
        if name.endswith(".items_per_s"):
            print(f"  {name:<52} {value:>12.0f}")


if __name__ == "__main__":
    main()
