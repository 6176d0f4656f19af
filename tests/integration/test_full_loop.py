"""Integration: the complete loop wired as a Streams XML topology.

Reproduces the paper's deployment shape end to end: one bus stream,
four SCATS streams, the RTEC processors emitting CEs to a queue, the
crowdsourcing processor resolving source disagreements, and the crowd
answers fed back into the engines — described declaratively, resolved
to one constructed system's stages through the XML registry, and run
by the deterministic middleware.
"""

import pytest

from repro.dublin import DublinScenario, ScenarioConfig
from repro.streams import StreamRuntime, parse_topology
from repro.system import SystemConfig, UrbanTrafficSystem
from repro.system.topology import PAPER_GRAPH_XML, paper_registry


@pytest.fixture(scope="module")
def wired():
    scenario = DublinScenario(
        ScenarioConfig(
            seed=13,
            rows=10,
            cols=10,
            n_intersections=25,
            n_buses=40,
            n_lines=6,
            unreliable_fraction=0.25,
            n_incidents=4,
            incident_window=(0, 1200),
        )
    )
    system = UrbanTrafficSystem(
        scenario, SystemConfig(n_participants=40, seed=5)
    )
    topology = parse_topology(
        PAPER_GRAPH_XML, paper_registry(system, 0, 1200)
    )
    StreamRuntime(topology).run()
    rtec_processor = topology.processes["cep-central"].processors[0]
    return scenario, topology, rtec_processor, system.crowd


class TestFullLoopOverStreams:
    def test_ces_recognised(self, wired):
        _, topology, _, _ = wired
        results = topology.queues["complex-events"].snapshot()
        assert results
        types = {
            name for item in results for name, *_ in item["fresh"].episodes
        }
        assert "sourceDisagreement" in types

    def test_crowd_answers_produced_and_fed_back(self, wired):
        _, topology, _, component = wired
        answers = topology.queues["crowd-answers"].snapshot()
        assert answers
        assert all(
            event.type == "crowd" for item in answers for event in item["feed"]
        )
        assert component.outcomes
        assert topology.processes["feedback"].consumed == len(answers)

    def test_recognition_ran_all_query_times(self, wired):
        _, _, rtec_processor, _ = wired
        times = [s.query_time for s in rtec_processor.log.snapshots]
        assert times == [300, 600, 900, 1200]

    def test_reliability_estimates_updated(self, wired):
        *_, component = wired
        em = component.aggregator
        assert em.total_events == len(
            [o for o in component.outcomes if o.estimate is not None]
        )
