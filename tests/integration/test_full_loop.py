"""Integration: the complete loop wired as a Streams XML topology.

Reproduces the paper's deployment shape end to end: one bus stream,
SCATS streams, the RTEC processor emitting CEs to a queue, the
crowdsourcing processor resolving source disagreements, and the crowd
answers fed back into the engine — all described declaratively and run
by the deterministic middleware.
"""

import pytest

from repro.core import RTEC
from repro.core.traffic import build_traffic_definitions, default_traffic_params
from repro.dublin import DublinScenario, ScenarioConfig, stream_items
from repro.obs import Registry
from repro.streams import StreamRuntime, parse_topology
from repro.system import (
    CrowdLoop,
    CrowdsourcingProcessor,
    FluentFeedbackProcessor,
    OperatorConsole,
    RtecProcessor,
    SystemConfig,
)
from repro.traffic_model import RollingFlowEstimator


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
    data = scenario.generate(0, 1200)
    engine = RTEC(
        build_traffic_definitions(
            scenario.topology, adaptive=True, noisy_variant="crowd"
        ),
        window=600,
        step=300,
        params=default_traffic_params(),
    )
    rtec_processor = RtecProcessor(engine)

    crowd_loop = CrowdLoop(
        scenario,
        SystemConfig(n_participants=40, seed=5),
        OperatorConsole(),
        RollingFlowEstimator(scenario.network.graph),
        Registry(),
    )
    component = crowd_loop.crowd

    registry = {
        "dublin.Stream": lambda **_: stream_items(data),
        "system.Rtec": lambda **_: rtec_processor,
        "system.Crowd": lambda **_: CrowdsourcingProcessor(crowd_loop),
        "system.Feedback": lambda **_: FluentFeedbackProcessor(engine),
    }
    xml = """
    <container>
      <stream id="dublin" class="dublin.Stream"/>
      <process id="cep" input="dublin" output="complex-events">
        <processor class="system.Rtec"/>
      </process>
      <process id="crowdsourcing" input="complex-events" output="crowd-answers">
        <processor class="system.Crowd"/>
      </process>
      <process id="feedback" input="crowd-answers" output="resolved">
        <processor class="system.Feedback"/>
      </process>
    </container>
    """
    topology = parse_topology(xml, registry)
    StreamRuntime(topology).run()
    rtec_processor.flush(1200)
    return scenario, topology, rtec_processor, component


class TestFullLoopOverStreams:
    def test_ces_recognised(self, wired):
        _, topology, rtec_processor, _ = wired
        ce_items = topology.queues["complex-events"].snapshot()
        assert ce_items
        types = {item["@type"] for item in ce_items}
        assert "sourceDisagreement" in types

    def test_crowd_answers_produced_and_fed_back(self, wired):
        _, topology, _, component = wired
        answers = topology.queues["crowd-answers"].snapshot()
        assert answers
        assert all(item["@type"] == "crowd" for item in answers)
        assert component.outcomes
        resolved = topology.queues["resolved"].snapshot()
        assert len(resolved) == len(answers)

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
