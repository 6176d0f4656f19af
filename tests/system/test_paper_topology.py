"""Tests for the Section 3 data-flow graph builder."""

import pytest

from repro.dublin import REGIONS, DublinScenario, ScenarioConfig
from repro.streams import StreamRuntime
from repro.system import SystemConfig, UrbanTrafficSystem, build_paper_topology


def _system(start=0, **overrides):
    scenario = DublinScenario(
        ScenarioConfig(
            seed=47,
            rows=10,
            cols=10,
            n_intersections=25,
            n_buses=40,
            n_lines=6,
            unreliable_fraction=0.2,
            n_incidents=4,
            incident_window=(start, start + 1200),
        )
    )
    return UrbanTrafficSystem(
        scenario, SystemConfig(n_participants=20, seed=47, **overrides)
    )


def _wired(start=0):
    system = _system(start)
    data = system.scenario.generate(start, start + 1200)
    paper = build_paper_topology(system, data)
    stats = StreamRuntime(paper.topology).run()
    return system, data, paper, stats


@pytest.fixture(scope="module")
def built():
    return _wired()


class TestTopologyShape:
    def test_one_bus_stream_four_scats_streams(self, built):
        _, _, paper, _ = built
        sources = set(paper.topology.sources)
        # ... and the tick that ends the replay.
        assert sources - {"end-of-stream"} == {"buses"} | {
            f"scats-{r}" for r in REGIONS
        }

    def test_one_cep_process_per_region(self, built):
        _, _, paper, _ = built
        for region in REGIONS:
            assert f"cep-{region}" in paper.topology.processes
        assert "crowdsourcing" in paper.topology.processes

    def test_traffic_model_registered_as_service(self, built):
        _, _, paper, _ = built
        assert paper.topology.services._services["traffic-model"] is (
            paper.flow_estimator
        )


class TestTopologyExecution:
    def test_all_items_ingested(self, built):
        _, data, _, stats = built
        expected = len(data.facts) + len(data.events)
        assert stats.items_ingested == expected + 1  # the end-of-stream tick

    def test_bus_items_partitioned_exactly_once(self, built):
        _, data, paper, _ = built
        moves = sum(1 for e in data.events if e.type == "move")
        consumed = 0
        for region in REGIONS:
            process = paper.topology.processes[f"bus-intake-{region}"]
            consumed += process.produced
        # Every move + gps pair passes exactly one region filter.
        assert consumed == 2 * moves

    def test_every_region_engine_recognised(self, built):
        _, _, paper, _ = built
        for region, processor in paper.rtec_processors.items():
            assert [s.query_time for s in processor.log.snapshots] == [
                300, 600, 900, 1200,
            ], region

    def test_ces_flow_to_queue(self, built):
        _, _, paper, _ = built
        ce_queue = paper.topology.queues["complex-events"]
        assert len(ce_queue) > 0
        types = {item["@type"] for item in ce_queue}
        assert "busCongestion" in types or "sourceDisagreement" in types

    def test_crowd_answers_feed_back(self, built):
        _, _, paper, _ = built
        answers = paper.topology.queues["crowd-answers"].snapshot()
        if answers:  # disagreements occurred
            assert paper.crowd.outcomes
            assert all(item["@type"] == "crowd" for item in answers)

    def test_traffic_model_service_fed(self, built):
        _, data, paper, _ = built
        has_scats = any(e.type == "traffic" for e in data.events)
        if has_scats:
            assert paper.flow_estimator.active_observations(1200)
            estimates = paper.flow_estimator.estimate(1200)
            assert estimates is not None


class TestOneSystemWiredTwice:
    """The graph is a second wiring of the system, not a second system."""

    def test_graph_holds_the_systems_objects(self, built):
        system, _, paper, _ = built
        for region in REGIONS:
            assert paper.engines[region] is system.engines[region]
            assert (
                paper.rtec_processors[region].engine is system.engines[region]
            )
        assert paper.topology.services._services["traffic-model"] is (
            system.flow_estimator
        )
        assert paper.flow_estimator is system.flow_estimator
        assert paper.crowd is system.crowd
        crowdsourcing = paper.topology.processes["crowdsourcing"]
        assert [p.crowd_loop for p in crowdsourcing.processors] == [
            system.crowd_loop
        ]

    def test_recognises_and_crowdsources_what_the_loop_does(self, built):
        system, _, paper, _ = built
        direct = _system()
        report = direct.run(0, 1200)
        for region in REGIONS:
            ours = paper.rtec_processors[region].log.snapshots
            theirs = report.logs[region].snapshots
            assert [s.query_time for s in ours] == [
                s.query_time for s in theirs
            ]
            for mine, reference in zip(ours, theirs):
                assert mine.n_events == reference.n_events
                assert mine.n_new_events == reference.n_new_events
                assert mine.occurrences == reference.occurrences
                assert mine.fluents == reference.fluents
        crowd = system.crowd_loop
        assert (crowd.resolved, crowd.unresolved, crowd.suppressed) == (
            report.crowd_resolutions,
            report.crowd_unresolved,
            report.crowd_suppressed,
        )
        assert crowd.resolved + crowd.unresolved > 0
        crowd_kinds = ("source disagreement", "crowd resolution")
        assert system.console.alerts == [
            alert
            for alert in direct.console.alerts
            if alert.kind in crowd_kinds
        ]
        assert crowd.settle_rewards() == report.rewards

    def test_first_query_is_the_loops_first_query(self):
        # A 07:00 start: no region runs a query before start + step.
        start = 7 * 3600
        _, _, paper, _ = _wired(start)
        expected = [s.query_time for s in _system(start).run(
            start, start + 1200
        ).logs["central"].snapshots]
        assert expected == [start + 300 * i for i in range(1, 5)]
        for region, processor in paper.rtec_processors.items():
            assert [
                s.query_time for s in processor.log.snapshots
            ] == expected, region

    @pytest.mark.parametrize(
        "overrides",
        [
            {"region_groups": (("central", "north"), ("west", "south"))},
            {"sharded": True},
        ],
        ids=["region-groups", "sharded"],
    )
    def test_refuses_a_system_that_is_not_one_engine_per_region(
        self, overrides
    ):
        system = _system(**overrides)
        data = system.scenario.generate(0, 300)
        with pytest.raises(ValueError, match="four regional streams"):
            build_paper_topology(system, data)
