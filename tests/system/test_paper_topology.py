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


def _wired(start=0, **overrides):
    system = _system(start, **overrides)
    paper = build_paper_topology(system, start, start + 1200)
    stats = StreamRuntime(paper.topology).run()
    return system, paper, stats


@pytest.fixture(scope="module")
def built():
    return _wired()


@pytest.fixture(scope="module")
def split():
    system = _system()
    return system._stream(system, 0, 1200)[1]


def _rows(item_blocks):
    return sum(block.n for block in item_blocks)


class TestTopologyShape:
    def test_one_bus_stream_four_scats_streams(self, built):
        _, paper, _ = built
        sources = set(paper.topology.sources)
        # ... and the per-step liveness counts.
        assert sources - {"feed-arrivals"} == {"buses"} | {
            f"scats-{r}" for r in REGIONS
        }

    def test_one_cep_process_per_region(self, built):
        _, paper, _ = built
        for region in REGIONS:
            assert f"cep-{region}" in paper.topology.processes
        assert "crowdsourcing" in paper.topology.processes

    def test_traffic_model_registered_as_service(self, built):
        _, paper, _ = built
        assert paper.topology.services._services["traffic-model"] is (
            paper.flow_estimator
        )


class TestTopologyExecution:
    def test_all_items_ingested(self, built, split):
        # One item per recognition step on each of the six sources, and
        # together the blocks carry every row of the system's split.
        _, paper, stats = built
        assert stats.items_ingested == 6 * 4
        sources = paper.topology.sources
        fed = _rows(
            block
            for item in sources["buses"]
            for block in item["blocks"].values()
        ) + _rows(
            item["block"]
            for region in REGIONS
            for item in sources[f"scats-{region}"]
        )
        assert fed == sum(batch.n for batch in split.values())

    def test_bus_items_partitioned_exactly_once(self, built, split):
        # Each region's bus rows are the split's: decided once, by
        # split_by_region, not per item.
        _, paper, _ = built
        for region in REGIONS:
            process = paper.topology.processes[f"bus-intake-{region}"]
            assert process.produced == 4
            bus_rows = split[region].n - sum(
                len(b) for b in split[region].events if b.type == "traffic"
            )
            assert bus_rows > 0
            assert _rows(
                item["blocks"][region]
                for item in paper.topology.sources["buses"]
            ) == bus_rows

    def test_every_region_engine_recognised(self, built):
        _, paper, _ = built
        for region, processor in paper.rtec_processors.items():
            assert [s.query_time for s in processor.log.snapshots] == [
                300, 600, 900, 1200,
            ], region

    def test_ces_flow_to_queue(self, built):
        # One item per region and query, holding the query's fresh
        # results.
        _, paper, _ = built
        results = paper.topology.queues["complex-events"].snapshot()
        assert [(item["@time"], item["region"]) for item in results] == [
            (q, region) for q in (300, 600, 900, 1200) for region in REGIONS
        ]
        types = {
            name for item in results for name, *_ in item["fresh"].episodes
        }
        assert "busCongestion" in types or "sourceDisagreement" in types

    def test_crowd_answers_feed_back(self, built):
        _, paper, _ = built
        answers = paper.topology.queues["crowd-answers"].snapshot()
        assert answers
        assert paper.crowd.outcomes
        assert all(
            event.type == "crowd" for item in answers for event in item["feed"]
        )

    def test_traffic_model_service_fed(self, built):
        _, paper, _ = built
        assert paper.flow_estimator.active_observations(1200)
        estimates = paper.flow_estimator.estimate(1200)
        assert estimates is not None


class TestFailsClosed:
    def test_a_crowdsourcing_error_stops_the_graph(self, monkeypatch):
        def broken(self, region, q, fresh, degraded):
            raise RuntimeError(f"crowd down at q={q}")

        monkeypatch.setattr(UrbanTrafficSystem, "_crowdsource", broken)
        system = _system()
        paper = build_paper_topology(system, 0, 1200)
        with pytest.raises(RuntimeError, match="crowd down at q=300"):
            StreamRuntime(paper.topology).run()
        assert not paper.topology.queues["crowd-answers"].snapshot()
        for processor in paper.rtec_processors.values():
            assert all(
                s.query_time == 300 for s in processor.log.snapshots
            )


class TestOneSystemWiredTwice:
    """The graph is a second wiring of the system, not a second system."""

    def test_graph_holds_the_systems_objects(self, built):
        system, paper, _ = built
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
        for name in ("crowdsourcing", "feedback"):
            process = paper.topology.processes[name]
            assert [p.system for p in process.processors] == [system]

    @pytest.mark.parametrize(
        "profile", [None, "blackout_scats"], ids=["fault-free", "blackout"]
    )
    def test_recognises_and_crowdsources_what_the_loop_does(
        self, built, profile
    ):
        if profile is None:
            system, paper, _ = built
        else:
            system, paper, _ = _wired(fault_profile=profile)
        direct = _system(fault_profile=profile)
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
        # Every alert, the crowd's and the recognised CEs', in order.
        assert system.console.alerts == direct.console.alerts
        assert system.degradation.finish() == report.degraded
        assert bool(report.degraded) == (profile is not None)
        counters = system.metrics.to_dict()["counters"]
        cep = {
            name: value
            for name, value in report.metrics["counters"].items()
            if name.startswith("process.cep-")
        }
        assert len(cep) == 2 * len(REGIONS)
        assert {name: counters.get(name) for name in cep} == cep
        assert crowd.settle_rewards() == report.rewards

    def test_first_query_is_the_loops_first_query(self):
        # A 07:00 start: no region runs a query before start + step.
        start = 7 * 3600
        _, paper, _ = _wired(start)
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
        with pytest.raises(ValueError, match="four regional streams"):
            build_paper_topology(system, 0, 300)
