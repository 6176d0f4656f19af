"""Tests for the Streams embeddings of RTEC and crowdsourcing."""

import pytest

from repro.core import RTEC
from repro.core.events import Event
from repro.core.rtec import FreshResults
from repro.core.traffic import build_traffic_definitions, default_traffic_params
from repro.dublin import DublinScenario, ScenarioConfig
from repro.streams import Process, Source, StreamRuntime, Tap, Topology
from repro.system import (
    CrowdsourcingProcessor,
    FluentFeedbackProcessor,
    RtecProcessor,
    SystemConfig,
    UrbanTrafficSystem,
    build_paper_topology,
)
from repro.system.topology import paper_registry

from tests.system.test_crowdloop import hand_made_loop


def _city(seed):
    return DublinScenario(
        ScenarioConfig(
            seed=seed,
            rows=10,
            cols=10,
            n_intersections=25,
            n_buses=40,
            n_lines=6,
            unreliable_fraction=0.2,
            n_incidents=4,
            incident_window=(0, 1200),
        )
    )


@pytest.fixture(scope="module")
def scenario():
    return _city(7)


def _system(scenario, **config):
    return UrbanTrafficSystem(scenario, SystemConfig(seed=7, **config))


def _step_items(system, region, end):
    """Per step, the ``bus`` and ``scats`` items ``cep-<region>``
    receives in the paper's graph."""
    registry = paper_registry(system, 0, end)
    pick = registry["system.RegionBlock"](region)
    return list(zip(
        (pick.process(item) for item in registry["system.Buses"]()),
        registry["system.Scats"](region),
    ))


class TestRtecProcessor:
    def test_recognises_inside_streams_topology(self, scenario):
        system = _system(scenario)
        registry = paper_registry(system, 0, 1200)
        rtec = RtecProcessor(system, "central")
        topo = Topology()
        topo.add_source(Source("buses", registry["system.Buses"]()))
        topo.add_source(Source("scats", registry["system.Scats"]("central")))
        topo.add_process(Process(
            "bus-intake", input="buses",
            processors=[registry["system.RegionBlock"]("central")],
            output="central",
        ))
        topo.add_process(Process(
            "scats-intake", input="scats",
            processors=[Tap(lambda item: None)], output="central",
        ))
        topo.add_process(
            Process("cep", input="central", processors=[rtec], output="ce")
        )
        StreamRuntime(topo).run()
        assert [s.query_time for s in rtec.log.snapshots] == [
            300, 600, 900, 1200,
        ]
        assert [item["@time"] for item in topo.queues["ce"]] == [
            300, 600, 900, 1200,
        ]

    def test_emits_episode_items(self, scenario):
        system = _system(scenario)
        rtec = RtecProcessor(system, "central")
        out = []
        for bus, scats in _step_items(system, "central", 900):
            out.append(rtec.process(bus))
            out.append(rtec.process(scats))
        # Nothing until the step's block of both feeds is in, then one
        # item holding the query's fresh results.
        assert out[0::2] == [None] * 3
        results = out[1::2]
        assert [(r["@time"], r["step"], r["region"]) for r in results] == [
            (300, 1, "central"), (600, 2, "central"), (900, 3, "central"),
        ]
        episodes = [e for r in results for e in r["fresh"].episodes]
        assert episodes
        assert all(len(e) == 4 for e in episodes)
        counters = system.metrics.to_dict()["counters"]
        assert counters["process.cep-central.queries"] == 3


@pytest.mark.parametrize("window", [600, 300])
@pytest.mark.parametrize("seed", [47, 13])
class TestSdesOnTheTick:
    """An SDE arriving exactly at a query time belongs to that query:
    the engine behind :class:`RtecProcessor`, fed a step block at a
    time by the paper's graph, admits what its twin fed the region's
    whole stream as one columnar batch admits, query by query."""

    def _run(self, seed, window):
        from tests.golden.record_golden import serialise_snapshot

        # Pessimistic ``noisy``: self-adaptive without a crowd in the loop.
        scenario = _city(seed)
        system = UrbanTrafficSystem(
            scenario,
            SystemConfig(
                window=window, noisy_variant="pessimistic",
                crowd_enabled=False, seed=seed,
            ),
        )
        paper = build_paper_topology(system, 0, 1200)
        StreamRuntime(paper.topology).run()
        data, split = system._stream(system, 0, 1200)
        twins = {}
        for region, batch in split.items():
            twin = RTEC(
                build_traffic_definitions(
                    scenario.topology, adaptive=True,
                    noisy_variant="pessimistic",
                ),
                window=window,
                step=300,
                params=default_traffic_params(),
            )
            twin.feed_columns(batch)
            twins[region] = list(twin.run(1200))
        return data, paper, twins, serialise_snapshot

    def test_admits_what_the_columnar_twin_admits(self, seed, window):
        data, paper, twins, serialise = self._run(seed, window)
        arrivals = {e.arrival for e in data.events}
        assert arrivals & {300, 600, 900}, "no SDE arrives on a tick"
        for region, reference in twins.items():
            ours = paper.rtec_processors[region].log.snapshots
            assert len(ours) == len(reference) == 4
            for mine, theirs in zip(ours, reference):
                assert mine.query_time == theirs.query_time
                assert mine.n_new_events == theirs.n_new_events
                assert (
                    mine.rows_skipped_horizon == theirs.rows_skipped_horizon
                )
                assert serialise(mine) == serialise(theirs)

    def test_engine_is_fed_once_per_query_time(
        self, seed, window, monkeypatch
    ):
        from repro.core.columns import ColumnStore
        from repro.core.window import WorkingMemory

        feeds, admits = [], []
        buffer_columns, admit = WorkingMemory.buffer_columns, ColumnStore.admit
        monkeypatch.setattr(
            WorkingMemory, "buffer_columns",
            lambda wm, batch: (feeds.append(wm), buffer_columns(wm, batch)),
        )
        monkeypatch.setattr(
            ColumnStore, "admit",
            lambda store, *a: (admits.append(store), admit(store, *a)),
        )
        data, paper, _, _ = self._run(seed, window)
        for processor in paper.rtec_processors.values():
            queries = len(processor.log.snapshots)
            ours = processor.engine._wm
            stores = list(ours._stores.values())
            assert stores
            # One hand-off per query time (no crowd feed here), one
            # admission per store per query: not one per item.
            assert sum(wm is ours for wm in feeds) <= queries
            for store in stores:
                assert sum(s is store for s in admits) <= queries
        assert data.n_sdes > 50 * queries


class TestCrowdsourcingProcessor:
    def _processor(self, scenario):
        system = _system(scenario, n_participants=0)
        system.crowd_loop, int_id = hand_made_loop(scenario)
        return CrowdsourcingProcessor(system), int_id

    def _item(self, episodes):
        return {
            "@time": 600,
            "step": 2,
            "region": "north",
            "fresh": FreshResults(occurrences=[], episodes=episodes),
        }

    def test_resolves_disagreement_items(self, scenario):
        processor, int_id = self._processor(scenario)
        result = processor.process(
            self._item([("sourceDisagreement", (int_id,), 450, None)])
        )
        assert result is not None
        assert (result["@time"], result["step"]) == (600, 2)
        [event] = result["feed"]
        assert event.type == "crowd"
        congested = scenario.ground_truth.is_congested(
            scenario.node_of[int_id], 600
        )
        assert event["value"] == ("positive" if congested else "negative")
        assert event["intersection"] == int_id
        # Asked at the query time that surfaced the episode, not at
        # the episode's start.
        crowd_loop = processor.system.crowd_loop
        assert crowd_loop.crowd.outcomes[0].task.time == 600
        assert event.time > 600
        assert crowd_loop.console.alerts[0].region == "north"

    def test_ignores_other_items(self, scenario):
        processor, int_id = self._processor(scenario)
        item = self._item([("busCongestion", (int_id,), 450, None)])
        assert processor.process(item) is None
        assert processor.system.crowd_loop.console.alerts == []


class TestFluentFeedbackProcessor:
    def test_feeds_crowd_events_back(self, scenario):
        system = _system(scenario)
        feedback = FluentFeedbackProcessor(system)
        int_id = scenario.topology.ids()[0]
        event = Event(
            "crowd",
            100,
            {
                "intersection": int_id,
                "lon": 0.0,
                "lat": 0.0,
                "value": "negative",
                "label": "free_flow",
                "confidence": 0.99,
            },
            arrival=100,
        )
        item = {"@time": 100, "step": 1, "feed": [event]}
        assert feedback.process(dict(item)) is not None
        # The crowd event is visible to every engine's window.
        for engine in system.engines.values():
            assert engine.query(300).n_events == 1
        counters = system.metrics.to_dict()["counters"]
        assert counters["rtec.ingest.rows_fed"] == len(system.engines)
