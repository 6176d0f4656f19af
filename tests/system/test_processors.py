"""Tests for the Streams embeddings of RTEC and crowdsourcing."""

import pytest

from repro.core import RTEC
from repro.core.traffic import build_traffic_definitions, default_traffic_params
from repro.dublin import DublinScenario, ScenarioConfig, stream_items
from repro.streams import Collect, Process, Source, StreamRuntime, Topology
from repro.system import (
    CrowdsourcingProcessor,
    FluentFeedbackProcessor,
    RtecProcessor,
)

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


def _engine(scenario, window=600, noisy_variant="crowd"):
    return RTEC(
        build_traffic_definitions(
            scenario.topology, adaptive=True, noisy_variant=noisy_variant
        ),
        window=window,
        step=300,
        params=default_traffic_params(),
    )


class TestRtecProcessor:
    def test_recognises_inside_streams_topology(self, scenario):
        data = scenario.generate(0, 1200)
        topo = Topology()
        topo.add_source(Source("dublin", stream_items(data)))
        rtec = RtecProcessor(_engine(scenario))
        topo.add_process(
            Process("cep", input="dublin", processors=[rtec], output="ce")
        )
        StreamRuntime(topo).run()
        rtec.flush(1200)
        assert len(rtec.log.snapshots) >= 3
        ce_types = {item["@type"] for item in topo.queues["ce"]}
        assert "busCongestion" in ce_types or "sourceDisagreement" in ce_types

    def test_emits_episode_items(self, scenario):
        data = scenario.generate(0, 900)
        rtec = RtecProcessor(_engine(scenario))
        out = []
        for item in stream_items(data):
            out.extend(rtec.process(item) or [])
        out.extend(rtec.flush(900))
        episodes = [i for i in out if i.get("episode")]
        assert episodes
        assert all("key" in i and "@time" in i for i in episodes)

    def test_flush_runs_remaining_queries(self, scenario):
        rtec = RtecProcessor(_engine(scenario))
        assert rtec.log.snapshots == []
        rtec.flush(900)
        assert [s.query_time for s in rtec.log.snapshots] == [300, 600, 900]


@pytest.mark.parametrize("window", [600, 300])
@pytest.mark.parametrize("seed", [47, 13])
class TestSdesOnTheTick:
    """An SDE arriving exactly at a query time belongs to that query:
    the engine behind :class:`RtecProcessor` admits what its twin fed
    the whole stream as one columnar batch admits, query by query."""

    def _run(self, seed, window):
        from tests.golden.record_golden import serialise_snapshot

        # Pessimistic ``noisy``: self-adaptive without a crowd in the loop.
        scenario = _city(seed)
        data = scenario.generate(0, 1200)
        rtec = RtecProcessor(_engine(scenario, window, "pessimistic"))
        topo = Topology().source("dublin", stream_items(data)).process(
            "cep", input="dublin", processors=[rtec], output="ce"
        )
        StreamRuntime(topo).run()
        rtec.flush(1200)
        twin = _engine(scenario, window, "pessimistic")
        twin.feed_columns(data.columns)
        return data, rtec, list(twin.run(1200)), serialise_snapshot

    def test_admits_what_the_columnar_twin_admits(self, seed, window):
        data, rtec, reference, serialise = self._run(seed, window)
        arrivals = {e.arrival for e in data.events}
        assert arrivals & {300, 600, 900}, "no SDE arrives on a tick"
        assert len(rtec.log.snapshots) == len(reference) == 4
        for ours, theirs in zip(rtec.log.snapshots, reference):
            assert ours.query_time == theirs.query_time
            assert ours.n_new_events == theirs.n_new_events
            assert ours.rows_skipped_horizon == theirs.rows_skipped_horizon
            assert serialise(ours) == serialise(theirs)

    def test_engine_is_fed_once_per_query_time(
        self, seed, window, monkeypatch
    ):
        from repro.core.columns import ColumnStore
        from repro.core.incremental import WorkingMemory

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
        data, rtec, _, _ = self._run(seed, window)
        queries = len(rtec.log.snapshots)
        ours = rtec.engine._wm
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
        loop, int_id = hand_made_loop(scenario)
        return CrowdsourcingProcessor(loop), int_id

    def test_resolves_disagreement_items(self, scenario):
        processor, int_id = self._processor(scenario)
        item = {
            "@type": "sourceDisagreement",
            "@time": 450,
            "key": (int_id,),
            "episode": True,
            "query_time": 600,
        }
        result = processor.process(item)
        assert result is not None
        assert result["@type"] == "crowd"
        congested = scenario.ground_truth.is_congested(
            scenario.node_of[int_id], 600
        )
        assert result["value"] == ("positive" if congested else "negative")
        assert result["intersection"] == int_id
        # Asked at the query time that surfaced the episode, not at
        # the episode's start.
        assert processor.crowd_loop.crowd.outcomes[0].task.time == 600
        assert result["@time"] > 600

    def test_ignores_other_items(self, scenario):
        processor, _ = self._processor(scenario)
        assert processor.process({"@type": "busCongestion", "@time": 1}) is None


class TestFluentFeedbackProcessor:
    def test_feeds_crowd_events_back(self, scenario):
        engine = _engine(scenario)
        feedback = FluentFeedbackProcessor(engine)
        int_id = scenario.topology.ids()[0]
        item = {
            "@type": "crowd",
            "@time": 100,
            "@arrival": 100,
            "intersection": int_id,
            "lon": 0.0,
            "lat": 0.0,
            "value": "negative",
            "label": "free_flow",
            "confidence": 0.99,
        }
        assert feedback.process(dict(item)) is not None
        snapshot = engine.query(300)
        # The crowd event is visible to the engine's window.
        assert snapshot.n_events == 1
