"""Tests for scenario assembly, region split and dataset round-trip."""

import pytest

from repro.dublin import (
    REGIONS,
    DublinScenario,
    ScenarioConfig,
    event_to_item,
    fact_to_item,
    item_to_event,
    item_to_fact,
    read_jsonl,
    stream_items,
    write_jsonl,
)

from .helpers import region_of


@pytest.fixture(scope="module")
def scenario():
    return DublinScenario(
        ScenarioConfig(
            seed=11,
            rows=10,
            cols=10,
            n_intersections=25,
            n_buses=30,
            n_lines=6,
            unreliable_fraction=0.1,
            incident_window=(0, 1800),
        )
    )


@pytest.fixture(scope="module")
def data(scenario):
    return scenario.generate(0, 900)


class TestDublinScenario:
    def test_stream_not_empty(self, data):
        assert data.n_sdes > 500
        counts = data.counts_by_type()
        assert counts["move"] > 0
        assert counts["traffic"] > 0

    def test_stream_sorted_by_time(self, data):
        times = [e.time for e in data.events]
        assert times == sorted(times)

    def test_sde_rate(self, data):
        assert data.sde_rate() == pytest.approx(data.n_sdes / 900)

    def test_every_move_has_gps_fact(self, data):
        facts = {(f.key[0], f.time) for f in data.facts}
        for ev in data.events:
            if ev.type == "move":
                assert (ev["bus"], ev.time) in facts

    def test_deterministic(self):
        cfg = ScenarioConfig(seed=5, rows=8, cols=8, n_intersections=10,
                             n_buses=10, n_lines=3)
        a = DublinScenario(cfg).generate(0, 600)
        b = DublinScenario(cfg).generate(0, 600)
        assert [e.payload for e in a.events] == [e.payload for e in b.events]

    def test_split_by_region_partitions_events(self, scenario, data):
        split = scenario.split_by_region(data)
        assert set(split) == set(REGIONS)
        total = sum(batch.n_events for batch in split.values())
        assert total == data.n_sdes

    def test_split_keeps_gps_with_moves(self, scenario, data):
        split = scenario.split_by_region(data)
        for region, batch in split.items():
            move_keys = {
                (e["bus"], e.time)
                for e in batch.iter_events()
                if e.type == "move"
            }
            fact_keys = {(f.key[0], f.time) for f in batch.iter_facts()}
            assert fact_keys == move_keys

    def test_traffic_events_follow_intersection_region(self, scenario, data):
        split = scenario.split_by_region(data)
        for region, batch in split.items():
            for ev in batch.iter_events():
                if ev.type == "traffic":
                    lon, lat = scenario.topology.location(ev["intersection"])
                    assert region_of(scenario.network, lon, lat) == region


class TestDatasetAdapters:
    def test_event_item_roundtrip(self, data):
        ev = data.events[0]
        again = item_to_event(event_to_item(ev))
        assert again.type == ev.type
        assert again.time == ev.time
        assert again.arrival == ev.arrival
        assert dict(again.payload) == dict(ev.payload)

    def test_fact_item_roundtrip(self, data):
        fact = data.facts[0]
        again = item_to_fact(fact_to_item(fact))
        assert again.name == fact.name
        assert again.key == fact.key
        assert dict(again.value) == dict(fact.value)
        assert again.time == fact.time

    def test_item_to_fact_rejects_events(self, data):
        with pytest.raises(ValueError, match="fluent"):
            item_to_fact(event_to_item(data.events[0]))

    def test_stream_items_sorted_by_arrival(self, data):
        items = list(stream_items(data))
        arrivals = [i.get("@arrival", i["@time"]) for i in items]
        assert arrivals == sorted(arrivals)
        assert len(items) == len(data.events) + len(data.facts)


class TestJsonlRoundTrip:
    def test_write_read(self, data, tmp_path):
        path = tmp_path / "scenario.jsonl"
        written = write_jsonl(path, data)
        assert written == len(data.events) + len(data.facts)
        loaded = read_jsonl(path)
        assert loaded.n_sdes == data.n_sdes
        assert len(loaded.facts) == len(data.facts)
        assert [e.time for e in loaded.events] == [e.time for e in data.events]
        assert {e.type for e in loaded.events} == {
            e.type for e in data.events
        }

    def test_read_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        loaded = read_jsonl(path)
        assert loaded.n_sdes == 0

    def test_payloads_survive(self, data, tmp_path):
        path = tmp_path / "scenario.jsonl"
        write_jsonl(path, data)
        loaded = read_jsonl(path)
        original = {
            (e.type, e.time, e.get("bus"), e.get("sensor")) for e in data.events
        }
        reloaded = {
            (e.type, e.time, e.get("bus"), e.get("sensor"))
            for e in loaded.events
        }
        assert original == reloaded

