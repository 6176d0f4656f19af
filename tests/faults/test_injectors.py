"""Tests for the deterministic fault injectors."""

import pytest

from repro.core.events import Event, FluentFact
from repro.dublin import ScenarioData
from repro.faults import (
    BOUNDED_DELAY_S,
    CrowdFaults,
    FaultInjector,
    FaultProfile,
    PROFILES,
    StreamFaults,
    faulty_source,
    get_profile,
    inject_scenario,
    list_profiles,
)
from repro.obs import Registry
from repro.streams import Source, item_arrival


def traffic_events(n=50, period=30):
    return [
        Event(
            "traffic", t * period,
            {"intersection": f"I{t % 4}", "approach": "A",
             "sensor": "S1", "density": 20.0 + t, "flow": 900.0},
        )
        for t in range(1, n + 1)
    ]


def gps_facts(n=20, period=60):
    return [
        FluentFact(
            "gps", (f"B{t % 3}",),
            {"lon": -6.26, "lat": 53.35, "congestion": t % 2},
            t * period,
        )
        for t in range(1, n + 1)
    ]


class TestSpecValidation:
    @pytest.mark.parametrize("field", [
        "drop_rate", "delay_rate", "duplicate_rate", "corrupt_rate",
    ])
    def test_rates_bounded(self, field):
        with pytest.raises(ValueError, match=field):
            StreamFaults(**{field: 1.5})

    def test_delay_needs_bound(self):
        with pytest.raises(ValueError, match="max_delay_s"):
            StreamFaults(delay_rate=0.5)

    def test_corrupt_needs_fields(self):
        with pytest.raises(ValueError, match="corrupt_fields"):
            StreamFaults(corrupt_rate=0.5)

    def test_crowd_rates_bounded(self):
        with pytest.raises(ValueError, match="no_response_rate"):
            CrowdFaults(no_response_rate=-0.1)

    def test_active(self):
        assert not StreamFaults().active
        assert StreamFaults(drop_rate=0.1).active
        assert not CrowdFaults().active
        assert CrowdFaults(timeout_rate=0.2).active


class TestDeterminism:
    def test_same_seed_same_faults(self):
        spec = StreamFaults(
            drop_rate=0.2, delay_rate=0.3, max_delay_s=120,
            duplicate_rate=0.1, corrupt_rate=0.2, corrupt_fields=("flow",),
        )
        events = traffic_events()
        a = FaultInjector(spec, seed=7, feed="scats").events(events)
        b = FaultInjector(spec, seed=7, feed="scats").events(events)
        assert a == b

    def test_different_seed_different_faults(self):
        spec = StreamFaults(drop_rate=0.5)
        events = traffic_events()
        a = FaultInjector(spec, seed=1).events(events)
        b = FaultInjector(spec, seed=2).events(events)
        assert a != b

    def test_chunking_does_not_change_faults(self):
        # The RNG walks one draw-set per record, so splitting the
        # stream across calls cannot change any record's fate.
        spec = StreamFaults(drop_rate=0.3, delay_rate=0.3, max_delay_s=60)
        events = traffic_events()
        whole = FaultInjector(spec, seed=3).events(events)
        injector = FaultInjector(spec, seed=3)
        chunked = injector.events(events[:20]) + injector.events(events[20:])
        assert whole == chunked

    def test_feeds_draw_independent_streams(self):
        spec = StreamFaults(drop_rate=0.5)
        events = traffic_events()
        scats = FaultInjector(spec, seed=0, feed="scats").events(events)
        bus = FaultInjector(spec, seed=0, feed="bus").events(events)
        assert scats != bus


class TestFaultKinds:
    def test_drop_all(self):
        metrics = Registry()
        injector = FaultInjector(
            StreamFaults(drop_rate=1.0), feed="scats", metrics=metrics
        )
        assert injector.events(traffic_events(10)) == []
        counters = metrics.counters()
        assert counters["faults.scats.seen"] == 10
        assert counters["faults.scats.dropped"] == 10
        assert "faults.scats.emitted" not in counters

    def test_duplicate_all(self):
        injector = FaultInjector(StreamFaults(duplicate_rate=1.0))
        out = injector.events(traffic_events(5))
        assert len(out) == 10
        assert out[0] == out[1]

    def test_delay_moves_arrival_only(self):
        injector = FaultInjector(
            StreamFaults(delay_rate=1.0, max_delay_s=90)
        )
        events = traffic_events(30)
        out = injector.events(events)
        assert [e.time for e in out] == [e.time for e in events]
        for original, delayed in zip(events, out):
            assert 1 <= delayed.arrival - original.time <= 90

    def test_corruption_flattens_numbers_and_flips_bits(self):
        injector = FaultInjector(
            StreamFaults(corrupt_rate=1.0, corrupt_fields=("flow",))
        )
        out = injector.events(traffic_events(3))
        assert all(e["flow"] == 0.0 for e in out)
        assert all(e["density"] != 0.0 for e in out)  # untouched field

        injector = FaultInjector(
            StreamFaults(corrupt_rate=1.0, corrupt_fields=("congestion",))
        )
        facts = injector.facts(gps_facts(4))
        assert [f.value["congestion"] for f in facts] == [0, 1, 0, 1]

    def test_metrics_cover_every_fault(self):
        metrics = Registry()
        spec = StreamFaults(
            delay_rate=0.5, max_delay_s=60, duplicate_rate=0.5,
            corrupt_rate=0.5, corrupt_fields=("flow",),
        )
        FaultInjector(spec, feed="bus", metrics=metrics).events(
            traffic_events(40)
        )
        counters = metrics.counters()
        for kind in ("seen", "delayed", "duplicated", "corrupted", "emitted"):
            assert counters[f"faults.bus.{kind}"] > 0
        assert metrics.timings()["faults.bus.delay_s"].count > 0


class TestFaultySource:
    def test_injected_delays_reorder_delivery(self):
        items = [
            {"@time": t, "sensor": "S1", "flow": 900.0}
            for t in range(0, 300, 10)
        ]
        source = Source("scats", items)
        shaken = faulty_source(
            source, StreamFaults(delay_rate=0.5, max_delay_s=200), seed=5
        )
        assert shaken.name == "scats"
        arrivals = [item_arrival(item) for item in shaken]
        assert arrivals == sorted(arrivals)  # re-sorted by arrival
        times = [item["@time"] for item in shaken]
        assert times != sorted(times)  # ... which reorders event time


class TestProfiles:
    def test_registry_lists_all(self):
        assert {p.name for p in list_profiles()} == set(PROFILES)
        assert "none" in PROFILES and "chaos_day" in PROFILES

    def test_get_profile_hints_on_typo(self):
        with pytest.raises(ValueError, match="lossy_scats"):
            get_profile("lossy_scat")

    def test_bounded_delay_profile_matches_constant(self):
        profile = get_profile("bounded_delay")
        assert profile.scats.max_delay_s == BOUNDED_DELAY_S
        assert profile.bus.max_delay_s == BOUNDED_DELAY_S

    def test_with_seed_and_to_dict(self):
        profile = get_profile("lossy_scats").with_seed(99)
        assert profile.seed == 99
        spec = profile.to_dict()
        assert spec["scats"]["drop_rate"] == pytest.approx(0.3)

    def test_profiles_active_flags(self):
        assert not PROFILES["none"].active
        assert all(
            PROFILES[name].active for name in PROFILES if name != "none"
        )


class TestInjectScenario:
    def _data(self):
        moves = [
            Event("move", t * 60, {"bus": "B1", "line": "L1",
                                   "operator": "O1", "delay": 30})
            for t in range(1, 11)
        ]
        return ScenarioData.from_sdes(
            traffic_events(20) + moves, gps_facts(10), 0, 660
        )

    def test_none_profile_is_identity(self):
        data = self._data()
        out = inject_scenario(data, get_profile("none"))
        assert out.events == data.events
        assert out.facts == data.facts

    def test_blackout_scats_only_kills_traffic(self):
        data = self._data()
        out = inject_scenario(data, get_profile("blackout_scats"))
        assert [e for e in out.events if e.type == "traffic"] == []
        assert len([e for e in out.events if e.type == "move"]) == 10
        assert len(out.facts) == 10

    def test_per_feed_rng_streams_are_stable(self):
        # Removing the whole bus feed must not change which SCATS
        # records get hit: each feed walks its own RNG stream.
        profile = FaultProfile(
            name="drops", scats=StreamFaults(drop_rate=0.4),
            bus=StreamFaults(drop_rate=0.4), seed=11,
        )
        data = self._data()
        mixed = inject_scenario(data, profile)
        scats_only = ScenarioData.from_sdes(
            [e for e in data.events if e.type == "traffic"], [], 0, 660
        )
        alone = inject_scenario(scats_only, profile)
        assert (
            [e for e in mixed.events if e.type == "traffic"]
            == alone.events
        )
