"""Tests for the event/fluent record types."""

import pytest

from repro.core.events import Event, FluentFact, Occurrence


class TestEvent:
    def test_arrival_defaults_to_occurrence(self):
        ev = Event("move", 10, {"bus": "B1"})
        assert ev.arrival == 10

    def test_arrival_may_be_later(self):
        ev = Event("move", 10, {"bus": "B1"}, arrival=25)
        assert ev.arrival == 25

    def test_arrival_before_occurrence_rejected(self):
        with pytest.raises(ValueError):
            Event("move", 10, {}, arrival=9)

    def test_payload_access(self):
        ev = Event("move", 10, {"bus": "B1", "delay": 30})
        assert ev["bus"] == "B1"
        assert ev.get("delay") == 30
        assert ev.get("missing", 42) == 42

    def test_payload_is_read_only(self):
        ev = Event("move", 10, {"bus": "B1"})
        with pytest.raises(TypeError):
            ev.payload["bus"] = "B2"

    def test_replace_payload(self):
        ev = Event("move", 10, {"bus": "B1", "delay": 30}, arrival=12)
        ev2 = ev.replace_payload(delay=60)
        assert ev2["delay"] == 60
        assert ev2["bus"] == "B1"
        assert ev2.time == 10
        assert ev2.arrival == 12
        assert ev["delay"] == 30  # original untouched


class TestFluentFact:
    def test_key_coerced_to_tuple(self):
        fact = FluentFact("gps", ["B1"], {"lon": 0.0}, 5)
        assert fact.key == ("B1",)

    def test_dict_value_frozen(self):
        fact = FluentFact("gps", ("B1",), {"lon": 0.0}, 5)
        with pytest.raises(TypeError):
            fact.value["lon"] = 1.0

    def test_scalar_value_allowed(self):
        fact = FluentFact("mode", ("B1",), "express", 5)
        assert fact.value == "express"

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            FluentFact("gps", ("B1",), {}, 10, arrival=3)


class TestOccurrence:
    def test_key_coerced(self):
        occ = Occurrence("delayIncrease", ["B1"], 7, {"delay_increase": 90})
        assert occ.key == ("B1",)
        assert occ["delay_increase"] == 90
        assert occ.get("nope") is None
