"""Seed-plumbing audit: every generator is a pure function of its
explicit seed/rng — no global random state, no call-order coupling.

The regression behind ``TestRepeatedCalls``: the bus fleet simulator
used to mutate bus kinematics across ``events`` calls, so a second
generation of the same span continued from the first call's end state
instead of reproducing it."""

import random

from repro.dublin import DublinScenario, ScenarioConfig
from repro.scenarios import compile_scenario, get_scenario

from ..dublin.helpers import bus_events, scats_events


def _stream_repr(data):
    return [repr(e) for e in data.events] + [repr(f) for f in data.facts]


class TestRepeatedCalls:
    def test_bus_events_identical_across_calls(self):
        scenario = DublinScenario(
            ScenarioConfig(seed=5, n_buses=6, n_lines=2, n_intersections=6)
        )
        first = list(bus_events(scenario.buses, 0, 1200))
        second = list(bus_events(scenario.buses, 0, 1200))
        assert [repr(pair) for pair in first] == [
            repr(pair) for pair in second
        ]

    def test_scats_events_identical_across_calls(self):
        scenario = DublinScenario(
            ScenarioConfig(seed=5, n_buses=6, n_lines=2, n_intersections=6)
        )
        first = list(scats_events(scenario.scats, 0, 1200))
        second = list(scats_events(scenario.scats, 0, 1200))
        assert [repr(e) for e in first] == [repr(e) for e in second]

    def test_generate_identical_across_calls(self):
        scenario = DublinScenario(
            ScenarioConfig(seed=5, n_buses=6, n_lines=2, n_intersections=6)
        )
        assert _stream_repr(scenario.generate(0, 1200)) == _stream_repr(
            scenario.generate(0, 1200)
        )


class TestExplicitRng:
    def test_simulators_accept_explicit_rng(self):
        scenario = DublinScenario(
            ScenarioConfig(seed=5, n_buses=4, n_lines=2, n_intersections=6)
        )
        a = list(bus_events(scenario.buses, 0, 600, rng=random.Random(9)))
        b = list(bus_events(scenario.buses, 0, 600, rng=random.Random(9)))
        assert [repr(p) for p in a] == [repr(p) for p in b]
        c = list(scats_events(scenario.scats, 0, 600, rng=random.Random(9)))
        d = list(scats_events(scenario.scats, 0, 600, rng=random.Random(9)))
        assert [repr(e) for e in c] == [repr(e) for e in d]

    def test_global_random_state_untouched(self):
        """Generating a scenario must not consume or reseed the
        process-global random module."""
        random.seed(1234)
        before = random.getstate()
        scenario = compile_scenario(get_scenario("grid_rush"))
        scenario.generate(27900, 29100)
        assert random.getstate() == before


class TestSameSeedSameBytes:
    def test_two_same_seed_runs_byte_identical(self):
        spec = get_scenario("radial_storm")
        a = compile_scenario(spec).generate(spec.start, spec.start + 1800)
        b = compile_scenario(spec).generate(spec.start, spec.start + 1800)
        assert _stream_repr(a) == _stream_repr(b)

    def test_different_seed_differs(self):
        spec = get_scenario("radial_storm")
        from dataclasses import replace

        other = replace(spec, seed=spec.seed + 1)
        a = compile_scenario(spec).generate(spec.start, spec.start + 1200)
        b = compile_scenario(other).generate(spec.start, spec.start + 1200)
        assert _stream_repr(a) != _stream_repr(b)
