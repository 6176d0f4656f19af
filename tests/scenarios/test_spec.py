"""Scenario DSL validation and the serialise → parse → generate
round-trip pin.

The Hypothesis property at the bottom is the satellite contract: any
valid spec survives ``to_mapping`` → ``from_mapping`` unchanged, and
the re-parsed spec compiles to a byte-identical SDE stream — the DSL
document *is* the scenario, with no hidden state on the side.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    SCENARIO_LIBRARY,
    ScenarioSpec,
    compile_scenario,
    get_scenario,
    scenario_names,
)


class TestSpecValidation:
    def test_minimal_document(self):
        spec = ScenarioSpec.from_mapping({"name": "tiny"})
        assert spec.name == "tiny"
        assert spec.topology.family == "grid"
        assert spec.storm is None

    def test_unknown_top_level_key_hints(self):
        with pytest.raises(ValueError, match="did you mean 'topology'"):
            ScenarioSpec.from_mapping({"name": "x", "topologie": {}})

    def test_unknown_section_key_hints(self):
        with pytest.raises(ValueError, match="did you mean 'rows'"):
            ScenarioSpec.from_mapping(
                {"name": "x", "topology": {"row": 5}}
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown topology family"):
            ScenarioSpec.from_mapping(
                {"name": "x", "topology": {"family": "hexagonal"}}
            )

    def test_reserved_system_keys_rejected(self):
        with pytest.raises(ValueError, match="runner owns"):
            ScenarioSpec.from_mapping(
                {"name": "x", "system": {"sharded": True}}
            )

    def test_bad_severity_band_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            ScenarioSpec.from_mapping(
                {"name": "x", "storm": {"severity": [90, 60]}}
            )

    def test_start_must_be_time_of_day(self):
        with pytest.raises(ValueError, match="time of day"):
            ScenarioSpec.from_mapping({"name": "x", "start": 90000})

    def test_duration_floor(self):
        with pytest.raises(ValueError, match="at least 600"):
            ScenarioSpec.from_mapping({"name": "x", "duration": 300})

    def test_envelope_unknown_key_hints(self):
        with pytest.raises(ValueError, match="unknown envelope key"):
            ScenarioSpec.from_mapping(
                {"name": "x", "envelope": {"alert": {}}}
            )

    def test_unknown_parity_variant_rejected(self):
        with pytest.raises(ValueError, match="parity variant"):
            ScenarioSpec.from_mapping(
                {"name": "x", "envelope": {"parity": ["sharded9"]}}
            )


class TestLibrary:
    def test_at_least_five_scenarios(self):
        assert len(SCENARIO_LIBRARY) >= 5

    def test_three_topology_families(self):
        assert len({s.topology.family for s in SCENARIO_LIBRARY}) >= 3

    def test_names_unique(self):
        names = scenario_names()
        assert len(names) == len(set(names))

    def test_get_scenario_hints_on_typo(self):
        with pytest.raises(KeyError, match="did you mean"):
            get_scenario("grid_rus")

    @pytest.mark.parametrize("name", [s.name for s in SCENARIO_LIBRARY])
    def test_round_trip_equality(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec


# ----------------------------------------------------------------------
# Hypothesis: serialise → parse → generate determinism.

# Lower size bounds keep the bus-line sampler viable: routes need at
# least 8 junctions, so the city must offer paths that long.
_topologies = st.one_of(
    st.fixed_dictionaries(
        {
            "family": st.just("grid"),
            "rows": st.integers(6, 8),
            "cols": st.integers(6, 8),
        }
    ),
    st.fixed_dictionaries(
        {
            "family": st.just("radial"),
            "rings": st.integers(4, 5),
            "spokes": st.integers(8, 10),
        }
    ),
    st.fixed_dictionaries(
        {
            "family": st.just("multi_centre"),
            "centres": st.integers(2, 3),
            "block": st.integers(4, 5),
        }
    ),
)

_storms = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "n_incidents": st.integers(1, 3),
            "severity": st.tuples(
                st.integers(50, 80), st.integers(90, 140)
            ).map(list),
        }
    ),
)

_specs = st.fixed_dictionaries(
    {
        "name": st.just("prop"),
        "seed": st.integers(0, 2**16),
        "start": st.integers(0, 23) .map(lambda h: h * 3600),
        "duration": st.just(600),
        "topology": _topologies,
        "fleet": st.fixed_dictionaries(
            {"n_buses": st.integers(1, 4), "n_lines": st.integers(1, 2)}
        ),
        "sensors": st.fixed_dictionaries(
            {"coverage": st.floats(0.05, 1.0, allow_nan=False)}
        ),
        "storm": _storms,
    }
)


class TestRoundTripProperty:
    @settings(max_examples=12, deadline=None)
    @given(document=_specs)
    def test_round_trip_generates_identical_stream(self, document):
        spec = ScenarioSpec.from_mapping(document)
        reparsed = ScenarioSpec.from_mapping(spec.to_mapping())
        assert reparsed == spec

        try:
            a = compile_scenario(spec)
        except RuntimeError as error:
            # About one drawn city in a hundred — a 6x6 grid whose
            # diagonal arteries leave no shortest path of make_lines'
            # eight junctions — cannot host a bus line at all.  That is
            # the generator refusing the city, not a round-trip failure.
            assume("long routes" not in str(error))
            raise
        b = compile_scenario(reparsed)
        start, end = spec.start, spec.start + spec.duration
        data_a = a.generate(start, end)
        data_b = b.generate(start, end)
        assert [repr(e) for e in data_a.events] == [
            repr(e) for e in data_b.events
        ]
        assert [repr(f) for f in data_a.facts] == [
            repr(f) for f in data_b.facts
        ]
