"""Cross-matrix execution-path parity over generated scenarios.

Extends the golden-trace harness's interval serialisation
(``tests/golden/record_golden.serialise_snapshot``) from the one
recorded Dublin miniature to DSL-generated scenarios of all three
topology families: for each scenario, the engine, the reference
engine (every window rebuilt from objects, every rule interpreted)
and the two-shard sharded pipeline must produce identical CE output —
at the engine
level snapshot-for-snapshot (fluent intervals included), and at the
system level on the full produced fingerprint (alerts, crowd
outcomes, rewards).
"""

from dataclasses import replace

import pytest

from repro.core import RTEC
from repro.core.reference import ReferenceRTEC
from repro.core.traffic import (
    build_traffic_definitions,
    default_traffic_params,
)
from repro.scenarios import (
    GROUPS2,
    ce_fingerprint,
    compile_scenario,
    get_scenario,
)
from repro.scenarios.runner import _base_config, _run_variant
from tests.golden.record_golden import serialise_snapshot

#: One scenario per topology family.
PARITY_SCENARIOS = ("grid_rush", "radial_storm", "multi_centre_stadium")


def _engine_trace(scenario, data, engine_class):
    definitions = build_traffic_definitions(
        scenario.topology, adaptive=True
    )
    engine = engine_class(
        definitions,
        window=600,
        step=300,
        start=data.start,
        params=default_traffic_params(),
    )
    engine.feed(data.events, data.facts)
    return [
        serialise_snapshot(snapshot) for snapshot in engine.run(data.end)
    ]


@pytest.mark.parametrize("name", PARITY_SCENARIOS)
class TestEngineIntervalParity:
    """Snapshot-level: identical fluent intervals and occurrences."""

    def test_legacy_and_interpreted_match_incremental(self, name):
        spec = get_scenario(name)
        scenario = compile_scenario(spec)
        data = scenario.generate(spec.start, spec.start + 1800)
        # The one leg left of the 2x2 the name recalls: object window
        # and interpreter together, the reference engine.
        assert _engine_trace(scenario, data, ReferenceRTEC) == (
            _engine_trace(scenario, data, RTEC)
        )


@pytest.mark.parametrize("name", PARITY_SCENARIOS)
class TestSystemPathParity:
    """System-level: the execution paths produce one output."""

    def test_quad_parity(self, name):
        spec = get_scenario(name)
        start, end = spec.start, spec.start + 1800
        config = _base_config(spec)
        _, baseline = _run_variant(spec, config, start, end)
        baseline_fp = ce_fingerprint(baseline)

        _, reference = _run_variant(
            spec,
            replace(config, incremental=False, compiled_rules=False),
            start,
            end,
        )
        assert ce_fingerprint(reference) == baseline_fp

        # The two-shard legs share one grouping so the comparison
        # isolates the process topology (a different grouping may
        # legitimately change cross-entity CEs).
        _, grouped = _run_variant(
            spec, replace(config, region_groups=GROUPS2), start, end
        )
        _, sharded = _run_variant(
            spec,
            replace(config, region_groups=GROUPS2, sharded=True),
            start,
            end,
        )
        assert ce_fingerprint(sharded) == ce_fingerprint(grouped)
