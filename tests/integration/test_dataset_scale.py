"""Integration: the scenario defaults match the paper's dataset scale.

Section 7: "The bus dataset includes 942 buses.  Each operating bus
emits SDEs every 20-30 seconds ... The SCATS dataset includes 966
sensors.  SCATS sensors transmit information every six minutes."
"""

import pytest

from repro.dublin import (
    EMISSION_PERIOD_S,
    SCATS_PERIOD_S,
    DublinScenario,
    ScenarioConfig,
)


class TestPaperScale:
    def test_default_fleet_size(self):
        assert ScenarioConfig().n_buses == 942

    def test_emission_period_bounds(self):
        assert EMISSION_PERIOD_S == (20, 30)

    def test_scats_period_six_minutes(self):
        assert SCATS_PERIOD_S == 360

    @pytest.mark.slow
    def test_paper_scale_stream_rates(self):
        # Full fleet over five minutes: bus SDE rate ~ 942/25 ≈ 38/s,
        # SCATS rate ~ sensors/360.
        scenario = DublinScenario(
            ScenarioConfig(seed=0, n_buses=942, n_lines=40,
                           n_intersections=350)
        )
        data = scenario.generate(0, 300)
        counts = {block.type: len(block) for block in data.columns.events}
        bus_rate = counts["move"] / 300
        assert bus_rate == pytest.approx(942 / 25.0, rel=0.15)
        scats_rate = counts["traffic"] / 300
        assert scats_rate == pytest.approx(
            scenario.scats.n_sensors / 360.0, rel=0.15
        )

    def test_four_region_partition(self):
        scenario = DublinScenario(
            ScenarioConfig(seed=0, rows=10, cols=10, n_buses=40,
                           n_lines=6, n_intersections=30)
        )
        data = scenario.generate(0, 600)
        split = scenario.split_by_region(data)
        assert set(split) == {"central", "north", "west", "south"}
        non_empty = [r for r, batch in split.items() if batch.n_events]
        assert len(non_empty) >= 3
