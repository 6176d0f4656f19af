"""Tests for the unified SystemConfig construction/validation API."""

from dataclasses import fields

import pytest

from repro.system import SystemConfig

#: Fields nobody needed two values of, removed with the executor
#: backend; their values are now the defaults of the components that
#: read them.
REMOVED_KEYS = (
    "parallel_regions",
    "parallel_backend",
    "parallel_workers",
    "shard_heartbeat_s",
    "shard_liveness_timeout_s",
    "shard_start_method",
    "gp_alpha",
    "gp_beta",
    "gp_noise",
    "flow_staleness_s",
    "feed_outage_steps",
    "distribute_by_region",
    "use_measured_flows",
    "participant_error_range",
    "participant_radius_m",
    "crowd_deadline_ms",
    "crowd_min_support",
    "ce_priors",
    "prior_window",
    "rewards",
    "shard_max_restarts",
    "shard_restart_backoff_s",
)


class TestFromMapping:
    def test_builds_equivalent_config(self):
        mapping = {
            "window": 900,
            "step": 300,
            "adaptive": False,
            "n_participants": 10,
            "seed": 4,
        }
        assert SystemConfig.from_mapping(mapping) == SystemConfig(**mapping)

    def test_rejects_unknown_keys_with_hint(self):
        with pytest.raises(ValueError, match="unknown SystemConfig key"):
            SystemConfig.from_mapping({"windw": 600})
        with pytest.raises(ValueError, match="did you mean 'window'"):
            SystemConfig.from_mapping({"windw": 600})

    def test_rejects_several_unknown_keys(self):
        with pytest.raises(ValueError, match="'bogus'"):
            SystemConfig.from_mapping({"bogus": 1, "window": 2})

    def test_coerces_list_to_tuple(self):
        cfg = SystemConfig.from_mapping(
            {"region_groups": [["central", "north"], ["west", "south"]]}
        )
        assert cfg.region_groups == (("central", "north"), ("west", "south"))

    def test_empty_mapping_is_defaults(self):
        assert SystemConfig.from_mapping({}) == SystemConfig()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_rejects_removed_keys(self, key):
        with pytest.raises(
            ValueError, match=f"unknown SystemConfig key\\(s\\): '{key}'"
        ):
            SystemConfig.from_mapping({key: 1})

    def test_field_count(self):
        # Every independently settable value doubles what the parity
        # suites have to cover; adding one is a decision, not a default.
        assert len(fields(SystemConfig)) == 17


class TestValidation:
    def test_step_exceeding_window(self):
        with pytest.raises(ValueError, match="step must not exceed"):
            SystemConfig(window=100, step=500)

    def test_nonpositive_window(self):
        with pytest.raises(ValueError, match="positive"):
            SystemConfig(window=0, step=0)

    def test_bad_noisy_variant(self):
        with pytest.raises(ValueError, match="noisy_variant"):
            SystemConfig(noisy_variant="optimistic")

    def test_negative_participants(self):
        with pytest.raises(ValueError, match="n_participants"):
            SystemConfig(n_participants=-1)

    @pytest.mark.parametrize(
        "incremental, compiled_rules", [(True, False), (False, True)]
    )
    def test_the_two_engine_fields_are_one_choice(
        self, incremental, compiled_rules
    ):
        with pytest.raises(ValueError, match="select one engine together"):
            SystemConfig(
                incremental=incremental, compiled_rules=compiled_rules
            )

    def test_the_reference_engine_is_in_process_only(self):
        reference = dict(incremental=False, compiled_rules=False)
        assert SystemConfig(**reference).incremental is False
        with pytest.raises(ValueError, match="in-process only"):
            SystemConfig(sharded=True, **reference)

    def test_validation_applies_through_from_mapping(self):
        with pytest.raises(ValueError, match="step must not exceed"):
            SystemConfig.from_mapping({"window": 100, "step": 500})
