"""Envelope clause semantics, checked against a stub report — band
inclusion, absence bands, degraded-seconds bounds, unchecked parity
failing closed."""

import pytest

from repro.scenarios import EnvelopeSpec, check_envelope


class StubConsole:
    def __init__(self, counts):
        self._counts = counts

    def counts(self):
        return dict(self._counts)


class StubReport:
    """Just enough of SystemReport for check_envelope."""

    def __init__(
        self,
        *,
        occurrences=None,
        alerts=None,
        mean_s=0.001,
        crowd_resolutions=0,
        degraded=None,
    ):
        self._occurrences = occurrences or {}
        self.console = StubConsole(alerts or {})
        self.mean_recognition_time = mean_s
        self.crowd_resolutions = crowd_resolutions
        self.degraded = degraded or {}

    def total_occurrences(self, name):
        return self._occurrences.get(name, 0)


class TestClauses:
    def test_all_pass(self):
        envelope = EnvelopeSpec(
            occurrences={"agree": (5, 20)},
            alerts={"bus congestion": (1, 10)},
            max_mean_recognition_ms=50.0,
            crowd_resolutions=(0, 4),
            parity=("reference",),
        )
        report = StubReport(
            occurrences={"agree": 7},
            alerts={"bus congestion": 2},
            crowd_resolutions=1,
        )
        result = check_envelope(
            envelope,
            report,
            scenario="s",
            run_end=600,
            parity={"reference": True},
        )
        assert result.passed
        assert len(result.clauses) == 5

    def test_band_violation_fails(self):
        envelope = EnvelopeSpec(
            occurrences={"agree": (5, 20)}, parity=()
        )
        report = StubReport(occurrences={"agree": 40})
        result = check_envelope(
            envelope, report, scenario="s", run_end=600, parity={}
        )
        assert not result.passed
        assert result.failures[0].subject == "agree"

    def test_absence_band(self):
        envelope = EnvelopeSpec(
            alerts={"scats congestion": (0, 0)}, parity=()
        )
        quiet = StubReport(alerts={})
        noisy = StubReport(alerts={"scats congestion": 3})
        assert check_envelope(
            envelope, quiet, scenario="s", run_end=1, parity={}
        ).passed
        assert not check_envelope(
            envelope, noisy, scenario="s", run_end=1, parity={}
        ).passed

    def test_latency_bound(self):
        envelope = EnvelopeSpec(max_mean_recognition_ms=1.0, parity=())
        slow = StubReport(mean_s=0.5)
        result = check_envelope(
            envelope, slow, scenario="s", run_end=1, parity={}
        )
        assert not result.passed

    def test_degraded_bounds(self):
        envelope = EnvelopeSpec(degraded=(("scats", 500, 2000),), parity=())
        report = StubReport(degraded={"scats": [(100, 1200)]})
        assert check_envelope(
            envelope, report, scenario="s", run_end=3000, parity={}
        ).passed
        # Open interval counts to the end of the run.
        open_report = StubReport(degraded={"scats": [(100, None)]})
        result = check_envelope(
            envelope, open_report, scenario="s", run_end=3000, parity={}
        )
        assert not result.passed  # 2900 s > max 2000 s

    def test_missing_feed_fails_min_bound(self):
        envelope = EnvelopeSpec(degraded=(("scats", 1, None),), parity=())
        report = StubReport(degraded={})
        assert not check_envelope(
            envelope, report, scenario="s", run_end=3000, parity={}
        ).passed

    def test_unchecked_parity_fails_closed(self):
        envelope = EnvelopeSpec(parity=("reference", "sharded2"))
        report = StubReport()
        result = check_envelope(
            envelope, report, scenario="s", run_end=1, parity=None
        )
        assert not result.passed
        assert all(c.observed == "unchecked" for c in result.clauses)

    def test_diverged_parity_fails(self):
        envelope = EnvelopeSpec(parity=("reference",))
        report = StubReport()
        result = check_envelope(
            envelope,
            report,
            scenario="s",
            run_end=1,
            parity={"reference": False},
        )
        assert not result.passed
        assert result.failures[0].observed == "DIVERGED"


class TestEnvelopeSpecValidation:
    def test_bad_band_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            EnvelopeSpec(occurrences={"agree": (9, 3)})

    def test_round_trip(self):
        envelope = EnvelopeSpec(
            occurrences={"agree": (1, 5)},
            alerts={"bus congestion": (0, 0)},
            degraded=(("scats", 100, None),),
            crowd_resolutions=(0, 3),
            max_mean_recognition_ms=10.0,
            parity=("reference", "sharded2"),
        )
        assert EnvelopeSpec.from_mapping(envelope.to_mapping()) == envelope

    def test_degraded_two_tuple_defaults_open(self):
        envelope = EnvelopeSpec(degraded=(("scats", 100),))
        assert envelope.degraded == (("scats", 100, None),)
