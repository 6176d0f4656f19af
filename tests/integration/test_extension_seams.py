"""Integration: the extension seams documented in docs/extending.md.

Each test exercises one documented extension pattern end-to-end so the
guide cannot rot: a custom CE definition, a custom crowd aggregator in
the component, a custom selection policy in the engine, and a real
feed loaded through the JSONL seam.
"""

import pytest

from repro.core import RTEC, Occurrence
from repro.core.rules import DerivedEvent
from repro.core.traffic import build_traffic_definitions, default_traffic_params
from repro.crowd import (
    CrowdsourcingComponent,
    LocationPolicy,
    MajorityVote,
    Participant,
    QueryExecutionEngine,
    SelectionPolicy,
)
from repro.dublin import DublinScenario, ScenarioConfig, read_jsonl, write_jsonl


class GridlockWarning(DerivedEvent):
    """The docs/extending.md example definition, verbatim in spirit."""

    def __init__(self, threshold=2):
        super().__init__(
            "gridlockWarning", depends_on=("scatsIntCongestion",)
        )
        self.threshold = threshold

    def occurrences(self, ctx):
        congested = [
            key
            for key, ivs in ctx.fluent("scatsIntCongestion").items()
            if ivs.holds_at(ctx.window_end)
        ]
        if len(congested) >= self.threshold:
            yield Occurrence(
                self.name,
                ("city",),
                ctx.window_end,
                {"congested_intersections": len(congested)},
            )


@pytest.fixture(scope="module")
def scenario():
    return DublinScenario(
        ScenarioConfig(
            seed=71, rows=10, cols=10, n_intersections=30,
            n_buses=30, n_lines=5, n_incidents=25,
            incident_window=(0, 1800),
        )
    )


class TestCustomDefinitionSeam:
    def test_gridlock_warning_fires(self, scenario):
        data = scenario.generate(0, 1800)
        definitions = build_traffic_definitions(scenario.topology)
        definitions.append(GridlockWarning(threshold=1))
        engine = RTEC(
            definitions, window=900, step=300,
            params=default_traffic_params(),
        )
        engine.feed(data.events, data.facts)
        fired = []
        for snapshot in engine.run(1800):
            fired.extend(snapshot.all_occurrences("gridlockWarning"))
        assert fired, "incident-rich scenario must trigger the warning"
        assert all(o["congested_intersections"] >= 1 for o in fired)


class TestCustomAggregatorSeam:
    def test_component_accepts_majority_vote(self, scenario):
        engine = QueryExecutionEngine(seed=1)
        int_id = scenario.topology.ids()[0]
        lon, lat = scenario.topology.location(int_id)
        for i in range(5):
            engine.register(Participant(f"p{i}", 0.05, lon=lon, lat=lat))
        component = CrowdsourcingComponent(
            engine, aggregator=MajorityVote()
        )
        outcome = component.handle_disagreement(
            intersection=int_id, lon=lon, lat=lat, time=100,
            true_label="congestion",
        )
        assert outcome.crowd_event is not None
        assert outcome.crowd_event["value"] == "positive"


class MostReliableNearby(SelectionPolicy):
    """The docs/extending.md policy: the ``k`` participants within
    ``radius_m`` with the smallest estimated error rate."""

    def __init__(self, estimates, radius_m=500.0, k=1):
        self.nearby = LocationPolicy(radius_m)
        self.estimates = estimates
        self.k = k

    def select(self, task, candidates):
        near = self.nearby.select(task, candidates)
        return sorted(
            near, key=lambda p: self.estimates.get(p.participant_id, 0.25)
        )[: self.k]


class TestComposedPolicySeam:
    def test_location_then_reliability(self, scenario):
        int_id = scenario.topology.ids()[0]
        lon, lat = scenario.topology.location(int_id)
        estimates = {"near-good": 0.05, "near-bad": 0.6}
        policy = MostReliableNearby(estimates, k=1)
        engine = QueryExecutionEngine(policy=policy, seed=2)
        engine.register(Participant("near-good", 0.05, lon=lon, lat=lat))
        engine.register(Participant("near-bad", 0.6, lon=lon, lat=lat))
        engine.register(Participant("far", 0.01, lon=lon + 1.0, lat=lat))
        from repro.crowd import CrowdQuery, DisagreementTask

        result = engine.execute(
            CrowdQuery(
                task=DisagreementTask(
                    1, lon=lon, lat=lat, true_label="congestion"
                )
            )
        )
        assert result.selected == ["near-good"]


class TestRealFeedSeam:
    def test_jsonl_loader_substitutes_generation(self, scenario, tmp_path):
        # "A real feed replaces DublinScenario.generate() with a loader
        # producing those records" — the JSONL reader is that loader.
        data = scenario.generate(0, 900)
        write_jsonl(tmp_path / "feed.jsonl", data)
        loaded = read_jsonl(tmp_path / "feed.jsonl")
        engine = RTEC(
            build_traffic_definitions(scenario.topology),
            window=600, step=300, params=default_traffic_params(),
        )
        engine.feed(loaded.events, loaded.facts)
        snapshots = list(engine.run(900))
        assert sum(s.n_events for s in snapshots) > 0
