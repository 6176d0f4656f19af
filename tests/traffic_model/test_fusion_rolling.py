"""Tests for the rolling flow estimator."""

import networkx as nx
import pytest

from repro.traffic_model import RollingFlowEstimator


class TestRollingFlowEstimator:
    def _estimator(self, **kwargs):
        graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4))
        defaults = dict(alpha=5.0, beta=0.05, noise=5.0, staleness_s=600)
        defaults.update(kwargs)
        return RollingFlowEstimator(graph, **defaults), graph

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingFlowEstimator(nx.Graph())
        graph = nx.path_graph(3)
        with pytest.raises(ValueError):
            RollingFlowEstimator(graph, staleness_s=0)

    def test_observe_unknown_node(self):
        estimator, _ = self._estimator()
        with pytest.raises(KeyError):
            estimator.observe("mars", 1.0, 0)

    def test_no_data_returns_none(self):
        estimator, _ = self._estimator()
        assert estimator.estimate(1000) is None
        assert estimator.coverage(1000) == 0.0

    def test_estimates_all_junctions(self):
        estimator, graph = self._estimator()
        for node, value in {0: 300.0, 15: 900.0}.items():
            estimator.observe(node, value, time=100)
        estimates = estimator.estimate(200)
        assert set(estimates) == set(graph.nodes)
        assert estimator.refits == 1

    def test_latest_reading_wins(self):
        estimator, _ = self._estimator()
        estimator.observe(0, 100.0, time=10)
        estimator.observe(0, 900.0, time=20)
        assert estimator.active_observations(30)[0] == 900.0

    def test_out_of_order_reading_ignored(self):
        estimator, _ = self._estimator()
        estimator.observe(0, 900.0, time=20)
        estimator.observe(0, 100.0, time=10)  # stale duplicate
        assert estimator.active_observations(30)[0] == 900.0

    def test_staleness_ages_readings_out(self):
        estimator, _ = self._estimator(staleness_s=100)
        estimator.observe(0, 500.0, time=0)
        assert estimator.active_observations(50)
        assert not estimator.active_observations(200)
        assert estimator.estimate(200) is None

    def test_coverage_fraction(self):
        estimator, graph = self._estimator()
        for node, value in {0: 1.0, 1: 2.0}.items():
            estimator.observe(node, value, time=0)
        assert estimator.coverage(10) == pytest.approx(2 / 16)

    def test_estimates_track_observations(self):
        estimator, _ = self._estimator(noise=1.0)
        for node, value in {0: 200.0, 15: 800.0}.items():
            estimator.observe(node, value, time=0)
        estimates = estimator.estimate(10)
        assert estimates[0] < estimates[15]

    def test_continuous_reestimation_follows_changes(self):
        estimator, _ = self._estimator(noise=1.0, staleness_s=300)
        for node, value in {0: 200.0, 15: 200.0}.items():
            estimator.observe(node, value, time=0)
        first = estimator.estimate(10)
        for node, value in {0: 900.0, 15: 900.0}.items():
            estimator.observe(node, value, time=400)
        second = estimator.estimate(410)
        assert second[5] > first[5]
        assert estimator.refits == 2
