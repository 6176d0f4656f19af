"""Tests for GP conditioning and the traffic flow model (eq. 15)."""

import networkx as nx
import numpy as np
import pytest

from repro.traffic_model import GraphGP, TrafficFlowModel, graph_kernel


def _grid_graph(n=4):
    return nx.convert_node_labels_to_integers(nx.grid_2d_graph(n, n))


class TestGraphGP:
    def _gp(self, n=6, noise=0.1):
        kernel = graph_kernel(nx.path_graph(n), alpha=3.0, beta=0.5)
        return GraphGP(kernel, noise=noise)

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            GraphGP(np.ones((2, 3)))
        with pytest.raises(ValueError, match="noise"):
            GraphGP(np.eye(2), noise=0.0)

    def test_fit_validation(self):
        gp = self._gp()
        with pytest.raises(ValueError, match="at least one"):
            gp.fit([], [])
        with pytest.raises(ValueError, match="same length"):
            gp.fit([0, 1], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            gp.fit([99], [1.0])
        with pytest.raises(ValueError, match="duplicate"):
            gp.fit([1, 1], [1.0, 2.0])

    def test_predict_requires_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            self._gp().predict([0])

    def test_predict_validates_index(self):
        gp = self._gp().fit([0], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            gp.predict([99])

    def test_predict_empty(self):
        gp = self._gp().fit([0], [1.0])
        prediction = gp.predict([])
        assert prediction.mean.size == 0

    def test_interpolates_towards_observations(self):
        gp = self._gp(noise=0.01)
        gp.fit([0, 5], [10.0, 0.0])
        prediction = gp.predict([0, 2, 5])
        assert prediction.mean[0] == pytest.approx(10.0, abs=0.8)
        assert prediction.mean[2] == pytest.approx(0.0, abs=0.8)
        # The midpoint lies between the endpoints.
        assert 0.0 < prediction.mean[1] < 10.0

    def test_variance_zero_at_observations_grows_away(self):
        gp = self._gp(noise=0.01)
        gp.fit([0], [5.0])
        prediction = gp.predict([0, 1, 4])
        assert prediction.variance[0] < prediction.variance[1]
        assert prediction.variance[1] < prediction.variance[2]

    def test_full_covariance_on_request(self):
        gp = self._gp().fit([0], [5.0])
        without = gp.predict([1, 2])
        with_cov = gp.predict([1, 2], full_covariance=True)
        assert without.covariance is None
        assert with_cov.covariance.shape == (2, 2)

class TestTrafficFlowModel:
    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            TrafficFlowModel(nx.Graph())

    def test_fit_validates_nodes(self):
        model = TrafficFlowModel(_grid_graph())
        with pytest.raises(KeyError, match="unknown junctions"):
            model.fit({"mars": 1.0})
        with pytest.raises(ValueError, match="at least one"):
            model.fit({})

    def test_estimates_every_junction(self):
        graph = _grid_graph(4)
        model = TrafficFlowModel(graph, alpha=3.0, beta=0.5, noise=0.1)
        observations = {0: 100.0, 15: 900.0}
        model.fit(observations)
        estimates = model.estimate()
        assert set(estimates) == set(graph.nodes)
        assert all(np.isfinite(v) for v in estimates.values())

    def test_sparsity_fill_in_smooth_field(self):
        # Build a smooth ground-truth field over a grid, observe a
        # subset, and check unobserved junctions are recovered roughly.
        graph = _grid_graph(5)
        truth = {n: 100.0 + 20.0 * (n % 5) + 10.0 * (n // 5) for n in graph}
        observed = {n: truth[n] for n in graph if n % 2 == 0}
        model = TrafficFlowModel(graph, alpha=5.0, beta=0.05, noise=1.0)
        model.fit(observed)
        unobserved = [n for n in graph if n not in observed]
        rmse = model.rmse({n: truth[n] for n in unobserved})
        # Baseline: predicting the global observed mean everywhere.
        mean = np.mean(list(observed.values()))
        baseline = np.sqrt(
            np.mean(
                [(mean - truth[n]) ** 2 for n in unobserved]
            )
        )
        assert rmse < baseline

    def test_estimate_subset(self):
        graph = _grid_graph(3)
        model = TrafficFlowModel(graph)
        model.fit({0: 1.0})
        estimates = model.estimate([3, 5])
        assert set(estimates) == {3, 5}
