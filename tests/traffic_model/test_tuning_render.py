"""Tests for hyperparameter grid search and the ASCII flow map."""

import networkx as nx
import numpy as np
import pytest

from repro.traffic_model import (
    GRID,
    TrafficFlowModel,
    grid_search,
    render_flow_map,
)


def _grid_graph(n=5):
    return nx.convert_node_labels_to_integers(nx.grid_2d_graph(n, n))


def _smooth_observations(graph, keep_every=1):
    return {
        n: 100.0 + 15.0 * (n % 5) + 5.0 * (n // 5)
        for i, n in enumerate(graph.nodes)
        if i % keep_every == 0
    }


class TestDefaultGrid:
    def test_spans_zero_to_upper_exclusive(self):
        assert GRID == (2.0, 4.0, 6.0, 8.0, 10.0)
        assert all(g > 0 for g in GRID)


class TestGridSearch:
    def test_finds_reasonable_hyperparameters(self):
        graph = _grid_graph(5)
        observations = _smooth_observations(graph)
        result = grid_search(
            graph,
            observations,
            alphas=[1.0, 5.0],
            betas=[0.05, 1.0],
            folds=3,
            seed=1,
        )
        assert (result.alpha, result.beta) in result.scores
        assert result.rmse == min(result.scores.values())
        assert len(result.scores) == 4

    def test_validates_inputs(self):
        graph = _grid_graph(3)
        observations = _smooth_observations(graph)
        with pytest.raises(ValueError, match="folds"):
            grid_search(graph, observations, folds=1)
        with pytest.raises(ValueError, match="positive"):
            grid_search(graph, observations, alphas=[0.0], betas=[1.0])
        with pytest.raises(ValueError, match="more observations"):
            grid_search(graph, {0: 1.0, 1: 2.0}, folds=3)

    def test_deterministic_given_seed(self):
        graph = _grid_graph(4)
        observations = _smooth_observations(graph)
        kwargs = dict(alphas=[1.0, 4.0], betas=[0.1], folds=2, seed=7)
        r1 = grid_search(graph, observations, **kwargs)
        r2 = grid_search(graph, observations, **kwargs)
        assert r1.scores == r2.scores

    def test_best_model_usable(self):
        graph = _grid_graph(4)
        observations = _smooth_observations(graph)
        result = grid_search(
            graph, observations, alphas=[2.0], betas=[0.1], folds=2
        )
        model = result.best_model(graph)
        model.fit(observations)
        assert len(model.estimate()) == graph.number_of_nodes()


class TestRenderFlowMap:
    def _positions(self, n=10):
        rng = np.random.default_rng(0)
        return {
            i: (-6.3 + 0.2 * rng.random(), 53.3 + 0.1 * rng.random())
            for i in range(n)
        }

    def test_renders_expected_dimensions(self):
        positions = self._positions()
        values = {i: float(i) for i in positions}
        out = render_flow_map(positions, values, width=40, height=10)
        lines = out.split("\n")
        assert len(lines) == 11  # 10 rows + legend
        assert all(len(line) == 40 for line in lines[:10])
        assert "low" in lines[-1] and "high" in lines[-1]

    def test_high_values_get_dense_shades(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0)}
        values = {0: 0.0, 1: 100.0}
        out = render_flow_map(positions, values, width=10, height=5)
        assert "@" in out
        assert "." in out or " " in out

    def test_constant_values_render(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0)}
        out = render_flow_map(positions, {0: 5.0, 1: 5.0}, width=8, height=4)
        assert out  # degenerate span handled without division errors

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="2x2"):
            render_flow_map({0: (0, 0)}, {0: 1.0}, width=1, height=5)
        with pytest.raises(ValueError, match="shade"):
            render_flow_map({0: (0, 0)}, {0: 1.0}, shades="x")
        with pytest.raises(ValueError, match="drawable"):
            render_flow_map({0: (0, 0)}, {1: 1.0})

    def test_skips_nodes_without_positions(self):
        positions = {0: (0.0, 0.0), 1: (1.0, 1.0)}
        values = {0: 1.0, 1: 2.0, 99: 3.0}
        out = render_flow_map(positions, values, width=8, height=4)
        assert out


class TestEndToEndSparsityStory:
    def test_grid_search_then_estimate_beats_mean_baseline(self):
        graph = _grid_graph(6)
        rng = np.random.default_rng(3)
        truth = {
            n: 200.0
            + 40.0 * np.sin(n / 4.0)
            + 20.0 * (n % 6)
            for n in graph.nodes
        }
        observed = {n: truth[n] + rng.normal(0, 2.0) for n in list(graph)[::2]}
        result = grid_search(
            graph,
            observed,
            alphas=[1.0, 5.0, 10.0],
            betas=[0.01, 0.1],
            folds=3,
            seed=5,
        )
        model = result.best_model(graph, noise=2.0)
        model.fit(observed)
        hidden = [n for n in graph.nodes if n not in observed]
        rmse = model.rmse({n: truth[n] for n in hidden})
        mean = np.mean(list(observed.values()))
        baseline = np.sqrt(np.mean([(mean - truth[n]) ** 2 for n in hidden]))
        assert rmse < baseline
