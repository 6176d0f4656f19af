"""Tests for the graph kernels (eq. 16)."""

import networkx as nx
import numpy as np
import pytest

from repro.traffic_model import (
    adjacency_matrix,
    combinatorial_laplacian,
    graph_kernel,
    regularized_laplacian_kernel,
)


def _path_graph(n=5):
    return nx.path_graph(n)


class TestLaplacian:
    def test_path_graph_laplacian(self):
        adjacency = adjacency_matrix(_path_graph(3))
        laplacian = combinatorial_laplacian(adjacency)
        expected = np.array(
            [[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float
        )
        assert np.allclose(laplacian, expected)

    def test_rows_sum_to_zero(self):
        graph = nx.erdos_renyi_graph(20, 0.2, seed=1)
        laplacian = combinatorial_laplacian(adjacency_matrix(graph))
        assert np.allclose(laplacian.sum(axis=1), 0.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            combinatorial_laplacian(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            combinatorial_laplacian(np.array([[0, 1], [0, 0]], dtype=float))

    def test_respects_node_order(self):
        graph = nx.Graph([("a", "b"), ("b", "c")])
        adjacency = adjacency_matrix(graph, nodes=["c", "b", "a"])
        assert adjacency[0, 1] == 1  # c-b
        assert adjacency[0, 2] == 0  # c-a


class TestRegularizedLaplacianKernel:
    def test_positive_definite(self):
        laplacian = combinatorial_laplacian(adjacency_matrix(_path_graph(6)))
        kernel = regularized_laplacian_kernel(laplacian, alpha=2.0, beta=1.0)
        assert np.allclose(kernel, kernel.T)
        assert np.linalg.eigvalsh(kernel).min() > 0

    def test_adjacent_nodes_more_correlated(self):
        kernel = graph_kernel(_path_graph(6), alpha=2.0, beta=1.0)
        # Correlation with the immediate neighbour beats the far end.
        assert kernel[0, 1] > kernel[0, 5]

    def test_correlation_decays_with_distance(self):
        kernel = graph_kernel(nx.path_graph(8), alpha=2.0, beta=1.0)
        row = kernel[0]
        assert all(row[i] > row[i + 1] for i in range(7))

    def test_beta_scales_inverse(self):
        laplacian = combinatorial_laplacian(adjacency_matrix(_path_graph(4)))
        k1 = regularized_laplacian_kernel(laplacian, alpha=2.0, beta=1.0)
        k2 = regularized_laplacian_kernel(laplacian, alpha=2.0, beta=2.0)
        assert np.allclose(k2, k1 / 2.0)

    def test_alpha_lengthens_correlation(self):
        graph = nx.path_graph(10)
        short = graph_kernel(graph, alpha=0.5, beta=1.0)
        long = graph_kernel(graph, alpha=5.0, beta=1.0)

        def correlation(k, i, j):
            return k[i, j] / np.sqrt(k[i, i] * k[j, j])

        assert correlation(long, 0, 5) > correlation(short, 0, 5)

    def test_invalid_hyperparameters(self):
        laplacian = combinatorial_laplacian(adjacency_matrix(_path_graph(3)))
        with pytest.raises(ValueError):
            regularized_laplacian_kernel(laplacian, alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            regularized_laplacian_kernel(laplacian, alpha=1.0, beta=-1.0)

    def test_identity_inverse_relation(self):
        # K really is the inverse of beta (L + I/alpha^2).
        laplacian = combinatorial_laplacian(adjacency_matrix(_path_graph(5)))
        alpha, beta = 3.0, 0.7
        kernel = regularized_laplacian_kernel(laplacian, alpha, beta)
        original = beta * (laplacian + np.eye(5) / alpha**2)
        assert np.allclose(kernel @ original, np.eye(5), atol=1e-8)

