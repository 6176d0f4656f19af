"""Graph kernels for traffic-flow regression (paper, Section 6).

The latent traffic flows at the junctions of the street graph ``G`` are
modelled as a Gaussian Process whose covariance is tied to the network
structure: adjacent junctions are highly correlated.  Lacking
preferred-route knowledge, the paper opts "for the commonly used
regularized Laplacian kernel function" (equation 16)::

    K = [ β (L + I/α²) ]⁻¹

where ``L = D − A`` is the combinatorial Laplacian of ``G`` and
``α, β`` are hyperparameters.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import networkx as nx
import numpy as np


def adjacency_matrix(
    graph: nx.Graph, nodes: Optional[Sequence] = None
) -> np.ndarray:
    """Dense symmetric adjacency of ``graph`` in ``nodes`` order."""
    nodelist = list(nodes) if nodes is not None else list(graph.nodes)
    return nx.to_numpy_array(graph, nodelist=nodelist, weight=None)


def combinatorial_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """``L = D − A`` with ``D`` the diagonal degree matrix."""
    adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if not np.allclose(adjacency, adjacency.T):
        raise ValueError("adjacency must be symmetric (undirected graph)")
    degrees = adjacency.sum(axis=1)
    return np.diag(degrees) - adjacency


def regularized_laplacian_kernel(
    laplacian: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Equation (16): ``K = [β (L + I/α²)]⁻¹``.

    ``alpha`` controls the correlation length over the graph (larger
    ``α`` → longer-range smoothing) and ``beta`` the overall scale.
    Both must be positive.  The regularisation ``I/α²`` makes the
    matrix strictly positive definite, so the inverse always exists.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    laplacian = np.asarray(laplacian, dtype=float)
    n = laplacian.shape[0]
    matrix = beta * (laplacian + np.eye(n) / alpha**2)
    return np.linalg.inv(matrix)


def graph_kernel(
    graph: nx.Graph,
    alpha: float,
    beta: float,
    nodes: Optional[Sequence] = None,
) -> np.ndarray:
    """Convenience: eq. (16) kernel straight from a networkx graph."""
    adjacency = adjacency_matrix(graph, nodes)
    return regularized_laplacian_kernel(
        combinatorial_laplacian(adjacency), alpha, beta
    )
