"""Gaussian-process regression of traffic flow on the street graph.

Implements the predictive machinery of Section 6: observed flows ``y``
at sensor-equipped junctions ``ū`` are noisy views of latent function
values (eq. 13); the joint of observed and unobserved flows is Gaussian
with covariance given by the graph kernel (eq. 15), so the flows at
unmeasured junctions ``u`` follow the conditional::

    m = K_{u,ū} (K_{ū,ū} + σ²I)⁻¹ y
    Σ = K_{u,u} − K_{u,ū} (K_{ū,ū} + σ²I)⁻¹ K_{ū,u}

A zero prior mean is assumed "without loss of generality"; this
implementation realises that by centring the observations and adding
the empirical mean back to the predictions.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np
from scipy import linalg as sla

from .kernels import graph_kernel


@dataclass
class GPPrediction:
    """Predictive distribution at the queried nodes."""

    mean: np.ndarray
    variance: np.ndarray
    covariance: Optional[np.ndarray] = None


class GraphGP:
    """GP conditioning on a fixed kernel matrix.

    Parameters
    ----------
    kernel:
        The full ``M × M`` covariance matrix ``K`` over all nodes.
    noise:
        Observation noise standard deviation ``σ`` (eq. 13).
    """

    def __init__(self, kernel: np.ndarray, noise: float = 1.0):
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise ValueError("kernel must be a square matrix")
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.kernel = kernel
        self.noise = noise
        self._obs_idx: Optional[np.ndarray] = None
        self._cho = None
        self._alpha: Optional[np.ndarray] = None
        self._y_mean = 0.0

    @property
    def n_nodes(self) -> int:
        """Number of nodes the kernel covers."""
        return self.kernel.shape[0]

    def fit(self, observed_idx: Sequence[int], y: Sequence[float]) -> "GraphGP":
        """Condition on observations ``y`` at node indices ``observed_idx``."""
        observed_idx = np.asarray(observed_idx, dtype=int)
        y = np.asarray(y, dtype=float)
        if observed_idx.ndim != 1 or observed_idx.size == 0:
            raise ValueError("need at least one observation")
        if observed_idx.size != y.size:
            raise ValueError("observed_idx and y must have the same length")
        if observed_idx.min() < 0 or observed_idx.max() >= self.n_nodes:
            raise ValueError("observation index out of range")
        if len(set(observed_idx.tolist())) != observed_idx.size:
            raise ValueError("duplicate observation indices")

        self._obs_idx = observed_idx
        self._y_mean = float(y.mean())
        centred = y - self._y_mean
        k_oo = self.kernel[np.ix_(observed_idx, observed_idx)]
        gram = k_oo + self.noise**2 * np.eye(observed_idx.size)
        self._cho = sla.cho_factor(gram, lower=True)
        self._alpha = sla.cho_solve(self._cho, centred)
        return self

    def _require_fit(self) -> None:
        if self._obs_idx is None:
            raise RuntimeError("fit() must be called before predicting")

    def predict(
        self,
        query_idx: Sequence[int],
        *,
        full_covariance: bool = False,
    ) -> GPPrediction:
        """Predictive mean/variance at ``query_idx`` (eq. 15 conditional)."""
        self._require_fit()
        query_idx = np.asarray(query_idx, dtype=int)
        if query_idx.size == 0:
            return GPPrediction(np.empty(0), np.empty(0))
        if query_idx.min() < 0 or query_idx.max() >= self.n_nodes:
            raise ValueError("query index out of range")
        k_qo = self.kernel[np.ix_(query_idx, self._obs_idx)]
        mean = k_qo @ self._alpha + self._y_mean
        solved = sla.cho_solve(self._cho, k_qo.T)
        k_qq = self.kernel[np.ix_(query_idx, query_idx)]
        covariance = k_qq - k_qo @ solved
        variance = np.clip(np.diag(covariance).copy(), 0.0, None)
        return GPPrediction(
            mean=mean,
            variance=variance,
            covariance=covariance if full_covariance else None,
        )

class TrafficFlowModel:
    """The traffic-modelling component: city-wide flow estimation.

    Wraps :class:`GraphGP` over a street graph with the regularized
    Laplacian kernel; sensor readings (from SCATS aggregation, and
    optionally crowd reports — the component is "general enough that
    any additional sources ... can be incorporated") come in as a
    node → flow mapping, and estimates are produced for every junction.

    Parameters
    ----------
    graph:
        The street network; nodes are junctions.
    alpha, beta:
        Kernel hyperparameters (eq. 16), typically grid-searched.
    noise:
        Observation noise standard deviation ``σ``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        *,
        alpha: float = 3.0,
        beta: float = 1.0,
        noise: float = 1.0,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("graph must have at least one node")
        self.graph = graph
        self.alpha = alpha
        self.beta = beta
        self.nodes = list(graph.nodes)
        self._index = {node: i for i, node in enumerate(self.nodes)}
        kernel = graph_kernel(graph, alpha, beta, nodes=self.nodes)
        self._gp = GraphGP(kernel, noise=noise)
        self._observations: dict = {}

    def fit(self, observations: Mapping) -> "TrafficFlowModel":
        """Condition on sensor readings: ``{node: flow_value}``."""
        unknown = [n for n in observations if n not in self._index]
        if unknown:
            raise KeyError(f"observations at unknown junctions: {unknown[:5]}")
        if not observations:
            raise ValueError("need at least one observation")
        self._observations = dict(observations)
        idx = [self._index[n] for n in self._observations]
        self._gp.fit(idx, list(self._observations.values()))
        return self

    def estimate(self, nodes: Optional[Sequence] = None) -> dict:
        """Flow estimates ``{node: mean}`` at ``nodes`` (default: all)."""
        nodes = list(nodes) if nodes is not None else self.nodes
        idx = [self._index[n] for n in nodes]
        prediction = self._gp.predict(idx)
        return dict(zip(nodes, prediction.mean.tolist()))

    def rmse(self, truth: Mapping) -> float:
        """Root-mean-square error of the estimates against ``truth``."""
        estimates = self.estimate(list(truth))
        errors = np.array([estimates[n] - truth[n] for n in truth], dtype=float)
        return float(np.sqrt(np.mean(errors**2)))
