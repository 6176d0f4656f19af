"""Continuous re-estimation of the city-wide flow field.

Section 7.3: "the Gaussian Process estimate is computed for the
unobserved locations ... This step is repeated continuously."  The
rolling estimator keeps the latest reading per junction, ages readings
out after a staleness horizon (a sensor that went quiet stops
anchoring the field), and re-fits the GP on demand — reusing the
kernel matrix, which only depends on the street graph, not on the
observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np

from ..obs import Registry
from .gp import GraphGP
from .kernels import graph_kernel


@dataclass
class _Reading:
    value: float
    time: int


class RollingFlowEstimator:
    """Streaming wrapper around the graph GP.

    Parameters
    ----------
    graph:
        The street network (fixed for the estimator's lifetime; the
        kernel is computed once).
    alpha, beta, noise:
        GP configuration (see :mod:`repro.traffic_model.kernels`).
    staleness_s:
        Readings older than this are dropped at estimation time.
    metrics:
        Optional :class:`repro.obs.Registry`; when given, the estimator
        counts readings (``flow.observations``) and publishes a
        ``flow.refits`` gauge after every re-fit.
    """

    def __init__(
        self,
        graph: nx.Graph,
        *,
        alpha: float = 5.0,
        beta: float = 0.05,
        noise: float = 20.0,
        staleness_s: int = 1800,
        metrics: Optional[Registry] = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("graph must have at least one node")
        if staleness_s <= 0:
            raise ValueError("staleness horizon must be positive")
        self.graph = graph
        self.staleness_s = staleness_s
        self.nodes = list(graph.nodes)
        self._index = {node: i for i, node in enumerate(self.nodes)}
        self._alpha = alpha
        self._beta = beta
        self._kernel = graph_kernel(graph, alpha, beta, nodes=self.nodes)
        self._noise = noise
        self._readings: dict = {}
        self.metrics = metrics
        #: Number of GP refits performed (observability for operators).
        self.refits = 0

    # -- durability ----------------------------------------------------
    # The kernel matrix is O(n^2) floats — by far the largest object in
    # a pipeline checkpoint — and a pure function of (graph, alpha,
    # beta).  Dropping it from the pickle keeps checkpoints small and
    # fast; the restoring process recomputes it once.
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_kernel"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._kernel = graph_kernel(
            self.graph, self._alpha, self._beta, nodes=self.nodes
        )

    # ------------------------------------------------------------------
    def observe(self, node, value: float, time: int) -> None:
        """Ingest one sensor (or crowd pseudo-) reading."""
        if node not in self._index:
            raise KeyError(f"unknown junction: {node!r}")
        current = self._readings.get(node)
        if current is None or time >= current.time:
            self._readings[node] = _Reading(float(value), time)
        if self.metrics is not None:
            self.metrics.counter("flow.observations").inc()

    def active_observations(self, now: int) -> dict:
        """Readings still within the staleness horizon at ``now``."""
        horizon = now - self.staleness_s
        return {
            node: reading.value
            for node, reading in self._readings.items()
            if reading.time > horizon
        }

    def coverage(self, now: int) -> float:
        """Fraction of junctions with a fresh reading."""
        return len(self.active_observations(now)) / len(self.nodes)

    def estimate(self, now: int) -> Optional[dict]:
        """Re-fit on the fresh readings and estimate every junction.

        Returns ``None`` when no reading is fresh (the operator map
        would be pure prior — better to say "no data" than to invent).
        """
        observations = self.active_observations(now)
        if not observations:
            return None
        gp = GraphGP(self._kernel, noise=self._noise)
        idx = [self._index[n] for n in observations]
        gp.fit(idx, list(observations.values()))
        self.refits += 1
        if self.metrics is not None:
            self.metrics.gauge("flow.refits").set(self.refits)
        prediction = gp.predict(np.arange(len(self.nodes)))
        return dict(zip(self.nodes, prediction.mean.tolist()))
