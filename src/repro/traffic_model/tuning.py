"""Hyperparameter selection for the graph-GP traffic model.

"The hyperparametres are chosen in advance using grid search within the
interval [0, ..., 10]" (paper, Section 7.3).  Selection is by k-fold
cross-validated RMSE on the observed junctions: each fold hides a
subset of sensors and scores the GP's predictions at the hidden
locations.  ``α`` and ``β`` must be strictly positive for the kernel to
exist, so the grid spans ``(0, 10]``.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .gp import TrafficFlowModel


#: The default candidates for α and β: evenly spaced over ``(0, 10]``.
GRID = (2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass
class GridSearchResult:
    """Outcome of the hyperparameter search."""

    alpha: float
    beta: float
    rmse: float
    #: Every evaluated combination: (alpha, beta) → CV RMSE.
    scores: dict[tuple[float, float], float]

    def best_model(self, graph: nx.Graph, *, noise: float = 1.0) -> TrafficFlowModel:
        """A fresh model configured with the winning hyperparameters."""
        return TrafficFlowModel(
            graph, alpha=self.alpha, beta=self.beta, noise=noise
        )


def _folds(nodes: list, k: int, rng: random.Random) -> list[list]:
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    return [shuffled[i::k] for i in range(k)]


def grid_search(
    graph: nx.Graph,
    observations: Mapping,
    *,
    alphas: Sequence[float] = GRID,
    betas: Sequence[float] = GRID,
    folds: int = 3,
    noise: float = 1.0,
    seed: int = 0,
) -> GridSearchResult:
    """Cross-validated grid search over (α, β).

    Parameters
    ----------
    graph:
        The street network.
    observations:
        Sensor readings ``{node: flow}`` (needs ≥ ``folds`` + 1 sensors).
    alphas, betas:
        Candidate values; default :data:`GRID`.
    folds:
        Number of cross-validation folds.
    """
    if folds < 2:
        raise ValueError("cross-validation needs at least two folds")
    nodes = list(observations)
    if len(nodes) <= folds:
        raise ValueError(
            f"need more observations ({len(nodes)}) than folds ({folds})"
        )
    alphas, betas = list(alphas), list(betas)
    if any(a <= 0 for a in alphas) or any(b <= 0 for b in betas):
        raise ValueError("alpha/beta candidates must be positive")

    rng = random.Random(seed)
    fold_sets = _folds(nodes, folds, rng)

    scores: dict[tuple[float, float], float] = {}
    for alpha in alphas:
        for beta in betas:
            model = TrafficFlowModel(graph, alpha=alpha, beta=beta, noise=noise)
            squared_errors: list[float] = []
            for held_out in fold_sets:
                held = set(held_out)
                train = {n: v for n, v in observations.items() if n not in held}
                if not train:
                    continue
                model.fit(train)
                estimates = model.estimate(held_out)
                squared_errors.extend(
                    (estimates[n] - observations[n]) ** 2 for n in held_out
                )
            scores[(alpha, beta)] = float(np.sqrt(np.mean(squared_errors)))

    best_alpha, best_beta = min(scores, key=scores.get)  # type: ignore[arg-type]
    return GridSearchResult(
        alpha=best_alpha,
        beta=best_beta,
        rmse=scores[(best_alpha, best_beta)],
        scores=scores,
    )
