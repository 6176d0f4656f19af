"""Traffic modelling: GP flow regression on the street graph (Section 6).

Addresses the data *sparsity* problem: sensors cover a fraction of the
city's junctions, and the operator needs a city-wide picture.  Flow at
unmeasured junctions is estimated with a Gaussian Process whose
covariance is the regularized Laplacian kernel of the street graph.
"""

from .fusion import CONGESTED_FLOW, FREE_FLOW
from .gp import GPPrediction, GraphGP, TrafficFlowModel
from .kernels import (
    adjacency_matrix,
    combinatorial_laplacian,
    graph_kernel,
    regularized_laplacian_kernel,
)
from .render import SHADES, render_flow_map
from .rolling import RollingFlowEstimator
from .svg import render_city_svg, write_city_svg
from .tuning import GRID, GridSearchResult, grid_search

__all__ = [
    "adjacency_matrix",
    "combinatorial_laplacian",
    "regularized_laplacian_kernel",
    "graph_kernel",
    "GraphGP",
    "GPPrediction",
    "TrafficFlowModel",
    "grid_search",
    "GridSearchResult",
    "GRID",
    "render_flow_map",
    "SHADES",
    "CONGESTED_FLOW",
    "FREE_FLOW",
    "RollingFlowEstimator",
    "render_city_svg",
    "write_city_svg",
]
