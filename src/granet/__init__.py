"""Graph recovery for networks of nonlinearly coupled dynamical systems.

The package simulates networks evolving as

    y[n+1] = sigma( g(y[n]) * (A @ h(y[n])) + x[n+1] )

and recovers the support of the combination matrix ``A`` from observed
trajectories via a weighted one-lag regression, with raw-moment linear
estimators as baselines.
"""

from .dynamics import NoiseModel, NonlinearityTriple, Trajectory, simulate
from .errors import (ConfigError, DegenerateClusterError, FunctionDomainError,
                     InvalidStateError, NearSingularError, NumericalError,
                     SimulationDivergedError)
from .estimators import (EstimateReport, correlation_estimate, egg_estimate,
                         egg_from_trajectory, granger_estimate,
                         least_squares_estimate, partial_estimate,
                         precision_estimate)
from .graphs import (CombinationMatrix, DirectedGraph,
                     build_combination_matrix, generate_binomial_graph,
                     support_offdiagonal)
from .lagmoments import (LagMatrices, WeightingConfig, accumulate, finalize,
                         from_trajectory, omega_tail_index, running_onelag_max,
                         running_weight_moment)
from .presets import triple_preset
from .recovery import (AssumptionReport, RecoveryMetrics, assumption_report,
                       classify_edges, kmeans2_1d, score, sorted_entry_profile,
                       stability_constant)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "CombinationMatrix", "ConfigError",
    "DegenerateClusterError", "DirectedGraph", "EstimateReport",
    "FunctionDomainError", "InvalidStateError", "LagMatrices",
    "NearSingularError", "NoiseModel", "NonlinearityTriple", "NumericalError",
    "RecoveryMetrics", "SimulationDivergedError", "Trajectory",
    "WeightingConfig", "accumulate", "assumption_report",
    "build_combination_matrix", "classify_edges", "correlation_estimate",
    "egg_estimate", "egg_from_trajectory", "finalize", "from_trajectory",
    "generate_binomial_graph", "granger_estimate", "kmeans2_1d",
    "least_squares_estimate", "omega_tail_index", "partial_estimate",
    "precision_estimate", "running_onelag_max", "running_weight_moment",
    "score", "simulate", "sorted_entry_profile", "stability_constant",
    "support_offdiagonal", "triple_preset",
]
