"""The package's public names, pinned.

A public name is added or removed by editing the list below, so a change to
the API shows in the diff of this test.
"""

import granet

PUBLIC_NAMES = [
    "AssumptionReport", "ClusterSplit", "CombinationMatrix", "ConfigError",
    "DegenerateClusterError", "DirectedGraph", "EstimateReport",
    "FunctionDomainError", "InvalidStateError", "LagMatrices",
    "NearSingularError", "NoiseModel", "NonlinearityTriple", "NumericalError",
    "RecoveryMetrics", "SimulationDivergedError", "SingularMatrixError",
    "SortedProfile", "Trajectory", "WeightingConfig", "accumulate",
    "assumption_report", "build_combination_matrix", "classify_edges",
    "correlation_estimate", "egg_estimate", "egg_from_trajectory", "finalize",
    "from_trajectory", "generate_binomial_graph", "granger_estimate",
    "kmeans2_1d", "least_squares_estimate", "omega_tail_index",
    "partial_estimate", "precision_estimate", "running_onelag_max",
    "running_weight_moment", "score", "simulate", "sorted_entry_profile",
    "stability_constant", "subgraph", "support_offdiagonal", "triple_preset",
]


def test_public_names_are_pinned_and_import():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert granet.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from granet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
