"""Shared fixtures.

Long trajectories on the standard 50-node instance are expensive (a few
seconds each), so they are memoized at module level and shared between the
unit tests and the acceptance suite.  Everything is keyed on (preset, seed,
n_steps) and fully deterministic.
"""

import functools
import tracemalloc

import pytest

from granet import (
    NoiseModel,
    build_combination_matrix,
    generate_binomial_graph,
    simulate,
    triple_preset,
)

N_NODES = 50
EDGE_P = 0.2
GRAPH_SEED = 101
RHO = 0.5


@functools.lru_cache(maxsize=None)
def standard_instance():
    """The 50-node binomial graph and its averaging matrix."""
    graph = generate_binomial_graph(N_NODES, EDGE_P, GRAPH_SEED)
    return graph, build_combination_matrix(graph, RHO)


@functools.lru_cache(maxsize=20)
def standard_trajectory(preset, seed, n_steps):
    _, matrix = standard_instance()
    triple = triple_preset(preset, N_NODES)
    noise = NoiseModel.uniform(N_NODES)
    return simulate(matrix, triple, noise, 0.0, n_steps, seed)


@pytest.fixture(scope="session")
def instance50():
    return standard_instance()


@pytest.fixture(scope="session")
def trajectory_factory():
    return standard_trajectory


@pytest.fixture
def peak_traced_bytes():
    """``measure(fn)`` calls ``fn()`` under tracemalloc.

    Returns ``(result, peak)``: what ``fn`` returned and the peak of the
    memory NumPy and Python allocated while it ran, in bytes.
    """
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak
    return measure
