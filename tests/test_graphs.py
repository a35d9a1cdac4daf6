"""Graph generation and uniform-averaging matrix construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import (
    CombinationMatrix,
    DirectedGraph,
    build_combination_matrix,
    generate_binomial_graph,
    support_offdiagonal,
)


def complete_graph(n):
    return DirectedGraph(
        n_nodes=n,
        edges=frozenset((i, j) for i in range(n) for j in range(n) if i != j),
    )


def test_complete_two_node_matrix():
    a = build_combination_matrix(complete_graph(2), 0.5)
    assert np.array_equal(a.entries, np.array([[0.25, 0.25], [0.25, 0.25]]))


def test_empty_three_node_matrix_is_scaled_identity():
    g = DirectedGraph(n_nodes=3, edges=frozenset())
    a = build_combination_matrix(g, 0.5)
    assert np.array_equal(a.entries, 0.5 * np.eye(3))


def test_p_zero_gives_no_edges():
    assert generate_binomial_graph(4, 0.0, seed=1).edges == frozenset()


def test_p_one_gives_all_ordered_pairs():
    g = generate_binomial_graph(4, 1.0, seed=1)
    assert len(g.edges) == 12
    assert all(i != j for i, j in g.edges)


def test_density_plausible_at_standard_size():
    g = generate_binomial_graph(50, 0.2, seed=77)
    density = len(g.edges) / (50 * 49)
    # 6 sigma around p = 0.2 for 2450 Bernoulli trials is about +-0.05
    assert 0.15 < density < 0.25


def test_seed_determinism_and_sensitivity():
    a = generate_binomial_graph(20, 0.5, seed=5)
    b = generate_binomial_graph(20, 0.5, seed=5)
    c = generate_binomial_graph(20, 0.5, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_row_sums_at_standard_instance():
    g = generate_binomial_graph(50, 0.2, seed=101)
    a = build_combination_matrix(g, 0.5)
    assert np.abs(a.entries.sum(axis=1) - a.rho).max() < 1e-12
    assert abs(np.abs(a.entries).sum(axis=1).max() - 0.5) < 1e-12


def test_entries_nonnegative_and_on_support_only():
    g = generate_binomial_graph(12, 0.3, seed=2)
    a = build_combination_matrix(g, 0.7)
    assert np.all(a.entries >= 0)
    for i in range(12):
        for j in range(12):
            if i != j:
                assert (a.entries[i, j] > 0) == ((i, j) in g.edges)
        assert a.entries[i, i] > 0  # self-inclusive degree convention


def test_support_of_scaled_identity_is_empty():
    a = CombinationMatrix(0.5, 0.5 * np.eye(3))
    assert support_offdiagonal(a.entries).edges == frozenset()


def test_support_of_complete_two_node():
    a = build_combination_matrix(complete_graph(2), 0.5)
    assert support_offdiagonal(a.entries).edges == {(0, 1), (1, 0)}


def test_combination_matrix_refuses_a_norm_above_rho():
    # stability_constant reads rho as the infinity norm, 0.9 here
    with pytest.raises(ValueError, match="norm 0.9; it must not exceed rho 0.5"):
        CombinationMatrix(0.5, np.diag([0.9, 0.1, 0.5]))
    with pytest.raises(ValueError, match="norm nan"):
        CombinationMatrix(0.5, np.diag([np.nan, 0.1, 0.5]))
    # a row sum may round up by a spacing of rho per node
    over = 0.5 + 3 * np.spacing(0.5)
    assert CombinationMatrix(0.5, np.diag([over, 0.1, 0.5])).rho == 0.5
    # rho / d underflows to zero for a subnormal rho; the rows still fit
    g = generate_binomial_graph(6, 0.5, seed=5)
    assert build_combination_matrix(g, 5e-324).entries.max() == 5e-324


def test_validation_errors():
    with pytest.raises(ValueError):
        generate_binomial_graph(0, 0.5, seed=1)
    with pytest.raises(ValueError):
        generate_binomial_graph(5, -0.1, seed=1)
    with pytest.raises(ValueError):
        generate_binomial_graph(5, 1.5, seed=1)
    g = DirectedGraph(n_nodes=2, edges=frozenset())
    for rho in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            build_combination_matrix(g, rho)


def test_self_loops_rejected_in_graph():
    with pytest.raises(ValueError):
        DirectedGraph(n_nodes=3, edges=frozenset({(1, 1)}))


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError):
        DirectedGraph(n_nodes=3, edges=frozenset({(0, 3)}))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rho=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
)
def test_row_sum_and_support_consistency(n, p, seed, rho):
    g = generate_binomial_graph(n, p, seed)
    a = build_combination_matrix(g, rho)
    assert np.abs(a.entries.sum(axis=1) - a.rho).max() < 1e-12
    # recovered support must be exactly the generating graph
    assert support_offdiagonal(a.entries).edges == g.edges
    # infinity norm equals rho for nonnegative rows summing to rho
    assert abs(np.abs(a.entries).sum(axis=1).max() - rho) < 1e-12
