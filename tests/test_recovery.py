"""Clustering, scoring, profiles, and assumption checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granet import (
    ConfigError,
    DegenerateClusterError,
    DirectedGraph,
    NoiseModel,
    NonlinearityTriple,
    WeightingConfig,
    assumption_report,
    build_combination_matrix,
    classify_edges,
    finalize,
    from_trajectory,
    generate_binomial_graph,
    kmeans2_1d,
    score,
    simulate,
    sorted_entry_profile,
    stability_constant,
    support_offdiagonal,
    triple_preset,
)
from granet import nonlinearities as nl


def brute_force_split(values):
    """Minimum within-cluster SSE over all contiguous splits of the sorted data."""
    v = np.sort(np.asarray(values, dtype=float))
    best = np.inf
    for cut in range(1, v.size):
        lo, hi = v[:cut], v[cut:]
        sse = ((lo - lo.mean()) ** 2).sum() + ((hi - hi.mean()) ** 2).sum()
        best = min(best, sse)
    return best


# --- kmeans ---------------------------------------------------------------

def test_kmeans_perfectly_separated():
    s = kmeans2_1d([0, 0, 0, 1, 1, 1])
    assert (s.low_centroid, s.high_centroid) == (0.0, 1.0)
    assert s.within_sse == 0.0
    assert s.threshold == 0.5


def test_kmeans_six_values():
    s = kmeans2_1d([0, 0.01, -0.02, 0.24, 0.26, 0.25])
    # low cluster {-0.02, 0, 0.01}, high cluster {0.24, 0.25, 0.26}
    assert s.threshold == pytest.approx(0.125)
    assert s.low_centroid == pytest.approx(-0.01 / 3)
    assert s.high_centroid == pytest.approx(0.25)
    assert s.low_centroid <= s.threshold <= s.high_centroid


def test_kmeans_single_value_is_an_error():
    for values in ([5], []):
        with pytest.raises(DegenerateClusterError):
            kmeans2_1d(values)


def test_kmeans_all_equal_is_degenerate():
    with pytest.raises(DegenerateClusterError):
        kmeans2_1d([2.0, 2.0, 2.0])


def test_kmeans_float_dust_is_degenerate():
    values = 1.0 + np.arange(5) * 1e-16
    with pytest.raises(DegenerateClusterError):
        kmeans2_1d(values)


def test_kmeans_matches_brute_force_sample():
    rng = np.random.default_rng(31)
    for _ in range(200):
        values = rng.uniform(-1, 1, size=rng.integers(2, 21))
        if values.max() - values.min() < 1e-9:
            continue
        s = kmeans2_1d(values)
        assert s.within_sse == pytest.approx(brute_force_split(values), abs=1e-9)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20))
def test_kmeans_brute_force_property(values):
    v = np.asarray(values)
    if v.max() - v.min() <= 1e-6:
        return
    s = kmeans2_1d(values)
    brute = brute_force_split(values)
    assert s.within_sse <= brute + 1e-9 * max(1.0, brute)


# --- classification -------------------------------------------------------

def test_classify_exact_matrix_recovers_truth():
    g = generate_binomial_graph(12, 0.25, seed=3)
    a = build_combination_matrix(g, 0.5)
    assert classify_edges(a.entries).edges == g.edges


def test_classify_flat_matrix_is_degenerate():
    with pytest.raises(DegenerateClusterError):
        classify_edges(np.zeros((4, 4)))
    rng = np.random.default_rng(0)
    dusty = 0.3 * np.eye(4) + 1e-15 * rng.random((4, 4))
    with pytest.raises(DegenerateClusterError):
        classify_edges(dusty)


@settings(deadline=None, max_examples=60)
@given(
    shift=st.floats(min_value=-5, max_value=5),
    scale=st.floats(min_value=0.01, max_value=50),
    seed=st.integers(min_value=0, max_value=500),
)
def test_classify_shift_scale_invariance(shift, scale, seed):
    g = generate_binomial_graph(8, 0.4, seed=seed)
    base = build_combination_matrix(g, 0.5).entries
    reference = classify_edges(base).edges
    off = ~np.eye(8, dtype=bool)
    shifted = base.copy()
    shifted[off] += shift
    assert classify_edges(shifted).edges == reference
    assert classify_edges(base * scale).edges == reference


# --- scoring --------------------------------------------------------------

def test_score_perfect_recovery():
    g = generate_binomial_graph(6, 0.5, seed=9)
    a = build_combination_matrix(g, 0.5).entries
    m = score(g, g, a, a)
    assert m.false_edges == 0 and m.missed_edges == 0
    assert m.edge_error_rate == 0.0
    assert m.matrix_rel_error == 0.0
    assert m.total_offdiag == 30


def test_score_complement_has_error_rate_one():
    g = generate_binomial_graph(6, 0.5, seed=9)
    complement = DirectedGraph(
        n_nodes=6,
        edges=frozenset((i, j) for i in range(6) for j in range(6)
                        if i != j and (i, j) not in g.edges),
    )
    a = build_combination_matrix(g, 0.5).entries
    m = score(complement, g, a, a)
    assert m.edge_error_rate == 1.0
    assert m.false_edges + m.missed_edges == 30


def test_score_size_mismatch():
    g2 = DirectedGraph(n_nodes=2, edges=frozenset())
    g3 = DirectedGraph(n_nodes=3, edges=frozenset())
    with pytest.raises(ValueError):
        score(g2, g3, np.zeros((2, 2)), np.zeros((3, 3)))


@settings(deadline=None, max_examples=60)
@given(
    seed_a=st.integers(min_value=0, max_value=300),
    seed_b=st.integers(min_value=0, max_value=300),
)
def test_score_error_count_is_hamming_distance(seed_a, seed_b):
    n = 7
    ga = generate_binomial_graph(n, 0.5, seed=seed_a)
    gb = generate_binomial_graph(n, 0.5, seed=seed_b)
    m = score(ga, gb, np.zeros((n, n)), np.ones((n, n)))
    hamming = len(ga.edges ^ gb.edges)
    assert m.false_edges + m.missed_edges == hamming
    assert m.edge_error_rate == hamming / (n * (n - 1))


# --- profiles -------------------------------------------------------------

def test_profile_of_exact_estimate_is_nondecreasing():
    a = build_combination_matrix(generate_binomial_graph(9, 0.3, 5), 0.5).entries
    prof = sorted_entry_profile(a, a)
    true = np.asarray(prof.true_values)
    est = np.asarray(prof.estimated_values)
    assert np.array_equal(true, est)
    assert np.all(np.diff(true) >= 0)
    assert len(prof.slot_ids) == 9 * 8


def test_profile_two_by_two_ordering():
    a = np.array([[0.0, 0.3], [0.1, 0.0]])
    a_hat = np.array([[0.0, 7.0], [5.0, 0.0]])
    prof = sorted_entry_profile(a, a_hat)
    assert list(prof.true_values) == [0.1, 0.3]
    # estimates follow the ordering induced by the true values
    assert list(prof.estimated_values) == [5.0, 7.0]


def test_profile_shape_mismatch():
    with pytest.raises(ValueError):
        sorted_entry_profile(np.zeros((2, 2)), np.zeros((3, 3)))


# --- stability constant ---------------------------------------------------

def test_stability_linear_preset_is_rho_exactly():
    matrix = build_combination_matrix(generate_binomial_graph(50, 0.2, 101), 0.5)
    rep = stability_constant(triple_preset("linear", 50), matrix)
    assert rep.kappa_s == 0.5
    assert rep.kappa_branch == "p=0,q=1"
    assert rep.kappa_stable


def test_stability_split_exponent_branch():
    m = build_combination_matrix(generate_binomial_graph(10, 0.4, 1), 0.5)
    t = NonlinearityTriple(sigma=(nl.identity(),) * 10,
                           g=(nl.sign_power(0.5),) * 10,
                           h=(nl.sign_power(0.5),) * 10)
    rep = stability_constant(t, m)
    assert rep.kappa_s == 0.5
    assert rep.kappa_branch == "p>0,q>0"


def test_stability_flag_is_report_only():
    m = build_combination_matrix(generate_binomial_graph(6, 0.4, 2), 0.5)
    t = NonlinearityTriple(sigma=(nl.identity().with_envelope(2.4, 0.0),) * 6,
                           g=(nl.constant_one(),) * 6,
                           h=(nl.identity(),) * 6)
    rep = stability_constant(t, m)  # must not raise
    assert rep.kappa_s == pytest.approx(1.2)
    assert not rep.kappa_stable


def test_stability_requires_envelopes():
    m = build_combination_matrix(generate_binomial_graph(4, 0.5, 2), 0.5)
    t = NonlinearityTriple(sigma=(nl.identity(),) * 4,
                           g=(nl.constant_one(),) * 4,
                           h=(nl.sign_power(2.0),) * 4)
    with pytest.raises(ConfigError):
        stability_constant(t, m)


@settings(deadline=None, max_examples=40)
@given(
    alpha=st.floats(min_value=1.0, max_value=10.0),
    rho=st.floats(min_value=0.1, max_value=0.95),
)
def test_stability_monotone_in_alpha_and_norm(alpha, rho):
    n = 5
    g = generate_binomial_graph(n, 0.5, seed=4)
    base = build_combination_matrix(g, 0.1)
    grown = build_combination_matrix(g, rho)

    def kappa(a_sigma, matrix):
        t = NonlinearityTriple(sigma=(nl.identity().with_envelope(a_sigma, 0.0),) * n,
                               g=(nl.constant_one(),) * n,
                               h=(nl.identity(),) * n)
        return stability_constant(t, matrix).kappa_s

    assert kappa(alpha, base) >= kappa(1.0, base)
    assert kappa(1.0, grown) >= kappa(1.0, base) - 1e-15


# --- assumption report ----------------------------------------------------

def test_assumption_report_healthy_preset(trajectory_factory):
    triple = triple_preset("example2", 50)
    cfg = WeightingConfig()
    traj = trajectory_factory("example2", 3001, 200_000)
    f0, _ = finalize(from_trajectory(traj, triple, cfg))
    rep = assumption_report(traj, triple, cfg, f0_hat=f0)
    assert rep.omega_moment_flag
    assert np.isfinite(rep.f0_condition)
    assert rep.omega_tail_index > 1.1


def test_assumption_report_singular_g_trips_moment_flag(trajectory_factory):
    triple = triple_preset("singular-g", 50)
    cfg = WeightingConfig()
    traj = trajectory_factory("singular-g", 3001, 100_000)
    rep = assumption_report(traj, triple, cfg)
    assert not rep.omega_moment_flag
    assert rep.f0_condition is None
    assert rep.omega_tail_index <= 1.1


def test_assumption_report_merge_with_static_check(instance50):
    _, matrix = instance50
    triple = triple_preset("linear", 50)
    cfg = WeightingConfig()
    traj = simulate(matrix, triple, NoiseModel.uniform(50), 0.0, 400, seed=5)
    empirical = assumption_report(traj, triple, cfg)
    static = stability_constant(triple, matrix)
    merged = empirical.merged_with(static)
    assert merged.kappa_s == 0.5
    assert merged.kappa_branch == "p=0,q=1"
    assert merged.omega_moment_flag == empirical.omega_moment_flag
    assert merged.omega_tail_index == empirical.omega_tail_index
